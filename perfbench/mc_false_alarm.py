#!/usr/bin/env python3
"""False-alarm rate of the monte-carlo check over fresh seeds.

Runs the monte-carlo workload's round 0 (same trajectory count and
configuration) for each seed, compares it with the density-tensor reference
exactly as the benchmark does, and prints how many seeds raise an alarm
(any |pull| above the bound) and the quantiles of the largest |pull| per
seed.  Run from the root of a checkout:

    python3 perfbench/mc_false_alarm.py --first-seed 1000 --seeds 100 --workers 2
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


def worst_pull(seed: int):
    import inputs
    import qndprep.analysis
    import workloads

    b = inputs.build("monte-carlo", seed)
    res = qndprep.analysis.monte_carlo_estimates(
        b["trajectories"], b["initial"], b["config"], inputs.round_rng(seed, 0))
    pulls = workloads.monte_carlo_pulls(workloads.trajectory_sums(res), _reference(), inputs.N_ATOMS)
    label, pull = max(pulls, key=lambda lp: abs(lp[1]))
    return seed, label, abs(pull), len(pulls)


@functools.lru_cache(maxsize=None)
def _reference():
    import inputs
    import reference

    return reference.channel(reference.x_polarized(inputs.N_ATOMS), inputs.ROUNDS,
                             inputs.REPEATS, "split")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    import workloads

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    with multiprocessing.get_context("spawn").Pool(args.workers) as pool:
        rows = pool.map(worst_pull, seeds)
    worst = [r[2] for r in rows]
    alarms = [r for r in rows if r[2] > workloads.PULL_BOUND]
    for seed, label, pull, _ in sorted(rows, key=lambda r: -r[2])[:5]:
        print(f"seed {seed}: largest |pull| {pull:.2f} ({label})")
    q = statistics.quantiles(worst, n=10)
    print(f"{len(rows)} seeds x {rows[0][3]} pulls, bound {workloads.PULL_BOUND}: "
          f"{len(alarms)} alarms; largest |pull| per seed: median {statistics.median(worst):.2f}, "
          f"p90 {q[-1]:.2f}, max {max(worst):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
