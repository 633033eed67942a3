#!/usr/bin/env python3
"""Benchmark of the qndprep engines, end to end and layer by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload exact-channel --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, untraced then traced

With one workload, the process builds the workload's inputs from the seed,
repeats whole rounds of the workload's operations until ``--seconds`` of
timed work have passed, checks every output (see ``workloads.py``), and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  With ``--workload all`` it runs each
workload in its own process, untraced and then traced, and prints the
tracing overhead (traced over untraced ``wall_s``) and the spread of each
untraced run's round times.

The package is imported from ``src/`` of the checkout and nowhere else; the
run stops with an error if it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("exact-channel", "monte-carlo", "path-tree", "figures")
SETUP_MIN = 5           # set-ups per untraced run: one after each round, topped up to this
CHILD_TIMEOUT_S = 170

# Set-up measured in a fresh interpreter: import the package, build inputs.
SETUP_CHILD = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import inputs\n"
    "inputs.build(sys.argv[3], int(sys.argv[4]))\n"
    "print(time.perf_counter() - t)\n"
)

TRACED_FUNCTIONS = (
    "measurement.sample_outcome", "measurement.outcome_probabilities",
    "measurement.projector_apply", "measurement.frame", "protocol.run_protocol",
    "protocol.repeat_until_success", "protocol.apply_correction", "fock.rotation_matrix",
)


def fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def benchmark_names(key: str):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def machine_facts() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = fn()
    return {"cpus": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def setup_once(workload: str, seed: int) -> float:
    """Set-up time reported by a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), workload, str(seed)],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def layer_metrics(tracer, counts: Counter, times, cache_hits: int, cache_calls: int) -> dict:
    import inputs

    rounds = len(times)
    calls, total, self_s = tracer.calls, tracer.total_s, tracer.self_s
    m = {}
    for name in TRACED_FUNCTIONS:
        m[f"{name}.calls"] = (calls.get(name, 0) / rounds, "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / rounds, "s")
    traj = calls.get("protocol.run_protocol", 0)
    m["protocol.measurements_per_trajectory"] = (
        calls.get("measurement.sample_outcome", 0) / traj if traj else 0.0, "count")
    m["protocol.corrections_per_trajectory"] = (
        calls.get("protocol.apply_correction", 0) / traj if traj else 0.0, "count")
    m["analysis.monte_carlo_estimates.self_s"] = (
        self_s.get("analysis.monte_carlo_estimates", 0.0) / rounds, "s")
    channel_s = 0.0
    for rule in ("split", "minus"):
        s = total.get(f"analysis.channel_statistics.{rule}", 0.0)
        channel_s += s
        m[f"analysis.channel_statistics.{rule}.s"] = (s / rounds, "s")
    steps = counts["channel_steps"]
    m["analysis.channel.steps"] = (steps / rounds, "count")
    m["analysis.channel.ms_per_step"] = (1e3 * channel_s / steps if steps else 0.0, "ms")
    tree_s = total.get("analysis.enumerate_tree", 0.0)
    terminals = counts["tree_terminals"]
    m["analysis.enumerate_tree.s"] = (tree_s / rounds, "s")
    m["analysis.tree.terminals"] = (terminals / rounds, "count")
    m["analysis.tree.us_per_terminal"] = (1e6 * tree_s / terminals if terminals else 0.0, "us")
    for alpha in inputs.POVM_ALPHAS:
        name = f"measurement.povm_projector_discrepancy.a{alpha:.0f}"
        m[f"{name}.s"] = (total.get(name, 0.0) / rounds, "s")
    m["fock.rotation_cache.hit_ratio"] = (cache_hits / cache_calls if cache_calls else 0.0, "ratio")
    m["analysis.fock_grid.s"] = (total.get("analysis.fock_grid", 0.0) / rounds, "s")
    for fig in inputs.FIGURES:
        m[f"cli.{fig}.s"] = (total.get(f"cli.{fig}", 0.0) / rounds, "s")
    m["cli.rows_written"] = (counts["rows_written"] / rounds, "count")
    m["cli.bytes_written"] = (counts["bytes_written"] / rounds, "B")
    m["bench.traced_wall_s"] = (statistics.median(times), "s")
    return m


def rotation_cache_counts(fock):
    """(hits, hits + misses) of the package's rotation cache, (0, 0) if it has none."""
    cached = getattr(fock, "_rotation_matrix_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.hits + info.misses


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "qndprep" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'qndprep'}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import qndprep
    import qndprep.cli

    if not Path(qndprep.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"qndprep was imported from {qndprep.__file__}, not from {SRC}")
    import inputs
    import tracing
    import workloads

    built = inputs.build(name, seed)
    out_dir = OUT / f"{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](built, seed, str(out_dir))
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    times, setups, counts = [], [], Counter()
    attempted = failed = 0
    unexpected = []
    hits0, calls0 = rotation_cache_counts(qndprep.fock)
    if trace:
        tracer.patch(tracing.layer_targets(qndprep))
    try:
        while not times or sum(times) < seconds:
            out, wall = {}, 0.0
            for key, fn in workload.ops(len(times), tracer):
                t0 = time.perf_counter()
                out[key] = fn()
                wall += time.perf_counter() - t0
            times.append(wall)
            counts.update(workload.counters(out))
            for op, ok, detail, known in workload.check(out):
                attempted += 1
                if not ok:
                    failed += 1
                    if not known:
                        unexpected.append(op)
                status = "ok" if ok else (f"FAIL, known fault: {known}" if known else "FAIL")
                print(f"round {len(times)} {op}: {status}: {detail}")
            del out  # peak RSS is that of one round, not of two rounds' results
            if not trace:
                # set-ups spread over the run: one after each round, topped up after the last
                last = sum(times) >= seconds
                setups += [setup_once(name, seed)
                           for _ in range(SETUP_MIN - len(setups) if last else 1)]
    finally:
        if trace:
            tracer.restore()
        shutil.rmtree(out_dir, ignore_errors=True)
    hits1, calls1 = rotation_cache_counts(qndprep.fock)

    print("# " + json.dumps({"workload": name, "seed": seed, "trace": int(trace),
                             "rounds": len(times), "round_s": [round(t, 4) for t in times],
                             **machine_facts()}))
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"trace-{name}.npz"))
        metrics = layer_metrics(tracer, counts, times, hits1 - hits0, calls1 - calls0)
        expected = benchmark_names("per_layer")
    else:
        wall = statistics.median(times)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "items_per_s": (counts["items"] / len(times) / wall, "1/s"),
        }
        expected = benchmark_names("end_to_end")
    if sorted(metrics) != sorted(expected):
        fail(f"metrics {sorted(set(metrics) ^ set(expected))} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def spread(values) -> float:
    """Interquartile range over median, as the benchmark's spreads are defined; 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_all(seed: int, seconds: int) -> int:
    """Each workload in its own process, untraced then traced; report the overhead.

    ``spread`` is that of the untraced run's round times, next to their
    median ``wall_s``: a wide one means the machine changed speed during the run.
    """
    rows = []
    for name in WORKLOADS:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            if proc.returncode != 0:
                fail(f"{name} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
            *_, facts, last = proc.stdout.strip().splitlines()
            last = json.loads(last)
            print(json.dumps({"workload": name, "trace": trace, **last}))
            results.append(last)
            if not trace:
                round_s = json.loads(facts.removeprefix("# "))["round_s"]
        untraced = results[0]["metrics"]["wall_s"]["value"]
        traced = results[1]["metrics"]["bench.traced_wall_s"]["value"]
        rows.append((name, untraced, spread(round_s), traced, results[0]["attempted"],
                     results[0]["failed"], results[0]["correct"] and results[1]["correct"]))
    print(f"{'workload':<14} {'wall_s':>8} {'spread':>6} {'traced':>8} {'overhead':>8} "
          f"{'attempted':>9} {'failed':>6} correct")
    for name, untraced, rounds_spread, traced, attempted, failed, correct in rows:
        print(f"{name:<14} {untraced:8.3f} {rounds_spread:6.3f} {traced:8.3f} "
              f"{traced / untraced:8.3f} {attempted:9d} {failed:6d} {correct}")
    return 0 if all(r[-1] for r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
