"""Reproducible experiment runner.

Three subcommands cover the analysis surface: ``simulate`` (Monte Carlo
trajectories), ``enumerate`` (exact outcome-tree expansion) and ``figures``
(figure-ready data tables: matrix-element ridges, fidelity sweeps, Fock
probability grids, marginals, success probabilities and average fidelity).
Every run writes a JSON manifest from which the outputs can be reproduced
byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .analysis import (
    CorrectionSpec,
    channel_statistics,
    enumerate_tree,
    fock_grid,
    monte_carlo_estimates,
)
from .fock import (
    FockBasis,
    _sy_eigendecomposition,
    _sy_rotated_diagonals,
    rotation_matrix,  # noqa: F401  perfbench/tracing.py wraps this binding
    x_polarized_state,
)
from .measurement import ProjectorSpec, projector_apply
from .protocol import ProtocolConfig

FIGURE_IDS = ("fig3a", "fig3b", "fig3c", "fig3d", "fig4", "fig5", "fig6", "fig7")
_FIG3_GRID_ATOMS = 150  # N of the fig3a/fig3b matrix elements

# The Delta != 0 panels use the branch sign (-1)^Delta: amplitudes on the two
# bands satisfy d(k, k+Delta) = (-1)^Delta d(k+Delta, k) under an S^y rotation,
# so only that branch is movable onto the diagonal by the correction, and it is
# the one whose restored-diagonal structure the panels illustrate.
FIG4_PANELS: Dict[str, Tuple] = {
    "a": (ProjectorSpec(0, +1, "z"),),
    "b": (ProjectorSpec(1, -1, "z"),),
    "c": (ProjectorSpec(1, -1, "z"), CorrectionSpec(1, "z")),
    "d": (
        ProjectorSpec(1, -1, "z"),
        CorrectionSpec(1, "z"),
        ProjectorSpec(0, +1, "z"),
    ),
    "e": (ProjectorSpec(0, +1, "z"), ProjectorSpec(0, +1, "x")),
    "f": (ProjectorSpec(0, +1, "z"), ProjectorSpec(2, +1, "x")),
    "g": (
        ProjectorSpec(0, +1, "z"),
        ProjectorSpec(2, +1, "x"),
        CorrectionSpec(2, "x"),
    ),
    "h": (
        ProjectorSpec(0, +1, "z"),
        ProjectorSpec(2, +1, "x"),
        CorrectionSpec(2, "x"),
        ProjectorSpec(0, +1, "x"),
    ),
}


def _write_csv_atomic(path: str, header: Sequence[str], rows: Iterable[Sequence]):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _write_json_atomic(path: str, payload: dict):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _config_from_args(args) -> ProtocolConfig:
    basis_order = tuple(args.basis_order.split(","))
    for b in basis_order:
        if b not in ("z", "x"):
            raise ValueError(f"unsupported basis {b!r} in --basis-order")
    return ProtocolConfig(
        n_atoms=args.n_atoms,
        alpha=args.alpha,
        tau=args.tau,
        max_repeats=args.max_repeats,
        max_rounds=args.rounds,
        basis_order=basis_order,
        angle_rule=args.angle_rule,
        seed=args.seed,
        sign_rule=args.sign_rule,
        prune_threshold=args.prune,
        node_cap=args.node_cap,
    )


def _manifest(
    out_dir: str,
    engine: str,
    config: ProtocolConfig,
    outputs: List[str],
    elapsed: float,
    extra: Optional[dict] = None,
):
    payload = {
        "engine": engine,
        "version": __version__,
        "config": dataclasses.asdict(config),
        "wall_clock_seconds": round(elapsed, 3),
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    if extra:
        payload.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    _write_json_atomic(path, payload)
    return path


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    if args.trajectories < 1:
        raise ValueError("--trajectories must be at least 1")
    os.makedirs(args.out_dir, exist_ok=True)
    start = time.monotonic()
    initial = x_polarized_state(config.basis)
    result = monte_carlo_estimates(args.trajectories, initial, config)

    rounds_path = os.path.join(args.out_dir, "simulate_rounds.csv")
    rows = [
        (
            r + 1,
            f"{result.round_success[r]:.10f}",
            f"{result.round_success_se[r]:.10f}",
            f"{result.round_first_success[r]:.10f}",
            f"{result.round_first_success_se[r]:.10f}",
            f"{result.round_fidelity[r]:.10f}",
            f"{result.round_fidelity_se[r]:.10f}",
        )
        for r in range(config.max_rounds)
    ]
    _write_csv_atomic(
        rounds_path,
        [
            "round",
            "p_suc",
            "p_suc_se",
            "p_first_success",
            "p_first_success_se",
            "f_avg",
            "f_avg_se",
        ],
        rows,
    )

    marg_path = os.path.join(args.out_dir, "simulate_first_marginals.csv")
    marg_rows = [
        (
            r + 1,
            delta,
            f"{result.first_marginals[r, delta]:.10f}",
            f"{result.first_marginals_se[r, delta]:.10f}",
        )
        for r in range(config.max_rounds)
        for delta in range(config.n_atoms + 1)
    ]
    _write_csv_atomic(
        marg_path, ["round", "delta", "probability", "standard_error"], marg_rows
    )

    elapsed = time.monotonic() - start
    _manifest(
        args.out_dir,
        "simulate",
        config,
        [rounds_path, marg_path],
        elapsed,
        extra={
            "trajectories": args.trajectories,
            "converged_fraction": result.converged_fraction,
            "capped_fraction": result.capped_fraction,
        },
    )
    return 0


def _run_exact(initial, config: ProtocolConfig, engine: str):
    """Dispatch to one of the exact engines.

    ``channel`` aggregates the branch ensemble as a density matrix — exact
    with zero pruned mass, the default.  ``tree`` expands individual outcome
    paths; feasible only when the pruning threshold retains most of the
    fragmenting branch mass (small N or short sequences).
    """
    if engine == "channel":
        return channel_statistics(initial, config)
    if engine == "tree":
        return enumerate_tree(initial, config, store_states=False, store_paths=False)
    raise ValueError(f"unknown engine {engine!r}")


def _marginal_table(result, config: ProtocolConfig):
    """Header and rows of an exact engine's step marginals, one row per (step, Delta)."""
    rows = [
        (r + 1, config.basis_order[b], j + 1, delta, f"{p:.12e}")
        for (r, b, j), table in sorted(result.step_marginals.items())
        for delta, p in enumerate(table)
    ]
    return ["round", "basis", "repeat", "delta", "probability"], rows


def _round_table(result, config: ProtocolConfig):
    """Header and rows of an exact engine's round statistics, one row per round."""
    columns = (result.round_success, result.round_first_success, result.round_fidelity)
    rows = [(r + 1, *(f"{c[r]:.12e}" for c in columns)) for r in range(config.max_rounds)]
    return ["round", "p_suc", "p_first_success", "f_avg"], rows


def cmd_enumerate(args) -> int:
    config = _config_from_args(args)
    os.makedirs(args.out_dir, exist_ok=True)
    start = time.monotonic()
    initial = x_polarized_state(config.basis)
    result = _run_exact(initial, config, args.engine)

    marg_path = os.path.join(args.out_dir, "enumerate_marginals.csv")
    _write_csv_atomic(marg_path, *_marginal_table(result, config))
    rounds_path = os.path.join(args.out_dir, "enumerate_rounds.csv")
    _write_csv_atomic(rounds_path, *_round_table(result, config))

    extra = {
        "engine_variant": args.engine,
        "pruned_mass": result.pruned_mass,
        "unexplored_mass": result.unexplored_mass,
        "node_cap_hit": result.node_cap_hit,
        # |1 - accounted mass|: terminal + pruned + unexplored (tree), total (channel)
        "mass_residual": abs(1.0 - result.accounted_mass()),
    }
    if args.engine == "tree":
        extra["terminal_mass"] = result.terminal_mass
        extra["capped_mass"] = result.capped_mass
        extra["terminal_branches"] = result.terminal_count
        extra["expanded_nodes"] = result.expanded_nodes
    else:
        extra["total_mass"] = result.total_mass
    elapsed = time.monotonic() - start
    _manifest(
        args.out_dir,
        "enumerate",
        config,
        [marg_path, rounds_path],
        elapsed,
        extra=extra,
    )
    if result.node_cap_hit:
        print(
            "warning: node cap exceeded; results are partial "
            f"(unexplored mass {result.unexplored_mass:.3e})",
            file=sys.stderr,
        )
        return 3
    return 0


def _fig3_matrix_columns(k: int):
    """301 grid angles and |<k + Delta| exp(+i S^y theta/2) |k>|, shape (301, N + 1 - k).

    Column k of V diag(e^{i theta lambda/2}) V^dagger for every angle is one
    (301, d) x (d, d) product; no rotation matrix is built.
    """
    thetas = np.linspace(0.0, np.pi, 301)
    evals, evecs = _sy_eigendecomposition(_FIG3_GRID_ATOMS)
    phases = np.exp(0.5j * thetas[:, None] * evals)
    return thetas, np.abs(phases @ (evecs.T * evecs[k].conj()[:, None]))[:, k:]


def _fig3_matrix_grid(k: int):
    thetas, mags = _fig3_matrix_columns(k)
    rows = []
    for theta, column in zip(thetas, mags.tolist()):
        label = f"{theta:.8f}"
        rows.extend((delta, label, f"{m:.10e}") for delta, m in enumerate(column))
    return rows


def _fig3_fidelities(n_atoms: int):
    """401 grid angles and, per Delta, the corrected fidelity at each angle.

    The fidelity of exp(+i S^y theta/2) P_Delta psi0 with the MMES is
    |tr(exp(+i S^y theta/2) P_Delta psi0)|^2 / (N+1) / |P_Delta psi0|^2, for
    every Delta whose movable branch has mass.
    """
    basis = FockBasis(n_atoms)
    psi0 = x_polarized_state(basis)
    thetas = np.linspace(0.0, np.pi, 401)
    fids = {}
    for delta in range(n_atoms + 1):
        # use the movable sign branch (-1)^Delta: the other branch cannot be
        # rotated onto the diagonal, so its sweep carries no angle information
        sign = +1 if delta == 0 else (-1) ** delta
        projected = projector_apply(psi0, ProjectorSpec(delta, sign, "z"))
        norm_sq = projected.squared_norm()
        if norm_sq == 0.0:
            continue
        traces = _sy_rotated_diagonals(thetas, projected.amplitudes).sum(axis=1)
        fids[delta] = np.abs(traces) ** 2 / (n_atoms + 1) / norm_sq
    return thetas, fids


def _fig3_fidelity_sweep(n_atoms: int):
    thetas, fids = _fig3_fidelities(n_atoms)
    sweep_rows = []
    argmax_rows = []
    for delta, fid in fids.items():
        sweep_rows.extend(
            (delta, f"{theta:.8f}", f"{f:.10e}") for theta, f in zip(thetas, fid)
        )
        best = int(np.argmax(fid))  # the first maximum
        argmax_rows.append(
            (
                delta,
                f"{thetas[best]:.8f}",
                f"{np.pi * delta / n_atoms:.8f}",
                f"{fid[best]:.10e}",
            )
        )
    return sweep_rows, argmax_rows


def cmd_figures(args) -> int:
    if args.figure not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {args.figure!r}; choose from {FIGURE_IDS}")
    config = _config_from_args(args)
    os.makedirs(args.out_dir, exist_ok=True)
    start = time.monotonic()
    outputs = []
    extra: dict = {}

    if args.figure in ("fig3a", "fig3b"):
        k = 0 if args.figure == "fig3a" else 1
        rows = _fig3_matrix_grid(k)
        path = os.path.join(args.out_dir, f"{args.figure}_matrix_elements.csv")
        _write_csv_atomic(path, ["delta", "theta", "magnitude"], rows)
        outputs.append(path)
        extra["n_atoms_grid"] = _FIG3_GRID_ATOMS
    elif args.figure in ("fig3c", "fig3d"):
        sweep_rows, argmax_rows = _fig3_fidelity_sweep(config.n_atoms)
        if args.figure == "fig3c":
            path = os.path.join(args.out_dir, "fig3c_fidelity_sweep.csv")
            _write_csv_atomic(path, ["delta", "theta", "fidelity"], sweep_rows)
        else:
            path = os.path.join(args.out_dir, "fig3d_optimal_angles.csv")
            _write_csv_atomic(
                path, ["delta", "theta_max", "theta_line", "fidelity"], argmax_rows
            )
        outputs.append(path)
    elif args.figure == "fig4":
        initial = x_polarized_state(config.basis)
        rows = []
        for panel, ops in FIG4_PANELS.items():
            # report each grid in the frame of the basis being measured
            frame = ops[-1].basis if hasattr(ops[-1], "basis") else "z"
            grid = fock_grid(ops, initial, grid_basis=frame)
            for k1 in range(config.n_atoms + 1):
                for k2 in range(config.n_atoms + 1):
                    rows.append((panel, frame, k1, k2, f"{grid[k1, k2]:.12e}"))
        path = os.path.join(args.out_dir, "fig4_fock_grids.csv")
        _write_csv_atomic(path, ["panel", "frame", "k1", "k2", "probability"], rows)
        outputs.append(path)
    else:  # fig5, fig6, fig7 ride on an exact engine
        initial = x_polarized_state(config.basis)
        result = _run_exact(initial, config, args.engine)
        extra["engine_variant"] = args.engine
        extra["pruned_mass"] = result.pruned_mass
        extra["node_cap_hit"] = result.node_cap_hit
        if args.figure == "fig5":
            path = os.path.join(args.out_dir, "fig5_marginals.csv")
            _write_csv_atomic(path, *_marginal_table(result, config))
        else:  # fig6 and fig7 are columns of the round table
            name, pick = {
                "fig6": ("fig6_success_probability.csv", itemgetter(0, 1, 2)),
                "fig7": ("fig7_average_fidelity.csv", itemgetter(0, 3)),
            }[args.figure]
            header, rows = _round_table(result, config)
            path = os.path.join(args.out_dir, name)
            _write_csv_atomic(path, pick(header), map(pick, rows))
        outputs.append(path)

    elapsed = time.monotonic() - start
    extra["figure"] = args.figure
    _manifest(args.out_dir, "figures", config, outputs, elapsed, extra=extra)
    return 0


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--n-atoms", type=int, default=10, help="atoms per ensemble")
    parser.add_argument("--alpha", type=float, default=100.0, help="probe amplitude")
    parser.add_argument(
        "--tau", type=float, default=None, help="interaction time (default pi/(2N))"
    )
    parser.add_argument(
        "--max-repeats", type=int, default=25, help="repeat cap per sequence"
    )
    parser.add_argument("--rounds", type=int, default=3, help="number of z+x rounds")
    parser.add_argument(
        "--prune", type=float, default=1e-10, help="branch-mass pruning threshold"
    )
    parser.add_argument("--seed", type=int, default=0, help="rng seed")
    parser.add_argument(
        "--basis-order", type=str, default="z,x", help="comma-separated basis order"
    )
    parser.add_argument(
        "--angle-rule",
        choices=("line", "optimized"),
        default="line",
        help="correction angle rule",
    )
    parser.add_argument(
        "--sign-rule",
        choices=("split", "plus", "minus"),
        default="split",
        help="branch-sign convention for Delta != 0 outcomes",
    )
    parser.add_argument(
        "--node-cap", type=int, default=2_000_000, help="enumeration node guard"
    )
    parser.add_argument("--out-dir", type=str, default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndprep",
        description="Adaptive QND entangled-state preparation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo trajectory statistics")
    _add_common_flags(p_sim)
    p_sim.add_argument(
        "--trajectories", type=int, default=10000, help="number of trajectories"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_enum = sub.add_parser("enumerate", help="exact outcome distributions")
    _add_common_flags(p_enum)
    p_enum.add_argument(
        "--engine",
        choices=("channel", "tree"),
        default="channel",
        help="exact engine: density-matrix channel (no pruning) or path tree",
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_fig = sub.add_parser("figures", help="figure-ready CSV bundles")
    _add_common_flags(p_fig)
    p_fig.add_argument("--figure", type=str, required=True, help="figure id")
    p_fig.add_argument(
        "--engine",
        choices=("channel", "tree"),
        default="channel",
        help="exact engine for the protocol-statistics figures",
    )
    p_fig.set_defaults(func=cmd_figures)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
