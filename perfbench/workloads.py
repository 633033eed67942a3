"""The four workloads: one timed round of program calls, then checks.

A round is the same fixed list of operations every time.  ``ops`` lists
them as (key, call) pairs; the runner times each call, which reaches the
package through its public functions only.  ``check`` takes the outputs by
key and compares each with ``reference`` (computed once per process,
outside the timed part), a closed form, or a property the method must have,
and returns one ``Check`` per checked operation.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import shutil
from collections import defaultdict
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import bdtr, bdtrc, ndtri

import qndprep.analysis
import qndprep.cli
import qndprep.measurement

import inputs
import reference as ref

EXACT_TOL = 1e-12     # exact engines against the density-tensor reference
PULL_BOUND = 5.0      # monte-carlo: |pull| above this is an alarm
POVM_RTOL = 1e-2      # POVM discrepancy against the cancellation-free distance
# sqrt(2 - 2*overlap) cannot resolve a distance below sqrt(2 * 2**-53) = 1.05e-8
POVM_FLOOR = 2e-8
POVM_FLOOR_FAULT = ("measurement.povm_projector_discrepancy computes sqrt(2 - 2*overlap), "
                    "which floors near 1e-8 in double precision")


class Check(NamedTuple):
    op: str
    ok: bool
    detail: str
    # A fault of the program that this failure matches exactly; such a
    # failure counts in ``failed`` and leaves ``correct`` true.
    known_fault: Optional[str] = None


def _within(name, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return err <= tol, f"{name} max|diff| {err:.2e} (tol {tol:.0e})"


def _all(parts):
    return all(p[0] for p in parts), "; ".join(p[1] for p in parts)


class ExactChannel:
    """``channel_statistics`` at N=10, L=25, 3 rounds, split then minus."""

    name = "exact-channel"

    def __init__(self, built, seed, out_dir):
        self.inputs = built
        psi = ref.x_polarized(inputs.N_ATOMS)
        self.ref = {rule: ref.channel(psi, inputs.ROUNDS, inputs.REPEATS, rule)
                    for rule in built}
        self.first = ref.first_step_marginal(inputs.N_ATOMS)

    def ops(self, idx, tracer):
        def call(rule):
            initial, cfg = self.inputs[rule]
            with tracer.span(f"analysis.channel_statistics.{rule}"):
                return qndprep.analysis.channel_statistics(initial, cfg)

        return [(rule, functools.partial(call, rule)) for rule in self.inputs]

    def counters(self, out):
        steps = sum(len(res.step_marginals) for res in out.values())
        return {"items": steps, "channel_steps": steps}

    def check(self, out):
        checks = []
        for rule, res in out.items():
            want = self.ref[rule]
            keys_ok = set(res.step_marginals) == set(want["marginals"])
            parts = [
                (keys_ok, f"{len(res.step_marginals)} steps"),
                _within("p_suc", res.round_success, want["p_suc"], EXACT_TOL),
                _within("p_first", res.round_first_success, want["p_first"], EXACT_TOL),
                _within("F_avg", res.round_fidelity, want["f_avg"], EXACT_TOL),
                _within("total mass", res.total_mass, 1.0, EXACT_TOL),
                _within("first-step closed form", res.step_marginals[(0, 0, 0)], self.first, EXACT_TOL),
            ]
            if keys_ok:
                parts.append(_within(
                    "step marginals",
                    [res.step_marginals[k] for k in sorted(want["marginals"])],
                    [want["marginals"][k] for k in sorted(want["marginals"])], EXACT_TOL))
            checks.append(Check(f"channel.{rule}", *_all(parts)))
        return checks


def binomial_pull(count: int, n: int, p: float) -> float:
    """Signed normal deviate of the exact two-sided binomial tail of ``count``."""
    p = min(max(p, 0.0), 1.0)
    low = float(bdtr(count, n, p))                              # P(X <= count)
    high = 1.0 if count == 0 else float(bdtrc(count - 1, n, p))  # P(X >= count)
    tail = min(low, high)
    if tail >= 0.5:
        return 0.0
    z = math.inf if tail <= 0.0 else -float(ndtri(tail))
    return z if high < low else -z


def trajectory_sums(res) -> dict:
    """Per-trajectory sums behind a ``MonteCarloResult``; sums of two results pool them."""
    n = res.n_trajectories
    f = res.round_fidelity
    return {"n": n, "p_suc": res.round_success * n, "p_first": res.round_first_success * n,
            "marginals": res.first_marginals * n, "f": f * n,
            "f_sq": (n * res.round_fidelity_se**2 + f**2) * n}


def monte_carlo_pulls(sums, want, n_atoms: int):
    """(label, pull) of every sampled statistic in ``trajectory_sums`` against the exact reference."""
    n = sums["n"]
    pulls = []
    for r in range(len(want["p_suc"])):
        for label in ("p_suc", "p_first"):
            pulls.append((f"{label}[r{r + 1}]",
                          binomial_pull(int(round(sums[label][r])), n, want[label][r])))
        f_avg = sums["f"][r] / n
        se = math.sqrt(max(sums["f_sq"][r] / n - f_avg**2, 0.0) / n)
        pulls.append((f"F_avg[r{r + 1}]",
                      (f_avg - want["f_avg"][r]) / se if se > 0 else math.inf))
        for delta in range(n_atoms + 1):
            pulls.append((f"p(Delta={delta})[r{r + 1}]",
                          binomial_pull(int(round(sums["marginals"][r, delta])), n,
                                        want["marginals"][(r, 0, 0)][delta])))
    return pulls


class MonteCarlo:
    """``monte_carlo_estimates`` at N=10, L=25, 3 rounds, split, seeded rounds.

    Rounds are short, so that the median round time rests on many rounds;
    each round's check pools the trajectories of every round so far, so the
    last check of a run has the power of all of them.
    """

    name = "monte-carlo"

    def __init__(self, built, seed, out_dir):
        self.inputs = built
        self.seed = seed
        self.pooled = None
        self.ref = ref.channel(ref.x_polarized(inputs.N_ATOMS), inputs.ROUNDS, inputs.REPEATS, "split")

    def ops(self, idx, tracer):
        def call():
            b = self.inputs
            with tracer.span("analysis.monte_carlo_estimates"):
                return qndprep.analysis.monte_carlo_estimates(
                    b["trajectories"], b["initial"], b["config"], inputs.round_rng(self.seed, idx))

        return [("mc", call)]

    def counters(self, out):
        return {"items": out["mc"].n_trajectories, "trajectories": out["mc"].n_trajectories}

    def check(self, out):
        out = out["mc"]
        sums = trajectory_sums(out)
        self.pooled = sums if self.pooled is None else {
            k: self.pooled[k] + v for k, v in sums.items()}
        pulls = monte_carlo_pulls(self.pooled, self.ref, inputs.N_ATOMS)
        worst = max(pulls, key=lambda lp: abs(lp[1]))
        ok = all(abs(p) <= PULL_BOUND for _, p in pulls) and out.n_trajectories == self.inputs["trajectories"]
        return [Check("monte-carlo", ok,
                      f"seed {self.seed}: {self.pooled['n']} trajectories pooled, {len(pulls)} "
                      f"pulls, worst {worst[0]} {worst[1]:+.2f} (bound {PULL_BOUND})")]


class PathTree:
    """``enumerate_tree`` at N=10, L=2, 1 round, prune 1e-10; then the MMES input."""

    name = "path-tree"

    def __init__(self, built, seed, out_dir):
        self.inputs = built
        cfg = built["config"]
        self.ref = ref.channel(ref.x_polarized(cfg.n_atoms), cfg.max_rounds, cfg.max_repeats,
                               cfg.sign_rule)
        self.first = ref.first_step_marginal(cfg.n_atoms)

    def ops(self, idx, tracer):
        def call(key):
            with tracer.span("analysis.enumerate_tree"):
                return qndprep.analysis.enumerate_tree(self.inputs[key], self.inputs["config"])

        return [(key, functools.partial(call, key)) for key in ("x", "mmes")]

    def counters(self, out):
        terminals = len(out["x"].terminals)
        return {"items": terminals, "tree_terminals": terminals}

    def check(self, out):
        x, mmes = out["x"], out["mmes"]
        tol = x.pruned_mass + EXACT_TOL
        want = self.ref
        keys_ok = set(x.step_marginals) == set(want["marginals"])
        parts = [
            (not x.node_cap_hit and x.unexplored_mass == 0.0,
             f"node cap hit {x.node_cap_hit}, unexplored mass {x.unexplored_mass:.1e}"),
            _within("accounted mass", x.accounted_mass(), 1.0, EXACT_TOL),
            _within("p_suc", x.round_success, want["p_suc"], tol),
            _within("p_first", x.round_first_success, want["p_first"], tol),
            _within("F_avg", x.round_fidelity, want["f_avg"], tol),
            _within("first-step closed form", x.step_marginals[(0, 0, 0)], self.first, EXACT_TOL),
            (keys_ok, f"{len(x.step_marginals)} steps"),
        ]
        if keys_ok:
            parts.append(_within(
                "step marginals",
                [x.step_marginals[k] for k in sorted(want["marginals"])],
                [want["marginals"][k] for k in sorted(want["marginals"])], tol))
        ok, detail = _all(parts)
        detail += f"; pruned mass {x.pruned_mass:.2e}, {len(x.terminals)} terminals"
        mmes_ok, mmes_detail = _all([
            _within("MMES F_avg", mmes.round_fidelity, 1.0, EXACT_TOL),
            _within("MMES p_first", mmes.round_first_success, 1.0, EXACT_TOL),
            _within("MMES accounted mass", mmes.accounted_mass(), 1.0, EXACT_TOL),
        ])
        return [Check("tree.x-polarized", ok, detail), Check("tree.mmes", mmes_ok, mmes_detail)]


# ------------------------------------------------------------------ figures


def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


MATRIX_RTOL, MATRIX_ATOL = 1e-9, 1e-12
GRID_TOL = 1e-12


def _fig4_panels():
    """The documented fig4 operator strings: (kind, delta, sign, basis)."""
    p0z, p1z, p0x, p2x = ("P", 0, 1, "z"), ("P", 1, -1, "z"), ("P", 0, 1, "x"), ("P", 2, 1, "x")
    c1z, c2x = ("C", 1, 0, "z"), ("C", 2, 0, "x")
    return {
        "a": (p0z,), "b": (p1z,), "c": (p1z, c1z), "d": (p1z, c1z, p0z),
        "e": (p0z, p0x), "f": (p0z, p2x), "g": (p0z, p2x, c2x), "h": (p0z, p2x, c2x, p0x),
    }


class Figures:
    """``cli.main(["figures", ...])`` for fig3a-fig4, then the POVM series."""

    name = "figures"

    def __init__(self, built, seed, out_dir):
        self.inputs = built
        self.out_dir = out_dir
        n = inputs.N_ATOMS
        psi = ref.x_polarized(n)
        # fig3c/fig3d: correction fidelity of each movable band branch vs angle
        self.thetas_c = np.linspace(0.0, np.pi, 401)
        rots = [ref.rotation(-t, n) for t in self.thetas_c]
        self.sweep = {}
        for delta in range(n + 1):
            sign = 1 if delta == 0 else (-1) ** delta
            proj = ref.project(psi, delta, sign, "z")
            norm_sq = float(np.sum(np.abs(proj) ** 2))
            if norm_sq > 0:
                self.sweep[delta] = np.array(
                    [abs(np.trace(r @ proj)) ** 2 / (n + 1) / norm_sq for r in rots])
        self.grids = {}
        for panel, ops in _fig4_panels().items():
            state = psi
            for kind, delta, sign, basis in ops:
                state = (ref.project(state, delta, sign, basis) if kind == "P"
                         else ref.correct(state, delta, basis))
            self.grids[panel] = (ops[-1][3], ref.probability_grid(state, ops[-1][3]))
        psi_povm = ref.x_polarized(inputs.POVM_N)
        self.povm_ref = [ref.povm_discrepancy(psi_povm, p.alpha, p.tau) for p in built["povm"]]

    def ops(self, idx, tracer):
        self.round_dir = os.path.join(self.out_dir, f"round{idx}")

        def figure(fig):
            with tracer.span(f"cli.{fig}"):
                return qndprep.cli.main(
                    ["figures", "--figure", fig, "--out-dir", os.path.join(self.round_dir, fig)])

        def povm(params):
            with tracer.span(f"measurement.povm_projector_discrepancy.a{params.alpha:.0f}"):
                return qndprep.measurement.povm_projector_discrepancy(
                    self.inputs["povm_state"], params)

        return ([(fig, functools.partial(figure, fig)) for fig in self.inputs["figures"]]
                + [(f"povm.alpha{p.alpha:.0f}", functools.partial(povm, p))
                   for p in self.inputs["povm"]])

    def counters(self, out):
        rows = size = 0
        for root, _, files in os.walk(self.round_dir):
            for f in files:
                path = os.path.join(root, f)
                size += os.path.getsize(path)
                if f.endswith(".csv"):
                    with open(path) as fh:
                        rows += sum(1 for _ in fh) - 1  # less the header
        return {"items": len(out), "rows_written": rows, "bytes_written": size}

    def check(self, out):
        d = self.round_dir
        checks = [Check(f"cli.{fig}", *(
            (False, f"exit code {out[fig]}") if out[fig] != 0 else getattr(self, "_check_" + fig)(
                os.path.join(d, fig))))
            for fig in self.inputs["figures"]]
        shutil.rmtree(d, ignore_errors=True)
        povm = [out[f"povm.alpha{p.alpha:.0f}"] for p in self.inputs["povm"]]
        for i, (params, got, want) in enumerate(zip(self.inputs["povm"], povm, self.povm_ref)):
            falls = i == 0 or got < povm[i - 1]
            err = abs(got - want)
            ok = falls and err <= POVM_RTOL * want
            # the known fault: the true distance is below the floor and the program reads at it
            at_floor = not ok and falls and want < POVM_FLOOR and got <= POVM_FLOOR
            checks.append(Check(f"povm.alpha{params.alpha:.0f}", ok,
                                f"alpha={params.alpha:.0f}: program {got:.4e}, cancellation-free "
                                f"{want:.4e} (rtol {POVM_RTOL:.0e}), falls with alpha {falls}",
                                POVM_FLOOR_FAULT if at_floor else None))
        return checks

    def _matrix_column(self, path, k):
        """fig3a/fig3b: column k of exp(+i S^y theta/2) at N=150 on a 301-point grid.

        The CSV prints theta to 1e-8, which moves N=150 elements by up to
        ~1e-7 relative; rows are compared at the exact grid angle instead,
        after checking that the printed angle rounds to it.
        """
        n = 150
        # parsed straight into one float array: the largest CSV (45 451 rows)
        # then takes 1 MB, so the check adds little to the run's peak RSS
        rows = np.loadtxt(os.path.join(path, f"{'fig3a' if k == 0 else 'fig3b'}_matrix_elements.csv"),
                          delimiter=",", skiprows=1, ndmin=2)
        thetas, which = np.unique(rows[:, 1], return_inverse=True)
        grid = np.linspace(0.0, np.pi, 301)
        ok = thetas.size == grid.size and len(rows) == grid.size * (n + 1 - k)
        worst = 0.0
        for i, (theta_exact, theta) in enumerate(zip(grid, thetas)):
            want = ref.rotation_columns(theta_exact, n)[k]
            got = np.full(len(want), np.nan)
            sel = rows[which == i]
            deltas = sel[:, 0].astype(int)
            if (abs(theta - theta_exact) > 1e-8 or len(sel) != len(want)
                    or np.any((deltas < 0) | (deltas >= len(want)))):
                ok = False
                continue
            got[deltas] = sel[:, 2]
            if not np.all(np.isfinite(got)):
                ok = False
                continue
            worst = max(worst, float(np.max(np.abs(got - want) - MATRIX_RTOL * want)))
        ok = ok and worst <= MATRIX_ATOL
        return ok, (f"{len(rows)} rows, max excess over rtol {MATRIX_RTOL:.0e}: {worst:.1e} "
                    f"(atol {MATRIX_ATOL:.0e})")

    def _check_fig3a(self, path):
        return self._matrix_column(path, 0)

    def _check_fig3b(self, path):
        return self._matrix_column(path, 1)

    def _check_fig3c(self, path):
        _, rows = _read_rows(os.path.join(path, "fig3c_fidelity_sweep.csv"))
        got = defaultdict(list)
        for delta, theta, fid in rows:
            got[int(delta)].append(float(fid))
        ok = sorted(got) == sorted(self.sweep)
        worst = 0.0
        for delta, want in self.sweep.items():
            g = np.array(got.get(delta, []))
            if g.shape != want.shape:
                ok = False
                continue
            worst = max(worst, float(np.max(np.abs(g - want) - MATRIX_RTOL * want)))
        return ok and worst <= MATRIX_ATOL, f"{len(rows)} rows, max excess {worst:.1e}"

    def _check_fig3d(self, path):
        _, rows = _read_rows(os.path.join(path, "fig3d_optimal_angles.csv"))
        if sorted(int(r[0]) for r in rows) != sorted(self.sweep):
            return False, f"deltas {[r[0] for r in rows]} differ from {sorted(self.sweep)}"
        worst = 0.0
        n = inputs.N_ATOMS
        for delta, theta_max, theta_line, fid in rows:
            want = self.sweep[int(delta)]
            i = int(np.argmin(np.abs(self.thetas_c - float(theta_max))))
            worst = max(worst, abs(float(theta_line) - math.pi * int(delta) / n),
                        float(want.max() - want[i]), abs(float(fid) - want.max()))
        return worst <= 1e-8, f"{len(rows)} angles, max deviation {worst:.1e} (tol 1e-08)"

    def _check_fig4(self, path):
        _, rows = _read_rows(os.path.join(path, "fig4_fock_grids.csv"))
        got = defaultdict(dict)
        frames = {}
        for panel, frame, k1, k2, p in rows:
            got[panel][(int(k1), int(k2))] = float(p)
            frames[panel] = frame
        worst = mass_dev = 0.0
        ok = sorted(got) == sorted(self.grids)
        for panel, (frame, grid) in self.grids.items():
            g = got.get(panel, {})
            if frames.get(panel) != frame or len(g) != grid.size:
                ok = False
                continue
            arr = np.array([[g[(i, j)] for j in range(grid.shape[1])] for i in range(grid.shape[0])])
            worst = max(worst, float(np.max(np.abs(arr - grid))))
            mass_dev = max(mass_dev, abs(arr.sum() - grid.sum()))
        return (ok and worst <= GRID_TOL and mass_dev <= GRID_TOL,
                f"8 panels, max cell diff {worst:.1e}, max panel-mass diff {mass_dev:.1e}")


WORKLOADS = {cls.name: cls for cls in (ExactChannel, MonteCarlo, PathTree, Figures)}
