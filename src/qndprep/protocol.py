"""Adaptive repeat-until-success preparation of the maximally entangled state.

One round applies a repeat-until-success measurement sequence in the z basis
and then in the x basis: measure the band offset Delta, and while Delta != 0
rotate ensemble 1 by the adaptive angle and measure again.  Rounds repeat up
to a configured maximum; convergence is declared on the first round whose
sequences both open with Delta = 0.

``repeat_until_success`` is the sampler's step kernel.  It changes to the
measurement frame once per sequence and stays there: each step takes every
branch mass from the ``measurement.branch_masks`` stack (the one the exact
tree expands) in one reduction, draws the branch with one uniform number on
the normalized CDF, as ``Generator.choice`` does, keeps the chosen child
divided by sqrt(mass) and applies R[Delta] = exp(+i S^y theta/2) to ensemble
1.  The state changes back to the lab frame once, at the end.  A seed gives
the outcomes that ``sample_outcome`` followed by ``apply_correction`` gives.

``correction_stack`` builds R[Delta] once per (N, angle rule) for the
sampler and both exact engines in ``analysis``; only the state-dependent
``optimized`` rule builds a rotation per child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .fock import FockBasis, TwoModeState, _sy_rotated_diagonals, rotation_matrix
from .measurement import (
    BasisSpec,
    MeasurementRecord,
    ProjectorSpec,
    SignRule,
    basis_unitary,
    branch_masks,
    from_measurement_frame,
    sample_outcome,  # noqa: F401  perfbench/tracing.py wraps this binding
    to_measurement_frame,
)

__all__ = [
    "ProtocolConfig",
    "SubSequenceRecord",
    "SequenceRecord",
    "adaptive_angle",
    "optimized_angle",
    "resolve_angle",
    "correction_stack",
    "apply_correction",
    "repeat_until_success",
    "run_protocol",
]

AngleRule = Union[str, Callable[[int, int], float]]


def adaptive_angle(delta: int, n_atoms: int) -> float:
    """Default correction angle pi * Delta / N for the S^y rotation."""
    if not 0 <= delta <= n_atoms:
        raise ValueError(f"delta must lie in [0, {n_atoms}], got {delta}")
    return np.pi * delta / n_atoms


def optimized_angle(
    delta: int,
    n_atoms: int,
    state: Optional[TwoModeState] = None,
    basis: BasisSpec = "z",
) -> float:
    """Angle that maximizes the next-step Delta=0 probability for ``state``.

    Falls back to the linear rule when no state is supplied.  Used for
    comparison experiments; the linear rule is the protocol default.

    All 241 grid angles in [0, pi] are scored in one pass from the diagonal
    of exp(+i S^y theta/2) psi (``fock._sy_rotated_diagonals``), with no
    rotation matrix built.  The first grid angle with the largest Delta=0
    mass wins.
    """
    if delta == 0:
        return 0.0
    if state is None:
        return adaptive_angle(delta, n_atoms)
    thetas = np.linspace(0.0, np.pi, 241)
    framed = to_measurement_frame(state, basis).amplitudes
    diag = _sy_rotated_diagonals(thetas, framed)
    p0 = np.sum(diag.real**2 + diag.imag**2, axis=1)
    return float(thetas[np.argmax(p0)])


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs of one protocol run.

    ``tau`` and ``alpha`` describe the optical probe; they matter for the
    exact-POVM experiments and are recorded in manifests, while the
    protocol itself operates at the projective (band-measurement) level.
    """

    n_atoms: int
    alpha: float = 100.0
    tau: Optional[float] = None
    max_repeats: int = 25
    max_rounds: int = 3
    basis_order: Tuple[BasisSpec, ...] = ("z", "x")
    angle_rule: AngleRule = "line"
    seed: Optional[int] = None
    sign_rule: SignRule = "split"
    prune_threshold: float = 1e-10
    node_cap: int = 2_000_000

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be at least 1")
        if self.max_repeats < 1 or self.max_rounds < 1:
            raise ValueError("max_repeats and max_rounds must be at least 1")
        if self.prune_threshold < 0:
            raise ValueError("prune_threshold must be non-negative")
        if self.node_cap < 1:
            raise ValueError("node_cap must be at least 1")
        if not self.basis_order:
            raise ValueError("basis_order must name at least one basis")
        if self.tau is None:
            object.__setattr__(self, "tau", np.pi / (2 * self.n_atoms))

    @property
    def basis(self) -> FockBasis:
        return FockBasis(self.n_atoms)


def resolve_angle(
    rule: AngleRule,
    delta: int,
    n_atoms: int,
    state: Optional[TwoModeState] = None,
    basis: BasisSpec = "z",
) -> float:
    if callable(rule):
        return float(rule(delta, n_atoms))
    if rule == "line":
        return adaptive_angle(delta, n_atoms)
    if rule == "optimized":
        return optimized_angle(delta, n_atoms, state, basis)
    raise ValueError(f"unknown angle rule {rule!r}")


@lru_cache(maxsize=16)
def correction_stack(n_atoms: int, angle_rule: AngleRule) -> np.ndarray:
    """Read-only (N+1, d, d) stack of R[Delta] = exp(+i S^y theta/2), cached.

    theta = ``resolve_angle(angle_rule, Delta, N)`` with no state, so an
    unknown rule raises and ``optimized`` gives the line rule.  Row Delta is
    the exact identity at Delta = 0 and wherever theta = 0.
    """
    basis = FockBasis(n_atoms)
    stack = np.array([np.eye(basis.dim, dtype=complex)] * basis.dim)
    for delta in range(1, basis.dim):
        theta = resolve_angle(angle_rule, delta, n_atoms)
        if theta != 0.0:
            stack[delta] = rotation_matrix(-theta, basis)  # exp(+i S^y theta / 2)
    stack.setflags(write=False)
    return stack


def apply_correction(
    state: TwoModeState, delta: int, basis: BasisSpec, theta: Optional[float] = None
) -> TwoModeState:
    """Corrective unitary exp(+i S^y_1 theta/2) in the measurement frame.

    Acts on ensemble 1 only; in a rotated basis the rotation is conjugated
    by the same frame unitary as the measurement that produced Delta.
    """
    if theta is None:
        theta = adaptive_angle(delta, state.n_atoms)
    if theta == 0.0:
        return state
    rot = rotation_matrix(-theta, state.basis)  # exp(+i S^y theta / 2)
    framed = to_measurement_frame(state, basis)
    corrected = TwoModeState(state.basis, rot @ framed.amplitudes)
    return from_measurement_frame(corrected, basis)


@dataclass
class SubSequenceRecord:
    """One repeat-until-success sequence in a fixed basis."""

    basis: BasisSpec
    records: List[MeasurementRecord] = field(default_factory=list)
    capped: bool = False

    @property
    def first_delta(self) -> int:
        return self.records[0].spec.delta

    @property
    def deltas(self) -> Tuple[int, ...]:
        return tuple(rec.spec.delta for rec in self.records)

    @property
    def probability(self) -> float:
        p = 1.0
        for rec in self.records:
            p *= rec.born_probability
        return p


@dataclass
class SequenceRecord:
    """Full trajectory of a protocol run."""

    config: ProtocolConfig
    rounds: List[List[SubSequenceRecord]]
    terminal_state: TwoModeState
    round_fidelities: List[float]
    converged_at: Optional[int]

    @property
    def probability(self) -> float:
        p = 1.0
        for rnd in self.rounds:
            for sub in rnd:
                p *= sub.probability
        return p

    @property
    def any_capped(self) -> bool:
        return any(sub.capped for rnd in self.rounds for sub in rnd)


def repeat_until_success(
    state: TwoModeState,
    basis: BasisSpec,
    config: ProtocolConfig,
    rng: np.random.Generator,
) -> Tuple[TwoModeState, SubSequenceRecord]:
    """Measure and correct in one basis until Delta = 0 (or the repeat cap).

    Runs in the measurement frame of ``basis`` from the first measurement to
    the last correction (see the module docstring).  The returned state is
    normalized.  Hitting the cap is flagged, not an error; the last
    correction is still applied so the state stays usable.
    """
    fock_basis = state.basis
    branches, masks = branch_masks(config.n_atoms, config.sign_rule)
    weights = (masks * masks).reshape(len(masks), -1)
    rots = correction_stack(config.n_atoms, config.angle_rule)
    state_dependent_angle = config.angle_rule == "optimized"
    u = basis_unitary(basis, fock_basis)
    framed = state.amplitudes
    if u is not None:
        uh = u.conj().T
        framed = uh @ framed @ uh.T
    sub = SubSequenceRecord(basis=basis)
    for _ in range(config.max_repeats):
        masses = weights @ (framed.real**2 + framed.imag**2).ravel()
        total = masses.sum()
        if not abs(total - 1.0) <= 1e-8 + 1e-5:  # np.isclose(total, 1, atol=1e-8)
            raise ValueError(f"outcome probabilities sum to {total}, expected 1")
        # the draw Generator.choice(len(masses), p=masses / total) makes
        cdf = (masses / total).cumsum()
        cdf /= cdf[-1]
        i = int(cdf.searchsorted(rng.random(), side="right"))
        delta, sign = branches[i]
        sub.records.append(
            MeasurementRecord(ProjectorSpec(delta, sign, basis), float(masses[i]))
        )
        framed = masks[i] * framed / math.sqrt(masses[i])
        if delta == 0:
            break
        if state_dependent_angle:
            theta = optimized_angle(delta, config.n_atoms, TwoModeState(fock_basis, framed))
            if theta != 0.0:  # exp(+i S^y theta / 2) on ensemble 1
                framed = rotation_matrix(-theta, fock_basis) @ framed
        else:
            framed = rots[delta] @ framed
    else:
        sub.capped = True
    if u is not None:
        framed = u @ framed @ u.T
    return TwoModeState(fock_basis, framed), sub


def run_protocol(
    initial: TwoModeState,
    config: ProtocolConfig,
    rng: Optional[np.random.Generator] = None,
) -> SequenceRecord:
    """Alternate basis sequences for up to max_rounds rounds.

    Non-convergence within the round budget is a flagged outcome carried in
    ``converged_at = None``, not an error.  Each round's fidelity to the MMES
    is |<MMES|psi>|^2 = |tr psi|^2 / (N+1), as in the exact engines.
    """
    if initial.n_atoms != config.n_atoms:
        raise ValueError("initial state and config disagree on n_atoms")
    if not initial.is_normalized(tol=1e-9):
        raise ValueError("initial state must be normalized")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    d = initial.basis.dim
    current = initial
    rounds: List[List[SubSequenceRecord]] = []
    round_fidelities: List[float] = []
    converged_at: Optional[int] = None
    for r in range(config.max_rounds):
        round_subs: List[SubSequenceRecord] = []
        for basis in config.basis_order:
            current, sub = repeat_until_success(current, basis, config, rng)
            round_subs.append(sub)
        rounds.append(round_subs)
        round_fidelities.append(abs(np.trace(current.amplitudes)) ** 2 / d)
        if converged_at is None and all(
            sub.first_delta == 0 for sub in round_subs
        ):
            converged_at = r + 1
    return SequenceRecord(
        config=config,
        rounds=rounds,
        terminal_state=current,
        round_fidelities=round_fidelities,
        converged_at=converged_at,
    )
