"""Photonic QND measurement layer.

Two descriptions of the same interferometric measurement live here:

* the exact POVM, whose elements modulate each Fock amplitude by a
  coherent-light factor C(n_c, n_d; chi) depending on the photon counts
  at the two detectors, and
* the idealized band operators Pi_Delta obtained in the projective limit
  tau = pi/(2N), |alpha*tau|^2 >> 1, which keep the amplitudes on the two
  bands |k1 - k2| = Delta with a relative sign (-1)^n_d set by the parity
  of the dark-port count n_d.

n_d is a recorded detector outcome (``povm_projector_discrepancy`` reads the
sign from it), but the protocol layer does not condition its correction on
n_d: the branch sign is drawn or pinned by the protocol's ``sign_rule`` and
the same correction follows either branch.

Born-rule outcome probabilities and sampling are built on the band
operators; the POVM is retained for validating the projective limit.
``branch_masks`` is the one place Pi_Delta is built and a sign rule is
decoded: ``projector_apply``, ``outcome_probabilities`` and every engine in
``protocol`` and ``analysis`` read its cached mask stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Literal, Tuple, Union

import numpy as np

from .fock import FockBasis, RotationSpec, TwoModeState, _log_factorial, _rotation_unitary

__all__ = [
    "BasisSpec",
    "PovmParams",
    "ProjectorSpec",
    "MeasurementRecord",
    "basis_unitary",
    "branch_masks",
    "to_measurement_frame",
    "from_measurement_frame",
    "modulating_amplitude",
    "povm_apply",
    "projector_apply",
    "outcome_probabilities",
    "sample_outcome",
    "povm_projector_discrepancy",
]

# A measurement basis: "z", "x", or explicit Bloch angles (theta, phi).
BasisSpec = Union[str, Tuple[float, float]]

SignRule = Literal["split", "plus", "minus"]


@dataclass(frozen=True)
class PovmParams:
    """Coherent probe parameters for the exact POVM."""

    alpha: float
    tau: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

    @property
    def cutoff(self) -> int:
        """ceil(mean + 10 sqrt(mean)) + 10 with mean = alpha^2: a total photon
        number past which the Poisson tail is negligible, for callers that
        sum outcomes themselves.  Nothing here truncates at it;
        ``povm_projector_discrepancy`` has its own window."""
        mean = self.alpha**2
        return int(math.ceil(mean + 10.0 * math.sqrt(mean))) + 10


@dataclass(frozen=True)
class ProjectorSpec:
    """One band-measurement outcome: offset Delta, branch sign, basis."""

    delta: int
    branch_sign: int = +1
    basis: BasisSpec = "z"

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.branch_sign not in (+1, -1):
            raise ValueError("branch_sign must be +1 or -1")
        if self.delta == 0 and self.branch_sign != +1:
            raise ValueError("the Delta=0 outcome has no sign branch")


@dataclass(frozen=True)
class MeasurementRecord:
    """A sampled outcome together with its Born probability."""

    spec: ProjectorSpec
    born_probability: float


def basis_unitary(basis: BasisSpec, fock_basis: FockBasis) -> Union[np.ndarray, None]:
    """Single-ensemble unitary U with Pi^(basis) = (UxU) Pi^(z) (UxU)^dagger.

    Returns None for the z basis (identity).
    """
    if basis == "z":
        return None
    if basis == "x":
        theta, phi = np.pi / 2, 0.0
    elif isinstance(basis, tuple) and len(basis) == 2:
        theta, phi = basis
    else:
        raise ValueError(f"unknown measurement basis {basis!r}")
    return _rotation_unitary(RotationSpec(theta=theta, phi=phi), fock_basis)


def to_measurement_frame(state: TwoModeState, basis: BasisSpec) -> TwoModeState:
    """Rotate amplitudes into the frame where the measurement is diagonal."""
    u = basis_unitary(basis, state.basis)
    if u is None:
        return state
    uh = u.conj().T
    return TwoModeState(state.basis, uh @ state.amplitudes @ uh.T)


def from_measurement_frame(state: TwoModeState, basis: BasisSpec) -> TwoModeState:
    u = basis_unitary(basis, state.basis)
    if u is None:
        return state
    return TwoModeState(state.basis, u @ state.amplitudes @ u.T)


def _log_factor(n_photon, chi_trig_abs):
    """n * log|t| with the 0 * log(0) = 0 convention; -inf when t=0, n>0."""
    n_photon = np.asarray(n_photon, dtype=float)
    t = np.asarray(chi_trig_abs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = n_photon * np.log(t)
    return np.where((t == 0.0) & (n_photon == 0), 0.0, out)


def modulating_amplitude(
    n_c, n_d, chi: float, params: PovmParams
) -> Union[float, np.ndarray]:
    """Coherent-light amplitude factor for photon counts (n_c, n_d).

    Equals alpha^(n_c+n_d) e^(-|alpha|^2/2) cos^n_c(chi) sin^n_d(chi)
    / sqrt(n_c! n_d!), evaluated as log-magnitude plus sign so large photon
    numbers neither overflow nor underflow.  Broadcasts over n_c, n_d, chi.
    """
    n_c = np.asarray(n_c)
    n_d = np.asarray(n_d)
    if np.any(n_c < 0) or np.any(n_d < 0):
        raise ValueError("photon counts must be non-negative")
    c, s = np.cos(chi), np.sin(chi)
    n_tot = (n_c + n_d).astype(float)
    if params.alpha > 0.0:
        log_alpha_part = n_tot * np.log(params.alpha)
    else:
        log_alpha_part = np.where(n_tot == 0, 0.0, -np.inf)
    log_mag = (
        log_alpha_part
        - 0.5 * params.alpha**2
        + _log_factor(n_c, abs(c))
        + _log_factor(n_d, abs(s))
        - 0.5 * (_log_factorial(n_c) + _log_factorial(n_d))
    )
    sign = np.where(c < 0, (-1.0) ** n_c, 1.0) * np.where(s < 0, (-1.0) ** n_d, 1.0)
    with np.errstate(over="ignore"):
        out = sign * np.exp(log_mag)
    if out.ndim == 0:
        return float(out)
    return out


def povm_apply(
    state: TwoModeState, n_c: int, n_d: int, params: PovmParams
) -> TwoModeState:
    """Exact post-measurement (unnormalized) state for photon counts n_c, n_d.

    Each amplitude psi(k1, k2) picks up the factor C(n_c, n_d; (k1-k2) tau);
    the squared norm of the result is the joint photon-count probability.
    """
    d = state.basis.dim
    k = np.arange(d)
    band = k[:, None] - k[None, :]  # k1 - k2
    factors = np.array(
        [
            modulating_amplitude(n_c, n_d, b * params.tau, params)
            for b in range(-(d - 1), d)
        ]
    )
    grid = factors[band + (d - 1)]
    return TwoModeState(state.basis, state.amplitudes * grid)


@lru_cache(maxsize=None)
def _abs_band_index(d: int) -> np.ndarray:
    k = np.arange(d)
    idx = np.abs(k[:, None] - k[None, :]).ravel()
    idx.setflags(write=False)
    return idx


def _band_masses(amps: np.ndarray) -> np.ndarray:
    """Probability mass on each |k1-k2| = Delta band, Delta = 0..N."""
    d = amps.shape[0]
    prob = (amps.real**2 + amps.imag**2).ravel()
    return np.bincount(_abs_band_index(d), weights=prob, minlength=d)


@lru_cache(maxsize=None)
def branch_masks(
    n_atoms: int, sign_rule: SignRule = "split"
) -> Tuple[Tuple[Tuple[int, int], ...], np.ndarray]:
    """Every (Delta, sign) outcome of one band measurement, with its mask.

    Every engine and ``outcome_probabilities`` take their outcome list and
    order from here: Delta = 0, then each Delta != 0 with + before -.
    ``masks[i]`` is that outcome's Pi_Delta in the measurement frame as
    an elementwise (d, d) mask on psi[k1, k2]: the k2 - k1 = +Delta band
    as-is, the -Delta band with the branch sign, both times sqrt of the sign
    weight (1/2 under ``split``), so that sum |masks[i] * psi|^2 is the
    outcome's Born probability.  Under ``plus``/``minus`` the weight is 1
    and ``masks[Delta]`` is Pi_Delta itself, which ``projector_apply`` uses.
    Cached per (N, sign rule); the stack is read-only.
    """
    signs = {"split": (+1, -1), "plus": (+1,), "minus": (-1,)}.get(sign_rule)
    if signs is None:
        raise ValueError(f"unknown sign rule {sign_rule!r}")
    d = n_atoms + 1
    branches = ((0, +1),) + tuple(
        (delta, sign) for delta in range(1, d) for sign in signs
    )
    offset = np.arange(d)[None, :] - np.arange(d)[:, None]  # k2 - k1
    weight = np.sqrt(1.0 / len(signs))
    masks = np.array([
        (offset == 0) * 1.0 if delta == 0
        else weight * ((offset == delta) + sign * (offset == -delta))
        for delta, sign in branches
    ])
    masks.setflags(write=False)
    return branches, masks


def projector_apply(state: TwoModeState, spec: ProjectorSpec) -> TwoModeState:
    """Unnormalized post-measurement state Pi_Delta |psi>."""
    if spec.delta > state.n_atoms:
        raise ValueError(
            f"delta={spec.delta} exceeds the band range 0..{state.n_atoms}"
        )
    _, masks = branch_masks(state.n_atoms, "plus" if spec.branch_sign > 0 else "minus")
    framed = to_measurement_frame(state, spec.basis)
    projected = TwoModeState(state.basis, masks[spec.delta] * framed.amplitudes)
    return from_measurement_frame(projected, spec.basis)


def outcome_probabilities(
    state: TwoModeState, basis: BasisSpec, sign_rule: SignRule = "split"
) -> List[Tuple[ProjectorSpec, float]]:
    """Born probabilities for every (Delta, sign) outcome in one basis.

    Under the default ``split`` rule the two sign branches of each Delta != 0
    outcome are distinct outcomes with equal photonic parity weight; the
    ``plus``/``minus`` rules pin the sign deterministically (conventions for
    robustness checks).  Outcomes, order and masses come from the
    ``branch_masks`` stack.
    """
    branches, masks = branch_masks(state.n_atoms, sign_rule)
    amps = to_measurement_frame(state, basis).amplitudes
    weights = (masks * masks).reshape(len(masks), -1)
    masses = weights @ (amps.real**2 + amps.imag**2).ravel()
    return [
        (ProjectorSpec(delta, sign, basis), p)
        for (delta, sign), p in zip(branches, masses.tolist())
    ]


def sample_outcome(
    state: TwoModeState,
    basis: BasisSpec,
    rng: np.random.Generator,
    sign_rule: SignRule = "split",
) -> Tuple[MeasurementRecord, TwoModeState]:
    """Draw one outcome by the Born rule; return it with the collapsed state."""
    outcomes = outcome_probabilities(state, basis, sign_rule)
    probs = np.array([p for _, p in outcomes])
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-8):
        raise ValueError(f"outcome probabilities sum to {total}, expected 1")
    idx = rng.choice(len(outcomes), p=probs / total)
    spec, p = outcomes[idx]
    collapsed = projector_apply(state, spec).normalized()
    return MeasurementRecord(spec, p), collapsed


# outcome rows per batch in povm_projector_discrepancy
_POVM_BATCH_ROWS = 1 << 15
# half-width of its total photon number window, in Poisson standard deviations
_POVM_WINDOW_SIGMAS = 10.0


def _infer_delta(n_c_arr: np.ndarray, n_d_arr: np.ndarray, tau: float, n_atoms: int) -> np.ndarray:
    """Most likely band offset from the Gaussian-peak relation.

    The candidate sin^2(Delta tau) nearest the dark-port fraction wins; the
    first (smallest Delta) wins a tie.
    """
    n_tot = n_c_arr + n_d_arr
    ratio = np.where(n_tot > 0, n_d_arr / np.maximum(n_tot, 1), 0.0)
    candidates = np.sin(np.arange(n_atoms + 1) * tau) ** 2
    # one candidate at a time over the long outcome axis, not an argmin over
    # the short candidate axis
    best = np.abs(ratio - candidates[0])
    delta = np.zeros(ratio.shape, dtype=np.intp)
    for m in range(1, n_atoms + 1):
        dist = np.abs(ratio - candidates[m])
        delta[dist < best] = m
        np.minimum(best, dist, out=best)
    return delta


def povm_projector_discrepancy(state: TwoModeState, params: PovmParams) -> float:
    """Probability-weighted L2 distance between exact-POVM and band collapse.

    For every photon outcome (n_c, n_d) in the truncation window, the
    post-measurement state u is compared up to global phase with
    v = projector_apply, Delta inferred from the peak relation and sign
    (-1)^n_d.  Returns sum_p p * min_phi ||u/|u| - e^{i phi} v/|v|| / sum_p p;
    this shrinks as alpha grows, verifying the projective limit.

    u and v are psi times a real factor on each band b = k1 - k2, and v
    lives on the bands b = -Delta (factor 1) and b = +Delta (the sign).  The
    squared distance is o + r + ((o + r) / (1 + a))^2: o is u's mass off
    v's bands, r its mass on them orthogonal to v, and a = |<v|u>|.  None
    is a difference of nearly equal totals, so unlike sqrt(2 - 2a), which
    floors near 1e-8, the value has no cancellation floor.

    r vanishes.  cos is even and sin odd, so C(n; -b tau) = (-1)^n_d
    C(n; b tau): on v's two bands u carries the factors x and (-1)^n_d x,
    the very ratio that v's sign (-1)^n_d sets, so u restricted to them is
    parallel to v.  Hence only q_m = C(n; m tau)^2 on the N+1 bands |b| = m
    enters, with W_m the mass of psi on b = +m and b = -m together:
    p = sum_m W_m q_m, o = sum_{m != Delta} W_m q_m / p and
    a = sqrt(W_Delta q_Delta / p).  q is evaluated as a (N+1, outcomes)
    array for a batch of outcomes across consecutive n_tot at a time.
    """
    n = state.n_atoms
    weight = _band_masses(state.amplitudes)  # W_m over |k1 - k2| = m

    mean = params.alpha**2
    half_window = _POVM_WINDOW_SIGMAS * math.sqrt(mean)
    lo = max(0, int(mean - half_window))
    hi = int(math.ceil(mean + half_window))
    chi = np.arange(n + 1) * params.tau
    cos2, sin2 = np.cos(chi)[:, None] ** 2, np.sin(chi)[:, None] ** 2

    # outcome rows list (n_tot, n_d), n_d = 0..n_tot, for n_tot = lo..hi
    n_tots = np.arange(lo, hi + 1)
    ends = np.cumsum(n_tots + 1)
    num = 0.0
    den = 0.0
    for start in range(0, int(ends[-1]), _POVM_BATCH_ROWS):
        row = np.arange(start, min(start + _POVM_BATCH_ROWS, int(ends[-1])))
        i = np.searchsorted(ends, row, side="right")
        n_tot = n_tots[i]
        n_d = row - (ends[i] - n_tot - 1)
        n_c = n_tot - n_d
        # log q = log Poisson(n_tot; alpha^2) + log Binomial(n_d; n_tot, sin^2)
        log_q = _log_factor(n_c, cos2)
        log_q += _log_factor(n_d, sin2)
        log_q += (
            _log_factor(n_tot, mean) - mean - _log_factorial(n_c) - _log_factorial(n_d)
        )
        weighted = np.exp(log_q, out=log_q)
        weighted *= weight[:, None]
        p = weighted.sum(axis=0)
        delta = _infer_delta(n_c, n_d, params.tau, n)
        cols = np.arange(row.size)
        on_v = weighted[delta, cols]
        weighted[delta, cols] = 0.0
        keep = (p > 1e-30) & (weight[delta] > 0.0)
        p = p[keep]
        o = weighted.sum(axis=0)[keep] / p
        a = np.sqrt(on_v[keep] / p)
        dist = np.sqrt(o + (o / (1.0 + a)) ** 2)
        num += float(p @ dist)
        den += float(p.sum())
    if den == 0.0:
        raise ValueError("no photon outcomes above threshold in the window")
    return num / den
