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
    """Coherent probe parameters for the exact POVM.

    ``cutoff`` truncates the photon-count sums; the default keeps the
    neglected Poisson tail below 1e-12 (mean + 10 sqrt(mean)).
    """

    alpha: float
    tau: float
    cutoff: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.cutoff <= 0:
            mean = self.alpha**2
            object.__setattr__(
                self, "cutoff", int(math.ceil(mean + 10.0 * math.sqrt(mean))) + 10
            )


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


def _band_project_z(amps: np.ndarray, delta: int, sign: int) -> np.ndarray:
    """Apply Pi_Delta in the frame where the measurement is diagonal.

    Keeps the k2 = k1 + Delta band as-is and the k2 = k1 - Delta band with
    the branch sign; for Delta = 0 the two coincide and the operator is the
    plain diagonal projector.
    """
    out = np.zeros_like(amps)
    d = amps.shape[0]
    if delta == 0:
        idx = np.arange(d)
        out[idx, idx] = amps[idx, idx]
        return out
    k = np.arange(d - delta)
    out[k, k + delta] = amps[k, k + delta]
    out[k + delta, k] = sign * amps[k + delta, k]
    return out


@lru_cache(maxsize=None)
def branch_masks(
    n_atoms: int, sign_rule: SignRule = "split"
) -> Tuple[Tuple[Tuple[int, int], ...], np.ndarray]:
    """Every (Delta, sign) outcome of one band measurement, with its mask.

    Outcomes come in the order of ``outcome_probabilities``: Delta = 0, then
    each Delta != 0 with + before -.  ``masks[i]`` is that outcome's Pi_Delta
    in the measurement frame as an elementwise (d, d) mask on psi[k1, k2]:
    the k2 - k1 = +Delta band as-is, the -Delta band with the branch sign,
    both times sqrt of the sign weight (1/2 under ``split``), so that
    sum |masks[i] * psi|^2 is the outcome's Born probability.  Cached per
    (N, sign rule); the stack is read-only.
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
    framed = to_measurement_frame(state, spec.basis)
    projected = TwoModeState(
        state.basis, _band_project_z(framed.amplitudes, spec.delta, spec.branch_sign)
    )
    return from_measurement_frame(projected, spec.basis)


def outcome_probabilities(
    state: TwoModeState, basis: BasisSpec, sign_rule: SignRule = "split"
) -> List[Tuple[ProjectorSpec, float]]:
    """Born probabilities for every (Delta, sign) outcome in one basis.

    Under the default ``split`` rule the two sign branches of each Delta != 0
    outcome are distinct outcomes with equal photonic parity weight; the
    ``plus``/``minus`` rules pin the sign deterministically (conventions for
    robustness checks).
    """
    framed = to_measurement_frame(state, basis)
    masses = _band_masses(framed.amplitudes)
    outcomes: List[Tuple[ProjectorSpec, float]] = [
        (ProjectorSpec(0, +1, basis), float(masses[0]))
    ]
    for delta in range(1, state.basis.dim):
        p = float(masses[delta])
        if sign_rule == "split":
            outcomes.append((ProjectorSpec(delta, +1, basis), 0.5 * p))
            outcomes.append((ProjectorSpec(delta, -1, basis), 0.5 * p))
        elif sign_rule == "plus":
            outcomes.append((ProjectorSpec(delta, +1, basis), p))
        elif sign_rule == "minus":
            outcomes.append((ProjectorSpec(delta, -1, basis), p))
        else:
            raise ValueError(f"unknown sign rule {sign_rule!r}")
    return outcomes


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


def _infer_delta(n_c_arr: np.ndarray, n_d_arr: np.ndarray, tau: float, n_atoms: int) -> np.ndarray:
    """Most likely band offset from the Gaussian-peak relation."""
    n_tot = n_c_arr + n_d_arr
    ratio = np.where(n_tot > 0, n_d_arr / np.maximum(n_tot, 1), 0.0)
    candidates = np.sin(np.arange(n_atoms + 1) * tau) ** 2
    return np.argmin(np.abs(ratio[:, None] - candidates[None, :]), axis=1)


def povm_projector_discrepancy(
    state: TwoModeState, params: PovmParams, window_sigmas: float = 10.0
) -> float:
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
    """
    n = state.n_atoms
    bands = np.arange(-n, n + 1)
    prob = np.abs(state.amplitudes) ** 2
    w_band = np.array([np.trace(prob, offset=-b) for b in bands])

    mean = params.alpha**2
    half_window = window_sigmas * math.sqrt(mean)
    lo = max(0, int(mean - half_window))
    hi = int(math.ceil(mean + half_window))

    num = 0.0
    den = 0.0
    for n_tot in range(lo, hi + 1):
        n_d = np.arange(n_tot + 1)
        c = modulating_amplitude(
            (n_tot - n_d)[:, None], n_d[:, None], bands * params.tau, params
        )
        weighted = w_band * c**2
        p = weighted.sum(axis=1)
        delta = _infer_delta(n_tot - n_d, n_d, params.tau, n)
        sign = np.where(n_d % 2 == 0, 1.0, -1.0)
        j = np.arange(n_tot + 1)
        # factors of u on v's bands -Delta and +Delta (weight 0 when Delta = 0)
        x1, x2 = c[j, n - delta], c[j, n + delta]
        w1, w2 = w_band[n - delta], np.where(delta > 0, w_band[n + delta], 0.0)
        on_v = (bands == -delta[:, None]) | (bands == delta[:, None])
        keep = (p > 1e-30) & (w1 + w2 > 0.0)
        p, w_v = p[keep], (w1 + w2)[keep]
        o = np.where(on_v, 0.0, weighted).sum(axis=1)[keep] / p
        r = (w1 * w2 * (x2 - sign * x1) ** 2)[keep] / (w_v * p)
        a = np.abs(w1 * x1 + sign * w2 * x2)[keep] / np.sqrt(w_v * p)
        dist = np.sqrt(o + r + ((o + r) / (1.0 + a)) ** 2)
        num += float(p @ dist)
        den += float(p.sum())
    if den == 0.0:
        raise ValueError("no photon outcomes above threshold in the window")
    return num / den
