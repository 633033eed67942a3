"""Two-ensemble Fock-space states and collective spin operators.

Each ensemble of N two-level atoms is described in the symmetric (Schwinger
boson) representation: the Fock state |k> has k atoms in the excited level
and N-k in the ground level, and S^z|k> = (2k-N)|k>.  A joint state of two
ensembles is a dense (N+1)x(N+1) complex amplitude grid psi(k1, k2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, Tuple, Union

import numpy as np

__all__ = [
    "FockBasis",
    "TwoModeState",
    "RotationSpec",
    "spin_operator",
    "rotation_matrix",
    "rotation_matrix_closed_form",
    "coherent_state",
    "product_state",
    "x_polarized_state",
    "mmes_state",
    "singlet_state",
    "apply_local_rotation",
    "sbar_tot_squared_apply",
    "stot_squared_apply",
    "entanglement_entropy",
    "inner_product",
    "overlap_magnitude",
]

NORM_TOL = 1e-12

# _LOG_FACTORIAL[m] = log(m!); _log_factorial at least doubles it when a larger m arrives.
_LOG_FACTORIAL = np.zeros(1)


def _log_factorial(n) -> np.ndarray:
    """log(n!) elementwise for integer counts n >= 0 (scalar or array).

    Raises ValueError for negative, non-integral or non-finite counts.
    """
    global _LOG_FACTORIAL
    n = np.asarray(n)
    if n.dtype.kind not in "iu":
        if not np.all(np.isfinite(n) & (n == np.floor(n))):
            raise ValueError("log-factorial needs integer counts")
        n = n.astype(np.int64)
    if n.min(initial=0) < 0:
        raise ValueError("log-factorial needs non-negative counts")
    table = _LOG_FACTORIAL
    top = int(n.max(initial=0))
    if top >= table.size:
        # log of the exact integer m!: bit-equal to math.log(math.factorial(m)),
        # where the C library's lgamma behind math.lgamma can miss by a few ulp
        fact = math.factorial(table.size - 1)
        grown = []
        for m in range(table.size, max(2 * table.size, top + 1)):
            fact *= m
            grown.append(math.log(fact))
        table = np.concatenate([table, grown])
        _LOG_FACTORIAL = table
    return table[n]


@dataclass(frozen=True)
class FockBasis:
    """Symmetric two-level basis for two equal ensembles of n_atoms atoms."""

    n_atoms: int

    def __post_init__(self):
        if self.n_atoms < 0:
            raise ValueError(f"n_atoms must be non-negative, got {self.n_atoms}")

    @property
    def dim(self) -> int:
        """Single-ensemble dimension N+1."""
        return self.n_atoms + 1

    @property
    def grid_dim(self) -> int:
        """Two-ensemble dimension (N+1)^2."""
        return self.dim**2


@dataclass(frozen=True)
class TwoModeState:
    """Joint state of two ensembles as an amplitude grid psi[k1, k2].

    ``amplitudes`` may be unnormalized: after a measurement branch the squared
    norm carries the Born probability of the sequence that produced it.
    """

    basis: FockBasis
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(
                f"amplitude grid shape {amps.shape} does not match basis "
                f"dimension {self.basis.dim}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_atoms(self) -> int:
        return self.basis.n_atoms

    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.squared_norm() - 1.0) <= tol

    def normalized(self) -> "TwoModeState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return TwoModeState(self.basis, self.amplitudes / n)

    def probability_grid(self) -> np.ndarray:
        """|psi(k1,k2)|^2 grid."""
        return np.abs(self.amplitudes) ** 2


TargetSpec = Union[int, Literal["both"]]


@dataclass(frozen=True)
class RotationSpec:
    """Local rotation U(theta, phi) = exp(-i S^z phi/2) exp(-i S^y theta/2).

    ``target`` selects which ensemble the rotation acts on (1, 2 or "both").
    """

    theta: float
    phi: float = 0.0
    target: TargetSpec = "both"

    def __post_init__(self):
        if not (np.isfinite(self.theta) and np.isfinite(self.phi)):
            raise ValueError("rotation angles must be finite")
        if self.target not in (1, 2, "both"):
            raise ValueError(f"target must be 1, 2 or 'both', got {self.target!r}")


def _check_same_basis(a: TwoModeState, b: TwoModeState):
    if a.basis != b.basis:
        raise ValueError(
            f"dimension mismatch: N={a.n_atoms} vs N={b.n_atoms}"
        )


@lru_cache(maxsize=None)
def _spin_matrices(n_atoms: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense S^x, S^y, S^z for one ensemble, Pauli-like normalization."""
    d = n_atoms + 1
    k = np.arange(n_atoms)
    # <k+1| e^dagger g |k> = sqrt((k+1)(N-k))
    raise_elem = np.sqrt((k + 1.0) * (n_atoms - k))
    sp = np.zeros((d, d), dtype=complex)  # e^dagger g
    sp[k + 1, k] = raise_elem
    sx = sp + sp.conj().T
    sy = -1j * sp + 1j * sp.conj().T
    sz = np.diag(2.0 * np.arange(d) - n_atoms).astype(complex)
    for m in (sx, sy, sz):
        m.setflags(write=False)
    return sx, sy, sz


def spin_operator(label: str, basis: FockBasis) -> np.ndarray:
    """Single-ensemble collective spin matrix for label in {'x','y','z'}."""
    idx = {"x": 0, "y": 1, "z": 2, "S^x": 0, "S^y": 1, "S^z": 2}
    if label not in idx:
        raise ValueError(f"unknown spin label {label!r}")
    return _spin_matrices(basis.n_atoms)[idx[label]]


@lru_cache(maxsize=None)
def _sy_eigendecomposition(n_atoms: int):
    _, sy, _ = _spin_matrices(n_atoms)
    evals, evecs = np.linalg.eigh(sy)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def _sy_rotated_diagonals(thetas: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Diagonal of exp(+i S^y theta/2) @ amps for every theta, shape (len(thetas), d).

    With S^y = V diag(lambda) V^dagger the diagonal is
    sum_m e^{i theta lambda_m / 2} V[k, m] (V^dagger amps)[m, k]: one
    (len(thetas), d) x (d, d) matmul, with no rotation matrix built.
    """
    evals, evecs = _sy_eigendecomposition(amps.shape[0] - 1)
    phases = np.exp(0.5j * thetas[:, None] * evals)
    return phases @ (evecs.T * (evecs.conj().T @ amps))


@lru_cache(maxsize=512)
def _rotation_matrix_cached(theta: float, n_atoms: int) -> np.ndarray:
    evals, evecs = _sy_eigendecomposition(n_atoms)
    phases = np.exp(-0.5j * theta * evals)
    out = (evecs * phases) @ evecs.conj().T
    out.setflags(write=False)
    return out


def rotation_matrix(theta: float, basis: FockBasis) -> np.ndarray:
    """Single-ensemble unitary exp(-i S^y theta/2).

    Built from the eigendecomposition of S^y, which stays unitary and
    accurate for any ensemble size (used up to N = 150 for the matrix
    element ridge plots).  Results are cached per (theta, N) since the
    protocol reuses the same few correction angles; the returned array is
    read-only.
    """
    return _rotation_matrix_cached(float(theta), basis.n_atoms)


def rotation_matrix_closed_form(theta: float, basis: FockBasis) -> np.ndarray:
    """exp(-i S^y theta/2) from the closed-form matrix element sum.

    Matrix elements <k'|exp(-i S^y theta/2)|k> are the Wigner small-d
    elements for spin j = N/2 rotated by theta.  Factorials are handled in
    log space; terms of the alternating sum are accumulated in linear space,
    so this route is accurate for moderate N (validated against dense
    exponentiation for N <= 20) but not used at large N.
    """
    n = basis.n_atoms
    d = n + 1
    half = 0.5 * theta
    c, s = np.cos(half), np.sin(half)
    lg = _log_factorial(np.arange(d + 1))  # lg[m] = log(m!)

    # Exact limits avoid 0*log(0) bookkeeping below.
    if abs(s) < 1e-300:
        out = np.eye(d, dtype=complex)
        if c < 0:  # theta = 2*pi branch: global phase (-1)^N per mode pair
            out *= float((-1) ** n)
        return out
    if abs(c) < 1e-300:
        out = np.zeros((d, d), dtype=complex)
        k = np.arange(d)
        out[n - k, k] = np.sign(s) ** n * (-1.0) ** (n - k)
        return out

    log_c, log_s = np.log(abs(c)), np.log(abs(s))
    sign_c, sign_s = np.sign(c), np.sign(s)
    out = np.zeros((d, d), dtype=complex)
    for kp in range(d):
        for k in range(d):
            pref = 0.5 * (lg[k] + lg[n - k] + lg[kp] + lg[n - kp])
            total = 0.0
            for m in range(max(0, k - kp), min(k, n - kp) + 1):
                pc = n + k - kp - 2 * m  # cos exponent
                ps = kp - k + 2 * m  # sin exponent
                log_term = (
                    pref
                    - (lg[k - m] + lg[m] + lg[kp - k + m] + lg[n - kp - m])
                    + pc * log_c
                    + ps * log_s
                )
                sign = (-1.0) ** (kp - k + m) * sign_c**pc * sign_s**ps
                total += sign * np.exp(log_term)
            out[kp, k] = total
    return out


def coherent_state(theta: float, phi: float, basis: FockBasis) -> np.ndarray:
    """Single-ensemble spin coherent state amplitude vector.

    Amplitude at k is sqrt(C(N,k)) cos^k(theta/2) sin^(N-k)(theta/2)
    e^(-i(2k-N)phi/2).  Binomials go through log space so large N is safe.
    """
    n = basis.n_atoms
    k = np.arange(n + 1)
    half = 0.5 * theta
    c, s = np.cos(half), np.sin(half)
    log_binom = _log_factorial(n) - _log_factorial(k) - _log_factorial(n - k)
    mag = np.zeros(n + 1)
    ok = np.ones(n + 1, dtype=bool)
    if c == 0.0:
        ok &= k == 0
    if s == 0.0:
        ok &= k == n
    with np.errstate(divide="ignore"):
        log_mag = 0.5 * log_binom
        if c != 0.0:
            log_mag = log_mag + k * np.log(abs(c))
        if s != 0.0:
            log_mag = log_mag + (n - k) * np.log(abs(s))
    mag[ok] = np.exp(log_mag[ok])
    signs = np.ones(n + 1)
    if c < 0:
        signs *= (-1.0) ** k
    if s < 0:
        signs *= (-1.0) ** (n - k)
    vec = mag * signs * np.exp(-0.5j * (2 * k - n) * phi)
    return vec / np.linalg.norm(vec)


def product_state(vec1: np.ndarray, vec2: np.ndarray, basis: FockBasis) -> TwoModeState:
    """Tensor product of two single-ensemble amplitude vectors."""
    return TwoModeState(basis, np.outer(vec1, vec2))


def x_polarized_state(basis: FockBasis) -> TwoModeState:
    """Both ensembles polarized along S^x: the protocol's default input."""
    v = coherent_state(np.pi / 2, 0.0, basis)
    return product_state(v, v, basis)


def mmes_state(basis: FockBasis) -> TwoModeState:
    """Maximally entangled state (1/sqrt(N+1)) sum_k |k>|k>."""
    d = basis.dim
    amps = np.eye(d, dtype=complex) / np.sqrt(d)
    return TwoModeState(basis, amps)


def singlet_state(basis: FockBasis) -> TwoModeState:
    """Total-spin-zero singlet (1/sqrt(N+1)) sum_k (-1)^k |k>|N-k>."""
    d = basis.dim
    amps = np.zeros((d, d), dtype=complex)
    k = np.arange(d)
    amps[k, basis.n_atoms - k] = (-1.0) ** k / np.sqrt(d)
    return TwoModeState(basis, amps)


def _rotation_unitary(spec: RotationSpec, basis: FockBasis) -> np.ndarray:
    ry = rotation_matrix(spec.theta, basis)
    if spec.phi != 0.0:
        sz_diag = 2.0 * np.arange(basis.dim) - basis.n_atoms
        rz = np.exp(-0.5j * spec.phi * sz_diag)
        return rz[:, None] * ry
    return ry


def apply_local_rotation(state: TwoModeState, spec: RotationSpec) -> TwoModeState:
    """Apply U(theta, phi) to the target ensemble(s)."""
    u = _rotation_unitary(spec, state.basis)
    amps = state.amplitudes
    if spec.target in (1, "both"):
        amps = u @ amps
    if spec.target in (2, "both"):
        amps = amps @ u.T
    return TwoModeState(state.basis, amps)


def _apply_pair(amps: np.ndarray, op: np.ndarray, sign2: float) -> np.ndarray:
    """(op x I + sign2 * I x op) acting on a grid."""
    return op @ amps + sign2 * amps @ op.T


def sbar_tot_squared_apply(state: TwoModeState) -> TwoModeState:
    """Apply [(Sx1-Sx2)^2 + (Sy1+Sy2)^2 + (Sz1-Sz2)^2] / 4.

    The maximally entangled diagonal state is annihilated by this operator,
    mirroring the singlet condition after the local S^y pi-rotation.
    """
    sx, sy, sz = _spin_matrices(state.n_atoms)
    amps = state.amplitudes
    out = np.zeros_like(amps)
    for op, sign2 in ((sx, -1.0), (sy, +1.0), (sz, -1.0)):
        once = _apply_pair(amps, op, sign2)
        out = out + _apply_pair(once, op, sign2)
    return TwoModeState(state.basis, out / 4.0)


def stot_squared_apply(state: TwoModeState) -> TwoModeState:
    """Apply the total angular momentum squared (s1+s2)^2 with s = S/2."""
    sx, sy, sz = _spin_matrices(state.n_atoms)
    amps = state.amplitudes
    out = np.zeros_like(amps)
    for op in (sx, sy, sz):
        once = _apply_pair(amps, op, +1.0)
        out = out + _apply_pair(once, op, +1.0)
    return TwoModeState(state.basis, out / 4.0)


def entanglement_entropy(state: TwoModeState) -> float:
    """Von Neumann entropy (bits) of either reduced density matrix."""
    if not state.is_normalized(tol=1e-9):
        raise ValueError("entanglement entropy requires a normalized state")
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    lam = sv**2
    lam = lam[lam > 1e-300]
    return float(-np.sum(lam * np.log2(lam)))


def inner_product(a: TwoModeState, b: TwoModeState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _check_same_basis(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def overlap_magnitude(a: TwoModeState, b: TwoModeState) -> float:
    """|<a|b>| / (||a|| ||b||): equality up to global phase when this is 1."""
    return abs(inner_product(a, b)) / (a.norm() * b.norm())
