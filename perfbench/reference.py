"""Reference computations made apart from the ``qndprep`` engines.

Nothing here imports ``qndprep``.  The model is the one the package
documents: S^y is built from the Fock ladder elements sqrt((k+1)(N-k)),
rotations are ``scipy.linalg.expm`` of it, the x-basis frame is
exp(-i S^y pi/4) on both ensembles, a band outcome (Delta, sign) keeps
k2 - k1 = Delta as-is and k1 - k2 = Delta times the sign, and a Delta != 0
outcome is followed by exp(+i S^y theta/2) on ensemble 1 in the measurement
frame with theta = pi Delta / N.

The exact statistics come from evolving the branch-ensemble density tensor
rho[k1, k2, k1', k2'] with O(d^5) contractions, a different route from the
package's dense (N+1)^2 x (N+1)^2 Kraus matrices and from its path tree.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

BASES = ("z", "x")         # measurement order within one round
POVM_WINDOW_SIGMAS = 10.0  # photon-number window: mean +- this many standard deviations


@lru_cache(maxsize=None)
def spin_y(n: int) -> np.ndarray:
    k = np.arange(n)
    sp = np.zeros((n + 1, n + 1), dtype=complex)
    sp[k + 1, k] = np.sqrt((k + 1.0) * (n - k))
    return -1j * sp + 1j * sp.conj().T


def rotation(theta: float, n: int) -> np.ndarray:
    """exp(-i S^y theta / 2) by matrix exponential."""
    return expm(-0.5j * theta * spin_y(n))


def x_polarized(n: int) -> np.ndarray:
    """Amplitude grid of both ensembles polarized along S^x."""
    k = np.arange(n + 1)
    v = np.exp(0.5 * (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0))
               - 0.5 * n * math.log(2.0))
    return np.outer(v, v).astype(complex)


def band_mask(n: int, delta: int, sign: int) -> np.ndarray:
    k = np.arange(n + 1)
    off = k[None, :] - k[:, None]  # k2 - k1
    return np.where(off == delta, 1.0, 0.0) + np.where(off == -delta, float(sign), 0.0) * (delta > 0)


def frame(basis: str, n: int) -> np.ndarray:
    """Single-ensemble U with the basis-`basis` measurement = (U x U) Pi^z (U x U)^dagger."""
    if basis == "z":
        return np.eye(n + 1, dtype=complex)
    if basis == "x":
        return rotation(math.pi / 2, n)
    raise ValueError(f"unknown basis {basis!r}")


def outcome_branches(delta: int, sign_rule: str):
    """(sign, weight) pairs of one Delta outcome under a sign rule."""
    if delta == 0:
        return ((+1, 1.0),)
    if sign_rule == "split":
        return ((+1, 0.5), (-1, 0.5))
    if sign_rule == "minus":
        return ((-1, 1.0),)
    raise ValueError(f"unknown sign rule {sign_rule!r}")


# ------------------------------------------------------ pure-state helpers


def project(psi: np.ndarray, delta: int, sign: int, basis: str) -> np.ndarray:
    u = frame(basis, psi.shape[0] - 1)
    framed = u.conj().T @ psi @ u.conj()
    return u @ (band_mask(psi.shape[0] - 1, delta, sign) * framed) @ u.T


def correct(psi: np.ndarray, delta: int, basis: str) -> np.ndarray:
    n = psi.shape[0] - 1
    u = frame(basis, n)
    framed = u.conj().T @ psi @ u.conj()
    return u @ (rotation(-math.pi * delta / n, n) @ framed) @ u.T


def probability_grid(psi: np.ndarray, basis: str) -> np.ndarray:
    u = frame(basis, psi.shape[0] - 1)
    return np.abs(u.conj().T @ psi @ u.conj()) ** 2


# ------------------------------------------------- density-tensor channel


def _on(rho: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(op, rho, axes=(1, axis)), 0, axis)


def _two_sided(rho: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(a x a) rho (a x a)^dagger on rho[k1, k2, k1', k2']."""
    rho = _on(_on(rho, a, 0), a, 1)
    return _on(_on(rho, a.conj(), 2), a.conj(), 3)


def _correct_all(parts: np.ndarray, rots: np.ndarray) -> np.ndarray:
    """sum_x (R_x (x) 1) parts[x] (R_x (x) 1)^dagger, R_x acting on k1 and k1'."""
    x, d = rots.shape[0], rots.shape[1]
    out = rots @ parts.reshape(x, d, d**3)                      # k1 -> a
    out = out.reshape(x, d, d, d, d).transpose(0, 1, 2, 4, 3)  # k1' last
    out = out @ rots.conj().transpose(0, 2, 1)[:, None, None]    # k1' -> b
    return out.sum(axis=0).transpose(0, 1, 3, 2)


def _trace(rho: np.ndarray) -> float:
    return float(np.real(np.einsum("ijij->", rho)))


def channel(psi0: np.ndarray, rounds: int, repeats: int, sign_rule: str) -> Dict:
    """Exact per-round p_suc, p_first, F_avg and step marginals.

    Step (r, b, j) is repeat j of the basis-b sequence in round r, all
    0-based; its marginal sums both signs of each Delta.  A round succeeds
    when none of its sequences hits the repeat cap, and succeeds first time
    when every sequence opens with Delta = 0.
    """
    n = psi0.shape[0] - 1
    d = n + 1
    signed = np.zeros((d, d, d, d, d))  # signed[delta] = sum_s w_s m_s (x) m_s
    for delta in range(d):
        for sign, weight in outcome_branches(delta, sign_rule):
            mask = band_mask(n, delta, sign)
            signed[delta] += weight * np.einsum("ij,kl->ijkl", mask, mask)
    rots = np.array([rotation(-math.pi * delta / n, n) for delta in range(1, d)])
    frames = {b: frame(b, n) for b in BASES}
    rho = np.einsum("ij,kl->ijkl", psi0, psi0.conj())
    marginals: Dict[Tuple[int, int, int], np.ndarray] = {}
    p_suc, p_first, f_avg = [], [], []
    for r in range(rounds):
        # label -> component; label = (every sequence opened with 0, no cap)
        comps = {(True, True): rho}
        for b, basis in enumerate(BASES):
            u = frames[basis]
            nxt_comps: Dict[Tuple[bool, bool], np.ndarray] = {}

            def add(label, part):
                nxt_comps[label] = nxt_comps.get(label, 0) + part

            for (first_ok, clean), comp in comps.items():
                active = _two_sided(comp, u.conj().T)
                for j in range(repeats):
                    parts = signed * active[None]
                    marg = marginals.setdefault((r, b, j), np.zeros(d))
                    marg += np.real(np.einsum("xijij->x", parts))
                    add((first_ok and j == 0, clean), _two_sided(parts[0], u))
                    active = _correct_all(parts[1:], rots)
                add((False, False), _two_sided(active, u))
            comps = nxt_comps
        rho = sum(comps.values())
        p_first.append(sum(_trace(c) for (f, _), c in comps.items() if f))
        p_suc.append(sum(_trace(c) for (_, cl), c in comps.items() if cl))
        f_avg.append(float(np.real(np.einsum("iijj->", rho))) / d)
    return {
        "p_suc": np.array(p_suc),
        "p_first": np.array(p_first),
        "f_avg": np.array(f_avg),
        "marginals": marginals,
        "total_mass": _trace(rho),
    }


def first_step_marginal(n: int) -> np.ndarray:
    """Closed form of the first z-measurement marginal from the x-polarized input."""
    out = np.array([math.comb(2 * n, n + delta) for delta in range(n + 1)], dtype=float)
    out[1:] *= 2.0
    return out / 4.0**n


def rotation_columns(theta: float, n: int):
    """|<k'|exp(+-i S^y theta/2)|k>| for k = 0 (k' = 0..N) and k = 1 (k' = 1..N).

    Closed forms in log space, with c = cos(theta/2) and s = sin(theta/2):
    column 0 is sqrt(C(N,k') s^(2k') c^(2(N-k'))), the binomial, and column 1
    is sqrt(C(N,k')/N) |k' s^(k'-1) c^(N-k'+1) - (N-k') s^(k'+1) c^(N-k'-1)|.
    """
    k = np.arange(n + 1, dtype=float)
    c, s = abs(math.cos(theta / 2)), abs(math.sin(theta / 2))
    log_binom = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)

    def power(base, exp):  # exp * log(base), with 0^0 = 1
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(exp == 0, 0.0, exp * (np.log(base) if base > 0 else -np.inf))

    col0 = np.exp(0.5 * log_binom + power(s, k) + power(c, n - k))
    kp = k[1:]
    half = 0.5 * (log_binom[1:] - math.log(n))
    t1 = kp * np.exp(half + power(s, kp - 1) + power(c, n - kp + 1))
    t2 = (n - kp) * np.exp(half + power(s, kp + 1) + power(c, np.maximum(n - kp - 1, 0)))
    return col0, np.abs(t1 - t2)


# ------------------------------------------------------- POVM discrepancy


def povm_discrepancy(psi: np.ndarray, alpha: float, tau: float) -> float:
    """Probability-weighted min-phase distance, POVM collapse against bands.

    Same outcome window, Delta inference and sign (-1)^n_d as the package
    documents, but the distance is min_phi ||u - e^{i phi} v|| computed from
    the difference vector itself, which has no cancellation, instead of
    sqrt(2 - 2 |<u|v>|).
    """
    n = psi.shape[0] - 1
    d = n + 1
    k = np.arange(d)
    band = k[:, None] - k[None, :]  # k1 - k2, -N..N
    flat_band = (band + n).ravel()
    amps = psi.ravel()
    refs = {}
    for delta in range(d):
        for sign in ((+1,) if delta == 0 else (+1, -1)):
            v = (band_mask(n, delta, sign) * psi).ravel()
            norm = np.linalg.norm(v)
            refs[(delta, sign)] = v / norm if norm > 0 else None
    bands = np.arange(-n, n + 1)
    cos_b, sin_b = np.cos(bands * tau), np.sin(bands * tau)
    with np.errstate(divide="ignore"):
        log_cos, log_sin = np.log(np.abs(cos_b)), np.log(np.abs(sin_b))
    candidates = np.sin(np.arange(d) * tau) ** 2
    mean = alpha**2
    half = POVM_WINDOW_SIGMAS * math.sqrt(mean)
    num = den = 0.0
    for n_tot in range(max(0, int(mean - half)), int(math.ceil(mean + half)) + 1):
        n_d = np.arange(n_tot + 1)
        n_c = n_tot - n_d
        base = n_tot * math.log(alpha) - 0.5 * mean - 0.5 * (gammaln(n_c + 1.0) + gammaln(n_d + 1.0))
        with np.errstate(invalid="ignore"):
            log_mag = (base[:, None]
                       + np.where(n_c[:, None] == 0, 0.0, n_c[:, None] * log_cos[None, :])
                       + np.where(n_d[:, None] == 0, 0.0, n_d[:, None] * log_sin[None, :]))
        sign = np.where(cos_b[None, :] < 0, (-1.0) ** n_c[:, None], 1.0) * np.where(
            sin_b[None, :] < 0, (-1.0) ** n_d[:, None], 1.0)
        factor = sign * np.exp(log_mag)                      # (outcome, band)
        u = factor[:, flat_band] * amps[None, :]             # (outcome, d*d)
        p = np.sum(np.abs(u) ** 2, axis=1)
        ratio = np.where(n_tot > 0, n_d / max(n_tot, 1), 0.0)
        deltas = np.argmin(np.abs(ratio[:, None] - candidates[None, :]), axis=1)
        signs = np.where((n_d % 2 == 0) | (deltas == 0), 1, -1)
        keep = p > 1e-30
        for key in set(zip(deltas[keep].tolist(), signs[keep].tolist())):
            v = refs[key]
            if v is None:
                continue
            sel = keep & (deltas == key[0]) & (signs == key[1])
            un = u[sel] / np.sqrt(p[sel])[:, None]
            ov = un @ v.conj()
            phase = np.where(np.abs(ov) > 0, ov / np.where(np.abs(ov) > 0, np.abs(ov), 1.0), 1.0)
            dist = np.linalg.norm(un - phase[:, None] * v[None, :], axis=1)
            num += float(np.sum(p[sel] * dist))
            den += float(np.sum(p[sel]))
    return num / den
