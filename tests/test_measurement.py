"""Tests for the photonic measurement layer: POVM, band operators, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import comb
from scipy.stats import binom, poisson

from qndprep import (
    FockBasis,
    PovmParams,
    ProjectorSpec,
    TwoModeState,
    mmes_state,
    modulating_amplitude,
    outcome_probabilities,
    overlap_magnitude,
    povm_apply,
    povm_projector_discrepancy,
    projector_apply,
    sample_outcome,
    x_polarized_state,
)
from qndprep.measurement import (
    _branch_masses,
    _frame,
    basis_unitary,
    branch_masks,
    from_measurement_frame,
    to_measurement_frame,
)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    return TwoModeState(FockBasis(n), amps).normalized()


# ---------------------------------------------------------------- POVM


def test_povm_params_validation_and_cutoff():
    with pytest.raises(ValueError):
        PovmParams(alpha=-1.0, tau=0.1)
    p = PovmParams(alpha=10.0, tau=0.1)
    assert p.cutoff >= 100 + 10 * 10  # mean + 10 sqrt(mean)


def test_modulating_vacuum_term():
    p = PovmParams(alpha=3.0, tau=0.2)
    c = modulating_amplitude(0, 0, 0.7, p)
    assert abs(c) ** 2 == pytest.approx(np.exp(-9.0), rel=1e-12)


def test_modulating_poisson_completeness_at_chi_zero():
    """With chi = 0 the bright port carries the whole Poisson distribution."""
    p = PovmParams(alpha=4.0, tau=0.1)
    n_c = np.arange(p.cutoff)
    total = np.sum(np.abs(modulating_amplitude(n_c, 0, 0.0, p)) ** 2)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_modulating_dark_port_killed_at_chi_zero():
    p = PovmParams(alpha=4.0, tau=0.1)
    assert modulating_amplitude(0, 3, 0.0, p) == 0.0


def test_modulating_rejects_negative_counts():
    p = PovmParams(alpha=1.0, tau=0.1)
    with pytest.raises(ValueError):
        modulating_amplitude(-1, 0, 0.1, p)


def test_modulating_peak_relation():
    """|C|^2 vs chi peaks where sin^2(chi) = n_d / (n_c + n_d)."""
    p = PovmParams(alpha=20.0, tau=0.1)
    n_tot = 400  # near the Poisson mean alpha^2
    n_d = 100
    chis = np.linspace(1e-3, np.pi / 2 - 1e-3, 2000)
    mags = np.abs(modulating_amplitude(n_tot - n_d, n_d, chis, p)) ** 2
    chi_peak = chis[np.argmax(mags)]
    assert np.sin(chi_peak) ** 2 == pytest.approx(n_d / n_tot, abs=5e-3)


def test_povm_completeness_on_random_state():
    """Summing |M psi|^2 over photon outcomes recovers unit probability."""
    n = 4
    state = random_state(n, seed=7)
    p = PovmParams(alpha=5.0, tau=np.pi / 8)
    total = 0.0
    for n_tot in range(p.cutoff):
        for n_d in range(n_tot + 1):
            total += povm_apply(state, n_tot - n_d, n_d, p).squared_norm()
    assert total == pytest.approx(1.0, abs=1e-10)


def test_povm_on_diagonal_state_requires_dark_vacuum():
    """A diagonal state has chi = 0 everywhere: any n_d > 0 is impossible."""
    s = mmes_state(FockBasis(3))
    p = PovmParams(alpha=5.0, tau=np.pi / 6)
    assert povm_apply(s, 10, 1, p).squared_norm() == 0.0
    assert povm_apply(s, 10, 0, p).squared_norm() > 0.0


def test_povm_projector_limit_monotone():
    """Band collapse emerges from the exact POVM as the probe brightens."""
    state = x_polarized_state(FockBasis(4))
    errs = [
        povm_projector_discrepancy(state, PovmParams(alpha=a, tau=np.pi / 8))
        for a in (10.0, 20.0, 40.0)
    ]
    assert errs[0] > errs[1] > errs[2]


def cell_by_cell_discrepancy(state, alpha, tau):
    """Reference for ``povm_projector_discrepancy``, built cell by cell.

    Takes |C(n_c, n_d; chi)|^2 as Poisson(n_tot; alpha^2) x
    Binomial(n_d; n_tot, sin^2 chi), builds both collapsed grids on every
    cell of the 10-sigma window (clamped at n_tot >= 0), and takes the norm
    of their phase-aligned difference, which has no cancellation floor above
    ~1e-16.  Neither the |b| fold nor r = 0 is assumed.
    """
    n = state.n_atoms
    k = np.arange(n + 1)
    chi = (k[:, None] - k[None, :]) * tau  # band k1 - k2
    refs = {}
    for delta in range(n + 1):
        for sign in (+1,) if delta == 0 else (+1, -1):
            v = projector_apply(state, ProjectorSpec(delta, sign, "z"))
            refs[(delta, sign)] = v.amplitudes / v.norm()
    num = den = 0.0
    mean = alpha**2
    for n_tot in range(max(0, int(mean - 10 * alpha)), int(mean + 10 * alpha) + 1):
        n_d = np.arange(n_tot + 1)
        nd, nc = n_d[:, None, None], n_tot - n_d[:, None, None]
        mag = np.sqrt(poisson.pmf(n_tot, mean) * binom.pmf(nd, n_tot, np.sin(chi) ** 2))
        sgn = np.sign(np.cos(chi)) ** nc * np.sign(np.sin(chi)) ** nd
        u = mag * sgn * state.amplitudes
        p = np.sum(np.abs(u) ** 2, axis=(1, 2))
        ratio = n_d[:, None] / max(n_tot, 1)  # 0 at n_tot = 0
        guess = np.argmin(np.abs(ratio - np.sin(k * tau) ** 2), axis=1)
        parity = np.where((n_d % 2 == 0) | (guess == 0), 1, -1)
        for key, v in refs.items():
            sel = (guess == key[0]) & (parity == key[1]) & (p > 1e-30)
            un = u[sel] / np.sqrt(p[sel])[:, None, None]
            overlap = np.sum(np.conj(v) * un, axis=(1, 2))
            phase = np.exp(1j * np.angle(overlap))[:, None, None]  # 1 at overlap 0
            dist = np.sqrt(np.sum(np.abs(un - phase * v) ** 2, axis=(1, 2)))
            num += np.sum(p[sel] * dist)
            den += np.sum(p[sel])
    return num / den


def test_povm_projector_discrepancy_below_overlap_floor():
    """alpha=30: a 6.5e-12 distance, far below sqrt(2 - 2*overlap)'s 1e-8 floor."""
    n, tau, alpha = 4, np.pi / 8, 30.0
    state = x_polarized_state(FockBasis(n))
    expected = cell_by_cell_discrepancy(state, alpha, tau)
    assert expected < 1e-10
    got = povm_projector_discrepancy(state, PovmParams(alpha=alpha, tau=tau))
    assert got == pytest.approx(expected, rel=1e-2)


@pytest.mark.parametrize("alpha", [4.0, 8.0])
def test_povm_projector_discrepancy_random_state(alpha):
    """A complex state with unequal +-b band weights: the |b| fold and r = 0 hold."""
    state = random_state(5, 1234)
    prob = np.abs(state.amplitudes) ** 2
    assert abs(np.trace(prob, offset=1) - np.trace(prob, offset=-1)) > 1e-3
    got = povm_projector_discrepancy(state, PovmParams(alpha=alpha, tau=0.3))
    assert got == pytest.approx(cell_by_cell_discrepancy(state, alpha, 0.3), rel=1e-10)


def test_povm_projector_discrepancy_dark_probe():
    """alpha=0: the only outcome is (0, 0), read as Delta=0."""
    state = x_polarized_state(FockBasis(4))
    got = povm_projector_discrepancy(state, PovmParams(alpha=0.0, tau=np.pi / 8))
    assert got == pytest.approx(0.9768187993852318, rel=1e-12)


# ------------------------------------------------------- band operators


def test_projector_spec_validation():
    with pytest.raises(ValueError):
        ProjectorSpec(-1, +1, "z")
    with pytest.raises(ValueError):
        ProjectorSpec(1, 0, "z")
    with pytest.raises(ValueError):
        ProjectorSpec(0, -1, "z")  # Delta=0 has no sign branch


def test_projector_delta_out_of_range():
    s = mmes_state(FockBasis(2))
    with pytest.raises(ValueError):
        projector_apply(s, ProjectorSpec(3, +1, "z"))


def test_diagonal_projection_of_x_polarized_is_binomial():
    n = 10
    s = x_polarized_state(FockBasis(n))
    out = projector_apply(s, ProjectorSpec(0, +1, "z"))
    expected = comb(n, np.arange(n + 1)) / 2**n
    assert np.allclose(np.diag(out.amplitudes).real, expected, atol=1e-14)
    off = out.amplitudes - np.diag(np.diag(out.amplitudes))
    assert np.max(np.abs(off)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
@pytest.mark.parametrize("basis", ["z", "x"])
def test_mmes_fixed_point_of_zero_band(n, basis):
    s = mmes_state(FockBasis(n))
    out = projector_apply(s, ProjectorSpec(0, +1, basis))
    assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-12


def test_zero_band_idempotent():
    state = random_state(5, seed=3)
    spec = ProjectorSpec(0, +1, "z")
    once = projector_apply(state, spec)
    twice = projector_apply(once, spec)
    assert np.max(np.abs(twice.amplitudes - once.amplitudes)) < 1e-14


@pytest.mark.parametrize("basis", ["z", "x", (0.4, 1.1)])
def test_band_operator_completeness(basis):
    """sum_Delta Pi^dagger Pi = identity: the bands partition the grid."""
    n = 5
    state = random_state(n, seed=11)
    total = 0.0
    for delta in range(n + 1):
        signs = (+1,) if delta == 0 else (+1, -1)
        for sign in signs:
            w = 1.0 if delta == 0 else 0.5
            total += w * projector_apply(
                state, ProjectorSpec(delta, sign, basis)
            ).squared_norm()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_signed_band_squared_is_band_projector():
    """(Pi_D^s)^dag Pi_D^s keeps exactly the |k1-k2| = D mass, any sign."""
    n = 6
    state = random_state(n, seed=5)
    k = np.arange(n + 1)
    band = np.abs(k[:, None] - k[None, :])
    for delta in (1, 3):
        band_mass = np.sum(state.probability_grid()[band == delta])
        for sign in (+1, -1):
            out = projector_apply(state, ProjectorSpec(delta, sign, "z"))
            assert out.squared_norm() == pytest.approx(band_mass, abs=1e-12)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("sign_rule", ["split", "plus", "minus"])
def test_branch_masks_match_index_construction(n, sign_rule):
    """Each mask is Pi_Delta written cell by cell: k2 = k1 + Delta as-is and
    k2 = k1 - Delta with the branch sign, both times sqrt(1 / #signs);
    ``projector_apply`` is the unweighted mask times psi, and ``_branch_masses``
    the Born mass of each weighted mask, in the same order."""
    signs = {"split": (+1, -1), "plus": (+1,), "minus": (-1,)}[sign_rule]
    expected = [(0, +1)] + [(delta, s) for delta in range(1, n + 1) for s in signs]
    branches, masks = branch_masks(n, sign_rule)
    assert list(branches) == expected
    assert masks.shape == (len(expected), n + 1, n + 1)
    assert not masks.flags.writeable
    state = random_state(n, seed=41)
    prob = state.probability_grid()
    masses = _branch_masses(state.amplitudes, sign_rule)
    assert masses.shape == (len(expected),)
    weight = np.sqrt(1.0 / len(signs))
    k = np.arange(n + 1)
    for (delta, sign), mask, mass in zip(expected, masks, masses):
        pi = np.zeros((n + 1, n + 1))
        for k1 in range(n + 1 - delta):
            pi[k1, k1 + delta] = 1.0
            pi[k1 + delta, k1] = sign
        assert np.array_equal(mask, pi if delta == 0 else weight * pi)
        projected = projector_apply(state, ProjectorSpec(delta, sign, "z"))
        assert np.array_equal(projected.amplitudes, pi * state.amplitudes)
        want = np.sum(prob * (pi if delta == 0 else weight * pi) ** 2)
        assert mass == pytest.approx(want, rel=1e-14, abs=0)
        if sign_rule == "plus":  # the |k1 - k2| = Delta band mass the POVM reads
            band = np.abs(k[:, None] - k[None, :]) == delta
            assert mass == pytest.approx(prob[band].sum(), rel=1e-14, abs=0)


@pytest.mark.parametrize("basis", ["x", (0.9, 0.3)])
def test_basis_covariance(basis):
    """Rotated-band operator equals U Pi^z U^dagger conjugation."""
    n = 4
    state = random_state(n, seed=23)
    u = basis_unitary(basis, state.basis)
    for delta, sign in ((0, 1), (2, 1), (3, -1)):
        direct = projector_apply(state, ProjectorSpec(delta, sign, basis))
        framed = TwoModeState(
            state.basis, u.conj().T @ state.amplitudes @ u.conj()
        )
        in_z = projector_apply(framed, ProjectorSpec(delta, sign, "z"))
        rotated_back = TwoModeState(state.basis, u @ in_z.amplitudes @ u.T)
        assert np.max(np.abs(direct.amplitudes - rotated_back.amplitudes)) < 1e-12


def test_unknown_basis_rejected():
    with pytest.raises(ValueError):
        basis_unitary("q", FockBasis(2))


def test_measurement_frame_round_trip():
    state = random_state(3, seed=2)
    framed = to_measurement_frame(state, "x")
    # diagonal projector in the frame equals x-basis projector in the lab
    direct = projector_apply(state, ProjectorSpec(0, +1, "x"))
    in_frame = projector_apply(framed, ProjectorSpec(0, +1, "z"))
    u = basis_unitary("x", state.basis)
    back = u @ in_frame.amplitudes @ u.T
    assert np.max(np.abs(direct.amplitudes - back)) < 1e-12
    # the cached (U, U^dagger) pair is read-only, and to -> from is the identity
    assert _frame("z", 3) == (None, None)
    for basis in ("z", "x", (0.7, 0.3)):
        u, uh = _frame(basis, 3)
        if u is not None:
            assert np.array_equal(u, basis_unitary(basis, state.basis))
            assert np.array_equal(uh, u.conj().T)
            for m in (u, uh, uh.T):
                assert not m.flags.writeable
        there = to_measurement_frame(state, basis)
        round_trip = from_measurement_frame(there, basis)
        assert np.max(np.abs(round_trip.amplitudes - state.amplitudes)) < 1e-14


# -------------------------------------------------- outcome probabilities


def test_first_measurement_zero_band_probability():
    """P(Delta=0) on the x-polarized input equals C(2N,N)/4^N."""
    n = 10
    probs = outcome_probabilities(x_polarized_state(FockBasis(n)), "z")
    p0 = dict((spec, p) for spec, p in probs)[ProjectorSpec(0, +1, "z")]
    assert p0 == pytest.approx(comb(2 * n, n) / 4**n, abs=1e-12)


def test_mmes_always_yields_zero_band():
    probs = outcome_probabilities(mmes_state(FockBasis(6)), "z")
    for spec, p in probs:
        expected = 1.0 if spec.delta == 0 else 0.0
        assert p == pytest.approx(expected, abs=1e-14)


def test_single_fock_pair_splits_across_signs():
    """|k1=3, k2=1> gives Delta=2 with the mass split across both signs."""
    b = FockBasis(4)
    amps = np.zeros((5, 5), dtype=complex)
    amps[3, 1] = 1.0
    probs = dict(outcome_probabilities(TwoModeState(b, amps), "z"))
    assert probs[ProjectorSpec(2, +1, "z")] == pytest.approx(0.5)
    assert probs[ProjectorSpec(2, -1, "z")] == pytest.approx(0.5)
    total_other = sum(
        p for spec, p in probs.items() if spec.delta != 2
    )
    assert total_other == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("sign_rule", ["split", "plus", "minus"])
def test_outcome_probabilities_sum_to_one(sign_rule):
    state = random_state(7, seed=31)
    probs = outcome_probabilities(state, "x", sign_rule)
    assert sum(p for _, p in probs) == pytest.approx(1.0, abs=1e-10)


def test_unknown_sign_rule():
    with pytest.raises(ValueError):
        outcome_probabilities(random_state(2, seed=1), "z", "sometimes")


# -------------------------------------------------------------- sampling


def test_sampling_deterministic_with_seed():
    state = x_polarized_state(FockBasis(8))
    recs = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        seq = [sample_outcome(state, "z", rng)[0] for _ in range(20)]
        recs.append([(r.spec.delta, r.spec.branch_sign) for r in seq])
    assert recs[0] == recs[1]


def test_sampled_state_is_normalized_collapse():
    state = x_polarized_state(FockBasis(5))
    rng = np.random.default_rng(4)
    rec, collapsed = sample_outcome(state, "z", rng)
    assert collapsed.is_normalized(tol=1e-10)
    direct = projector_apply(state, rec.spec).normalized()
    assert overlap_magnitude(direct, collapsed) > 1 - 1e-12


def test_sampling_frequencies_match_probabilities():
    """Empirical outcome frequencies agree with the Born rule within 3 sigma."""
    n = 4
    state = x_polarized_state(FockBasis(n))
    probs = dict(outcome_probabilities(state, "z"))
    rng = np.random.default_rng(12345)
    n_draws = 20_000
    counts = {}
    for _ in range(n_draws):
        rec, _ = sample_outcome(state, "z", rng)
        key = (rec.spec.delta, rec.spec.branch_sign)
        counts[key] = counts.get(key, 0) + 1
    for spec, p in probs.items():
        if p < 1e-6:
            continue
        freq = counts.get((spec.delta, spec.branch_sign), 0) / n_draws
        sigma = np.sqrt(p * (1 - p) / n_draws)
        assert abs(freq - p) < 3 * sigma + 1e-12


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sampling_measure_preserving(seed):
    """Expected squared norm of the raw projected branch equals one."""
    state = random_state(3, seed=seed % 1000)
    expected = sum(
        p for _, p in outcome_probabilities(state, "z")
    )
    assert expected == pytest.approx(1.0, abs=1e-10)
