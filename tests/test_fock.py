"""Tests for two-ensemble Fock states, spin operators and rotations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import comb, gammaln

from qndprep import fock
from qndprep import (
    FockBasis,
    RotationSpec,
    TwoModeState,
    apply_local_rotation,
    coherent_state,
    entanglement_entropy,
    inner_product,
    mmes_state,
    overlap_magnitude,
    product_state,
    rotation_matrix,
    rotation_matrix_closed_form,
    sbar_tot_squared_apply,
    singlet_state,
    spin_operator,
    stot_squared_apply,
    x_polarized_state,
)


# ---------------------------------------------------------------- basics


def test_basis_dimensions():
    b = FockBasis(10)
    assert b.dim == 11
    assert b.grid_dim == 121


def test_negative_atoms_rejected():
    with pytest.raises(ValueError):
        FockBasis(-1)


def test_state_shape_checked():
    with pytest.raises(ValueError):
        TwoModeState(FockBasis(2), np.zeros((2, 2)))


def test_unnormalized_state_carries_mass():
    amps = np.zeros((3, 3), dtype=complex)
    amps[0, 0] = 0.5
    s = TwoModeState(FockBasis(2), amps)
    assert s.squared_norm() == pytest.approx(0.25)
    assert not s.is_normalized()
    assert s.normalized().is_normalized()


def test_zero_state_cannot_normalize():
    with pytest.raises(ValueError):
        TwoModeState(FockBasis(1), np.zeros((2, 2))).normalized()


# ------------------------------------------------------- spin operators


@pytest.mark.parametrize("n", range(1, 9))
def test_commutators(n):
    """[S^j, S^k] = 2i eps_{jkl} S^l on the matrix representation."""
    b = FockBasis(n)
    sx, sy, sz = (spin_operator(l, b) for l in "xyz")
    for a, bb, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
        comm = a @ bb - bb @ a
        assert np.max(np.abs(comm - 2j * c)) < 1e-12


@pytest.mark.parametrize("n", [1, 4, 10])
def test_spin_operators_hermitian(n):
    b = FockBasis(n)
    for label in "xyz":
        s = spin_operator(label, b)
        assert np.max(np.abs(s - s.conj().T)) < 1e-14


def test_sz_eigenvalues():
    sz = spin_operator("z", FockBasis(4))
    assert np.allclose(np.diag(sz).real, [-4, -2, 0, 2, 4])


def test_unknown_spin_label():
    with pytest.raises(ValueError):
        spin_operator("w", FockBasis(2))


# ------------------------------------------------------------ rotations


def test_rotation_identity():
    assert np.allclose(rotation_matrix(0.0, FockBasis(7)), np.eye(8))


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_rotation_pi_maps_k_to_n_minus_k(n):
    """<k'| e^{-i S^y pi/2} |k> = (-1)^k delta_{k', N-k}."""
    r = rotation_matrix(np.pi, FockBasis(n))
    expected = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        expected[n - k, k] = (-1.0) ** k
    # the identity holds up to a global phase ((-1)^N in this convention)
    phase = r[n, 0] / expected[n, 0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(r - phase * expected)) < 1e-12


@pytest.mark.parametrize("n", range(1, 21))
def test_rotation_matches_dense_exponential_oracle(n):
    """Both rotation routes match expm(-i theta S^y / 2) to 1e-10, 50 angles."""
    b = FockBasis(n)
    sy = spin_operator("y", b)
    rng = np.random.default_rng(1234 + n)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=50):
        oracle = expm(-0.5j * theta * sy)
        assert np.max(np.abs(rotation_matrix(theta, b) - oracle)) < 1e-10
        assert np.max(np.abs(rotation_matrix_closed_form(theta, b) - oracle)) < 1e-10


@given(
    n=st.integers(min_value=1, max_value=12),
    theta=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_rotation_unitary_property(n, theta):
    r = rotation_matrix(theta, FockBasis(n))
    assert np.max(np.abs(r @ r.conj().T - np.eye(n + 1))) < 1e-12


def test_rotation_group_property():
    b = FockBasis(6)
    half = rotation_matrix(np.pi / 2, b)
    assert np.max(np.abs(half @ half - rotation_matrix(np.pi, b))) < 1e-12


# ---------------------------------------------------------- log-factorial


def test_log_factorial_matches_gammaln():
    n = np.arange(5001)
    np.testing.assert_allclose(fock._log_factorial(n), gammaln(n + 1.0), rtol=1e-15, atol=0)


def test_log_factorial_exact_for_small_n():
    for n in range(21):
        assert fock._log_factorial(n) == math.log(math.factorial(n))


def test_log_factorial_table_grows(monkeypatch):
    monkeypatch.setattr(fock, "_LOG_FACTORIAL", np.zeros(1))
    assert fock._log_factorial(3) == math.log(6)
    small = fock._LOG_FACTORIAL.size
    big = np.array([[0, 7], [4000, 2500]])
    np.testing.assert_allclose(fock._log_factorial(big), gammaln(big + 1.0), rtol=1e-15, atol=0)
    assert small < 4001 <= fock._LOG_FACTORIAL.size
    np.testing.assert_allclose(
        fock._LOG_FACTORIAL, gammaln(np.arange(fock._LOG_FACTORIAL.size) + 1.0), rtol=1e-15, atol=0
    )


@pytest.mark.parametrize("bad", [-1, [3, -2], 2.5, np.array([1.0, 0.5]), np.nan, np.inf])
def test_log_factorial_rejects_non_counts(bad):
    with pytest.raises(ValueError):
        fock._log_factorial(bad)


# ------------------------------------------------------ coherent states


def test_coherent_pole():
    v = coherent_state(0.0, 0.0, FockBasis(4))
    expected = np.zeros(5)
    expected[4] = 1.0
    assert np.allclose(v, expected)


def test_coherent_equator_n2():
    v = coherent_state(np.pi / 2, 0.0, FockBasis(2))
    assert np.allclose(v, [0.5, 1 / np.sqrt(2), 0.5])


def test_coherent_equator_n10_binomial():
    n = 10
    v = coherent_state(np.pi / 2, 0.0, FockBasis(n))
    expected = np.sqrt(comb(n, np.arange(n + 1))) / 2 ** (n / 2)
    assert np.allclose(v, expected)


@given(
    theta=st.floats(min_value=0.0, max_value=np.pi),
    phi=st.floats(min_value=-np.pi, max_value=np.pi),
    n=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=50, deadline=None)
def test_coherent_normalized(theta, phi, n):
    v = coherent_state(theta, phi, FockBasis(n))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_coherent_large_n_no_overflow():
    v = coherent_state(np.pi / 3, 0.4, FockBasis(150))
    assert np.isfinite(v).all()
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


# -------------------------------------------------- MMES / singlet family


def test_mmes_is_bell_state_for_n1():
    s = mmes_state(FockBasis(1))
    assert np.allclose(s.amplitudes, np.eye(2) / np.sqrt(2))


def test_mmes_entropy_is_maximal():
    assert entanglement_entropy(mmes_state(FockBasis(10))) == pytest.approx(
        np.log2(11), abs=1e-12
    )


def test_n0_single_state_entropy_zero():
    assert entanglement_entropy(mmes_state(FockBasis(0))) == pytest.approx(0.0)


def test_singlet_n1():
    s = singlet_state(FockBasis(1))
    expected = np.array([[0, 1], [-1, 0]]) / np.sqrt(2)
    assert np.allclose(s.amplitudes, expected)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_singlet_orthogonal_to_mmes_for_odd_n(n):
    b = FockBasis(n)
    assert abs(inner_product(singlet_state(b), mmes_state(b))) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 4, 5, 10, 20])
def test_singlet_rotates_to_mmes(n):
    """e^{-i S^y_2 pi/2} maps the singlet to the diagonal entangled state."""
    b = FockBasis(n)
    rotated = apply_local_rotation(singlet_state(b), RotationSpec(np.pi, 0.0, 2))
    assert overlap_magnitude(rotated, mmes_state(b)) > 1 - 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_sbar_annihilates_mmes(n):
    img = sbar_tot_squared_apply(mmes_state(FockBasis(n)))
    assert img.norm() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_stot_annihilates_singlet(n):
    img = stot_squared_apply(singlet_state(FockBasis(n)))
    assert img.norm() < 1e-12


def test_sbar_nonzero_on_product_state():
    b = FockBasis(1)
    amps = np.zeros((2, 2), dtype=complex)
    amps[1, 1] = 1.0  # |k=1>|k=1>
    img = sbar_tot_squared_apply(TwoModeState(b, amps))
    assert img.norm() > 0.1


def test_singlet_is_sz_total_null():
    b = FockBasis(4)
    sz = spin_operator("z", b)
    s = singlet_state(b)
    total = sz @ s.amplitudes + s.amplitudes @ sz.T
    assert np.max(np.abs(total)) < 1e-12


# ------------------------------------------------------ local rotations


def test_identity_rotation_leaves_state():
    s = x_polarized_state(FockBasis(5))
    out = apply_local_rotation(s, RotationSpec(0.0, 0.0, "both"))
    assert np.allclose(out.amplitudes, s.amplitudes)


def test_rotation_preserves_norm_and_inverts():
    s = x_polarized_state(FockBasis(6))
    spec = RotationSpec(0.81, 1.3, 1)
    inv = RotationSpec(-0.81, 0.0, 1)
    rotated = apply_local_rotation(s, spec)
    assert rotated.squared_norm() == pytest.approx(1.0, abs=1e-12)
    # invert: undo phi then theta on the same ensemble
    undone = apply_local_rotation(
        apply_local_rotation(rotated, RotationSpec(0.0, -1.3, 1)), inv
    )
    assert overlap_magnitude(undone, s) > 1 - 1e-12


def test_two_quarter_turns_equal_half_turn():
    s = x_polarized_state(FockBasis(4))
    quarter = RotationSpec(np.pi / 2, 0.0, "both")
    once = apply_local_rotation(apply_local_rotation(s, quarter), quarter)
    full = apply_local_rotation(s, RotationSpec(np.pi, 0.0, "both"))
    assert np.max(np.abs(once.amplitudes - full.amplitudes)) < 1e-12


def test_rotation_spec_validation():
    with pytest.raises(ValueError):
        RotationSpec(np.inf, 0.0, 1)
    with pytest.raises(ValueError):
        RotationSpec(0.1, 0.0, 3)


# -------------------------------------------------------------- scalars


def test_mmes_self_overlap():
    s = mmes_state(FockBasis(8))
    assert inner_product(s, s) == pytest.approx(1.0 + 0j, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_mmes_overlap_with_x_polarized(n):
    b = FockBasis(n)
    ip = inner_product(mmes_state(b), x_polarized_state(b))
    assert ip == pytest.approx(1 / np.sqrt(n + 1), abs=1e-12)


def test_orthogonal_fock_states():
    b = FockBasis(2)
    a1 = np.zeros((3, 3), dtype=complex)
    a2 = np.zeros((3, 3), dtype=complex)
    a1[0, 1] = 1.0
    a2[1, 0] = 1.0
    assert inner_product(TwoModeState(b, a1), TwoModeState(b, a2)) == 0
    assert abs(inner_product(TwoModeState(b, a1), TwoModeState(b, a1))) == 1


def test_inner_product_conjugate_linear():
    b = FockBasis(1)
    a = TwoModeState(b, np.array([[1j, 0], [0, 0]]))
    c = TwoModeState(b, np.array([[1, 0], [0, 0]]))
    assert inner_product(a, c) == pytest.approx(-1j)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        inner_product(mmes_state(FockBasis(2)), mmes_state(FockBasis(3)))
    with pytest.raises(ValueError):
        product_state(np.ones(3), np.ones(4), FockBasis(2))


def test_entropy_requires_normalized_input():
    s = TwoModeState(FockBasis(1), np.eye(2) * 0.3)
    with pytest.raises(ValueError):
        entanglement_entropy(s)


def test_product_state_entropy_zero():
    v = coherent_state(0.7, 0.2, FockBasis(5))
    assert entanglement_entropy(product_state(v, v, FockBasis(5))) < 1e-10


def test_entropy_of_diagonal_projection_strictly_between_bounds():
    """Keeping only the diagonal of the x-polarized state entangles it."""
    n = 10
    s = x_polarized_state(FockBasis(n))
    diag = np.diag(np.diag(s.amplitudes))
    projected = TwoModeState(s.basis, diag).normalized()
    ent = entanglement_entropy(projected)
    assert 0.0 < ent < np.log2(n + 1)


@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_entropy_bounded_by_log_dim(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    state = TwoModeState(FockBasis(n), amps).normalized()
    assert entanglement_entropy(state) <= np.log2(n + 1) + 1e-9
