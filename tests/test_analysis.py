"""Tests for exact enumeration, channel evolution and Monte Carlo analysis."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import comb

from qndprep import (
    CorrectionSpec,
    FockBasis,
    ProtocolConfig,
    TwoModeState,
    apply_correction,
    average_fidelity,
    channel_statistics,
    enumerate_tree,
    first_success_probability,
    fock_grid,
    marginal_probability,
    mmes_state,
    monte_carlo_estimates,
    projector_apply,
    success_probability,
    x_polarized_state,
)
from qndprep.measurement import ProjectorSpec
from qndprep.protocol import resolve_angle


# -------------------------------------------------------------- fock_grid


def test_fock_grid_diagonal_binomial():
    """[Pi_0^z] on the x-polarized input gives the squared binomial diagonal."""
    n = 10
    initial = x_polarized_state(FockBasis(n))
    grid = fock_grid([ProjectorSpec(0, +1, "z")], initial)
    expected = (comb(n, np.arange(n + 1)) / 2**n) ** 2
    assert np.allclose(np.diag(grid), expected, atol=1e-12)
    assert np.max(np.abs(grid - np.diag(np.diag(grid)))) == 0.0


def test_fock_grid_band_support():
    n = 10
    initial = x_polarized_state(FockBasis(n))
    grid = fock_grid([ProjectorSpec(1, -1, "z")], initial)
    k = np.arange(n + 1)
    band = np.abs(k[:, None] - k[None, :])
    assert np.max(grid[band != 1]) == 0.0
    assert grid[band == 1].sum() > 0.0


def test_fock_grid_correction_restores_diagonal():
    n = 10
    initial = x_polarized_state(FockBasis(n))
    before = fock_grid([ProjectorSpec(1, -1, "z")], initial)
    after = fock_grid(
        [ProjectorSpec(1, -1, "z"), CorrectionSpec(1, "z")], initial
    )
    assert np.trace(after) / after.sum() > 0.5
    assert np.trace(before) / before.sum() < 1e-12
    assert after.sum() == pytest.approx(before.sum(), abs=1e-12)


def test_fock_grid_rejects_unknown_spec():
    initial = x_polarized_state(FockBasis(2))
    with pytest.raises(TypeError):
        fock_grid(["projector"], initial)


# ------------------------------------------------------- tree enumeration


def test_enumeration_mmes_single_branch():
    cfg = ProtocolConfig(n_atoms=4, max_rounds=2)
    res = enumerate_tree(mmes_state(cfg.basis), cfg)
    assert len(res.terminals) == 1
    assert res.terminals[0].mass == pytest.approx(1.0, abs=1e-12)
    assert res.terminals[0].converged_at == 1
    assert res.pruned_mass < 1e-12
    for r in range(2):
        assert success_probability(res, r) == pytest.approx(1.0, abs=1e-12)
        assert first_success_probability(res, r) == pytest.approx(1.0, abs=1e-12)
        assert average_fidelity(res, r) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_exact_mass_no_pruning():
    """N=2, L=2, M=1 with threshold zero accounts for exactly unit mass."""
    cfg = ProtocolConfig(n_atoms=2, max_repeats=2, max_rounds=1, prune_threshold=0.0)
    res = enumerate_tree(x_polarized_state(cfg.basis), cfg)
    assert res.pruned_mass == 0.0
    assert res.accounted_mass() == pytest.approx(1.0, abs=1e-12)
    assert res.terminal_mass == pytest.approx(1.0, abs=1e-12)


def test_enumeration_mass_conservation_with_pruning():
    cfg = ProtocolConfig(
        n_atoms=4, max_repeats=3, max_rounds=1, prune_threshold=1e-6
    )
    res = enumerate_tree(x_polarized_state(cfg.basis), cfg)
    assert res.pruned_mass > 0.0
    assert res.accounted_mass() == pytest.approx(1.0, abs=1e-9)


def test_enumeration_first_marginal_closed_form():
    n = 10
    cfg = ProtocolConfig(n_atoms=n, max_repeats=1, max_rounds=1)
    res = enumerate_tree(x_polarized_state(cfg.basis), cfg)
    p0 = marginal_probability(res, 0, round_idx=0, basis_idx=0, repeat_idx=0)
    assert p0 == pytest.approx(comb(2 * n, n) / 4**n, abs=1e-12)


def test_enumeration_marginal_unreached_step_raises():
    cfg = ProtocolConfig(n_atoms=2, max_repeats=1, max_rounds=1)
    res = enumerate_tree(x_polarized_state(cfg.basis), cfg)
    with pytest.raises(KeyError):
        marginal_probability(res, 0, round_idx=5)


def test_enumeration_node_cap_reports_unexplored_mass():
    cfg = ProtocolConfig(
        n_atoms=4, max_repeats=3, max_rounds=2, prune_threshold=0.0, node_cap=50
    )
    res = enumerate_tree(x_polarized_state(cfg.basis), cfg)
    assert res.node_cap_hit
    assert res.unexplored_mass > 0.0
    assert res.accounted_mass() == pytest.approx(1.0, abs=1e-9)


def test_enumeration_node_cap_spends_budget_on_heavy_branches():
    """Children are expanded heaviest first, so a capped run still completes real mass."""
    cfg = ProtocolConfig(n_atoms=4, max_repeats=3, max_rounds=2, node_cap=2000)
    res = enumerate_tree(x_polarized_state(cfg.basis), cfg, store_paths=False)
    assert res.node_cap_hit
    assert res.terminal_mass >= 0.2
    assert res.accounted_mass() == pytest.approx(1.0, abs=1e-9)


def test_enumeration_negative_threshold_rejected():
    with pytest.raises(ValueError):
        ProtocolConfig(n_atoms=2, prune_threshold=-1.0)


def test_enumeration_unknown_sign_rule_rejected():
    cfg = ProtocolConfig(n_atoms=2, sign_rule="both")
    with pytest.raises(ValueError):
        enumerate_tree(x_polarized_state(cfg.basis), cfg)


def test_enumeration_unknown_angle_rule_rejected():
    """An unknown rule fails even when no correction is ever needed."""
    cfg = ProtocolConfig(n_atoms=3, angle_rule="bogus")
    with pytest.raises(ValueError):
        enumerate_tree(mmes_state(cfg.basis), cfg)


def test_enumeration_terminal_count_without_storage():
    """With nothing stored no terminal is held, and the count is unchanged."""
    cfg = ProtocolConfig(n_atoms=3, max_repeats=2, max_rounds=2, prune_threshold=1e-3)
    initial = x_polarized_state(cfg.basis)
    stored = enumerate_tree(initial, cfg, store_states=True)
    bare = enumerate_tree(initial, cfg, store_states=False, store_paths=False)
    assert stored.terminal_count == len(stored.terminals) > 10
    assert bare.terminals == []
    assert bare.terminal_count == stored.terminal_count
    assert bare.terminal_mass == stored.terminal_mass


def test_enumeration_counts_expanded_nodes():
    """The MMES input opens every sequence with Delta = 0: one node per measurement."""
    cfg = ProtocolConfig(n_atoms=4, max_rounds=2)
    res = enumerate_tree(mmes_state(cfg.basis), cfg)
    assert res.expanded_nodes == 2 * len(cfg.basis_order)
    capped = ProtocolConfig(n_atoms=4, max_repeats=3, max_rounds=2, node_cap=50)
    res = enumerate_tree(x_polarized_state(capped.basis), capped)
    assert res.node_cap_hit
    assert res.expanded_nodes == 50
    # the cap boundary: exactly the 4 expansions the MMES input needs
    for cap, hit in ((4, False), (3, True)):
        res = enumerate_tree(mmes_state(cfg.basis), replace(cfg, node_cap=cap))
        assert res.node_cap_hit is hit
        assert res.expanded_nodes == cap
        assert res.unexplored_mass == pytest.approx(float(hit), abs=1e-12)


def test_enumeration_stored_states_own_their_memory():
    cfg = ProtocolConfig(n_atoms=3, max_repeats=2, max_rounds=1)
    res = enumerate_tree(x_polarized_state(cfg.basis), cfg, store_states=True)
    amps = [t.state.amplitudes for t in res.terminals]
    assert len(amps) > 10
    for i, a in enumerate(amps):
        assert a.base is None
        for b in amps[i + 1:]:
            assert not np.shares_memory(a, b)


def replay_path(initial, cfg, path):
    """Rebuild a terminal state from its path with the public measurement and
    correction operators, the way ``repeat_until_success`` applies them."""
    state = initial
    for _, b, delta, sign in path:
        basis = cfg.basis_order[b]
        state = projector_apply(state, ProjectorSpec(delta, sign, basis))
        if cfg.sign_rule == "split" and delta:
            state = TwoModeState(state.basis, state.amplitudes * np.sqrt(0.5))
        if delta:
            normalized = TwoModeState(
                state.basis, state.amplitudes / np.sqrt(state.squared_norm())
            )
            theta = resolve_angle(cfg.angle_rule, delta, cfg.n_atoms, normalized, basis)
            state = apply_correction(state, delta, basis, theta)
    return state


@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"sign_rule": "minus"},
        {
            "basis_order": ("z", (0.7, 0.3)),
            "angle_rule": lambda delta, n: 0.8 * np.pi * delta / n + 0.1,
        },
        {"angle_rule": "optimized", "max_rounds": 1},
    ],
    ids=["split", "minus", "tilted-callable", "optimized"],
)
def test_enumeration_terminals_replay_their_paths(extra):
    """Each stored terminal state equals its path replayed through
    ``projector_apply`` and ``apply_correction``, and its mass is the replay's norm."""
    kw = dict(n_atoms=3, max_repeats=2, max_rounds=2, prune_threshold=1e-3)
    cfg = ProtocolConfig(**{**kw, **extra})
    initial = x_polarized_state(cfg.basis)
    res = enumerate_tree(initial, cfg, store_states=True)
    assert len(res.terminals) > 10
    for term in res.terminals:
        replayed = replay_path(initial, cfg, term.path)
        assert np.max(np.abs(replayed.amplitudes - term.state.amplitudes)) < 1e-12
        assert replayed.squared_norm() == pytest.approx(term.mass, abs=1e-12)
        trace = np.trace(replayed.amplitudes)
        fidelity = abs(trace) ** 2 / (cfg.n_atoms + 1) / term.mass
        assert term.fidelity == pytest.approx(fidelity, abs=1e-12)
        assert (term.capped, term.converged_at) == path_flags(cfg, term.path)
    # both flags are exercised, so the comparison cannot pass vacuously
    assert any(term.capped for term in res.terminals)
    assert any(term.converged_at is not None for term in res.terminals)


def path_flags(cfg, path):
    """(capped, converged_at) of a path, from its outcomes per (round, basis):
    capped if some sequence has max_repeats outcomes all with Delta != 0,
    converged_at the first 1-based round whose sequences all open with Delta = 0."""
    sequences = {}
    for r, b, delta, _ in path:
        sequences.setdefault((r, b), []).append(delta)
    capped = any(
        len(deltas) == cfg.max_repeats and 0 not in deltas
        for deltas in sequences.values()
    )
    rounds = sorted({r for r, _ in sequences})
    converged = [
        r + 1
        for r in rounds
        if all(sequences[(r, b)][0] == 0 for b in range(len(cfg.basis_order)))
    ]
    return capped, (converged[0] if converged else None)


def test_enumeration_initial_fidelity():
    """Round-0 fidelity of a no-measurement tree is the bare MMES overlap."""
    n = 10
    initial = x_polarized_state(FockBasis(n))
    target = mmes_state(FockBasis(n))
    overlap = abs(np.vdot(target.amplitudes, initial.amplitudes)) ** 2
    assert overlap == pytest.approx(1 / (n + 1), abs=1e-12)


# ------------------------------------------------------- channel engine


@pytest.mark.parametrize(
    "n,repeats,rounds,sign_rule",
    [
        (1, 3, 2, "split"),
        (2, 2, 2, "split"),
        (2, 3, 2, "minus"),
        (2, 2, 2, "plus"),
        (3, 2, 1, "split"),
        (4, 3, 1, "minus"),
        (4, 3, 1, "plus"),
    ],
)
def test_channel_matches_unpruned_tree(n, repeats, rounds, sign_rule):
    """Density-matrix evolution agrees with exhaustive path enumeration."""
    cfg = ProtocolConfig(
        n_atoms=n,
        max_repeats=repeats,
        max_rounds=rounds,
        sign_rule=sign_rule,
        prune_threshold=0.0,
        node_cap=50_000_000,
    )
    assert_channel_matches_tree(cfg)


def test_channel_matches_tree_tilted_basis_callable_angle():
    """A complex (theta, phi) frame and a callable angle rule, N=3."""
    cfg = ProtocolConfig(
        n_atoms=3,
        max_repeats=2,
        max_rounds=1,
        basis_order=("z", (0.7, 0.3)),
        angle_rule=lambda delta, n: 0.8 * np.pi * delta / n + 0.1,
        prune_threshold=0.0,
        node_cap=50_000_000,
    )
    assert_channel_matches_tree(cfg)


def assert_channel_matches_tree(cfg):
    initial = x_polarized_state(cfg.basis)
    tree = enumerate_tree(initial, cfg, store_paths=False)
    chan = channel_statistics(initial, cfg)
    assert tree.accounted_mass() == pytest.approx(1.0, abs=1e-10)
    assert chan.total_mass == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(tree.round_success, chan.round_success, atol=1e-10)
    assert np.allclose(
        tree.round_first_success, chan.round_first_success, atol=1e-10
    )
    assert np.allclose(tree.round_fidelity, chan.round_fidelity, atol=1e-10)
    for key, table in tree.step_marginals.items():
        assert np.allclose(table, chan.step_marginals[key], atol=1e-10)


def test_channel_mmes_is_fixed_point():
    for cfg in (
        ProtocolConfig(n_atoms=6, max_rounds=3),
        ProtocolConfig(n_atoms=30, max_repeats=3, max_rounds=1),
    ):
        res = channel_statistics(mmes_state(cfg.basis), cfg)
        for r in range(cfg.max_rounds):
            assert success_probability(res, r) == pytest.approx(1.0, abs=1e-12)
            assert first_success_probability(res, r) == pytest.approx(1.0, abs=1e-12)
            assert average_fidelity(res, r) == pytest.approx(1.0, abs=1e-12)


def test_channel_rejects_state_dependent_angles():
    cfg = ProtocolConfig(n_atoms=2, angle_rule="optimized")
    with pytest.raises(ValueError):
        channel_statistics(x_polarized_state(cfg.basis), cfg)


def test_channel_accessors_shared_with_tree():
    cfg = ProtocolConfig(n_atoms=3, max_repeats=2, max_rounds=1)
    res = channel_statistics(x_polarized_state(cfg.basis), cfg)
    assert res.pruned_mass == 0.0
    assert not res.node_cap_hit
    assert res.step_mass((0, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    # second repeat only sees the mass that did not terminate at Delta=0
    p0 = marginal_probability(res, 0, 0, 0, 0)
    assert res.step_mass((0, 0, 1)) == pytest.approx(1.0 - p0, abs=1e-10)


def test_channel_success_monotone_in_repeats():
    cfgs = [
        ProtocolConfig(n_atoms=6, max_repeats=L, max_rounds=1) for L in (1, 3, 9)
    ]
    vals = [
        success_probability(
            channel_statistics(x_polarized_state(c.basis), c), 0
        )
        for c in cfgs
    ]
    assert vals[0] < vals[1] < vals[2]


# ----------------------------------------------------------- Monte Carlo


def test_monte_carlo_requires_trajectories():
    cfg = ProtocolConfig(n_atoms=2, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_estimates(0, x_polarized_state(cfg.basis), cfg)


def test_monte_carlo_deterministic_with_seed():
    cfg = ProtocolConfig(n_atoms=4, max_rounds=2, seed=17)
    initial = x_polarized_state(cfg.basis)
    a = monte_carlo_estimates(200, initial, cfg)
    b = monte_carlo_estimates(200, initial, cfg)
    assert np.array_equal(a.round_success, b.round_success)
    assert np.array_equal(a.round_fidelity, b.round_fidelity)
    assert np.array_equal(a.first_marginals, b.first_marginals)


def test_monte_carlo_mmes_statistics():
    cfg = ProtocolConfig(n_atoms=3, max_rounds=2, seed=5)
    res = monte_carlo_estimates(50, mmes_state(cfg.basis), cfg)
    assert np.allclose(res.round_success, 1.0)
    assert np.allclose(res.round_first_success, 1.0)
    assert np.allclose(res.round_fidelity, 1.0, atol=1e-12)
    assert res.converged_fraction == 1.0
    assert res.capped_fraction == 0.0


def test_monte_carlo_agrees_with_channel_small_system():
    """Sampled statistics agree with the exact engine within 3 sigma (N=2)."""
    cfg = ProtocolConfig(n_atoms=2, max_repeats=3, max_rounds=2, seed=123)
    initial = x_polarized_state(cfg.basis)
    exact = channel_statistics(initial, cfg)
    mc = monte_carlo_estimates(4000, initial, cfg)
    for r in range(cfg.max_rounds):
        for est, se, truth in (
            (mc.round_success[r], mc.round_success_se[r], exact.round_success[r]),
            (
                mc.round_first_success[r],
                mc.round_first_success_se[r],
                exact.round_first_success[r],
            ),
            (mc.round_fidelity[r], mc.round_fidelity_se[r], exact.round_fidelity[r]),
        ):
            assert abs(est - truth) <= 3 * se + 1e-9


def test_monte_carlo_bell_case_marginals():
    """N=1: the first z-measurement marginal is (1/2, 1/2) over Delta."""
    cfg = ProtocolConfig(n_atoms=1, max_rounds=1, seed=9)
    mc = monte_carlo_estimates(4000, x_polarized_state(cfg.basis), cfg)
    assert mc.first_marginals[0, 0] == pytest.approx(0.5, abs=3 * 0.5 / np.sqrt(4000))
    cfg2 = ProtocolConfig(n_atoms=1, max_rounds=1)
    exact = channel_statistics(x_polarized_state(cfg2.basis), cfg2)
    assert marginal_probability(exact, 0) == pytest.approx(0.5, abs=1e-12)
    assert marginal_probability(exact, 1) == pytest.approx(0.5, abs=1e-12)
