"""Tests for exact enumeration, channel evolution and Monte Carlo analysis."""

import tracemalloc
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
import qndprep.analysis as analysis_module
from qndprep.analysis import _hand_off, _lab_traces
from qndprep.measurement import ProjectorSpec, _frame, branch_masks
from qndprep.protocol import correction_stack, resolve_angle


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


REPLAY_CASES = pytest.mark.parametrize(
    "extra",
    [
        {},
        {"sign_rule": "minus"},
        {
            "basis_order": ("z", (0.7, 0.3)),
            "angle_rule": lambda delta, n: 0.8 * np.pi * delta / n + 0.1,
        },
        {"angle_rule": "optimized", "max_rounds": 1},
        # every node of the last x measurement ends the run and was handed
        # over from z; some end it converged
        {"max_repeats": 1},
    ],
    ids=["split", "minus", "tilted-callable", "optimized", "one-repeat"],
)


@REPLAY_CASES
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


def random_state(basis, seed):
    """A seeded random complex input: neither real nor k1 <-> k2 symmetric."""
    rng = np.random.default_rng(seed)
    shape = (basis.dim, basis.dim)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return TwoModeState(basis, amps).normalized()


def assert_same_tree(bare, built):
    """Identical paths, flags and masses; fidelities and round arrays to 1e-14."""
    assert [t.path for t in bare.terminals] == [t.path for t in built.terminals]
    for a, b in zip(bare.terminals, built.terminals):
        assert (a.mass, a.capped, a.converged_at) == (b.mass, b.capped, b.converged_at)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-14)
    for name in ("terminal_mass", "pruned_mass", "capped_mass", "terminal_count", "node_cap_hit"):
        assert getattr(bare, name) == getattr(built, name)
    for name in ("round_success", "round_first_success", "round_fidelity"):
        assert np.max(np.abs(getattr(bare, name) - getattr(built, name))) < 1e-14
    assert bare.step_marginals.keys() == built.step_marginals.keys()
    for key, table in bare.step_marginals.items():
        assert np.array_equal(table, built.step_marginals[key])


@REPLAY_CASES
def test_enumeration_unbuilt_leaves_match_built_children(extra):
    """Without stored states a node whose children all end the run takes
    their fidelities from ``_lab_traces``' weight stack and builds none of
    them; storing states builds them.  Both give the same tree."""
    kw = dict(n_atoms=3, max_repeats=2, max_rounds=2, prune_threshold=1e-3)
    cfg = ProtocolConfig(**{**kw, **extra})
    initial = x_polarized_state(cfg.basis)
    bare = enumerate_tree(initial, cfg, store_states=False)
    built = enumerate_tree(initial, cfg, store_states=True)
    assert len(bare.terminals) > 10
    assert_same_tree(bare, built)


@pytest.mark.parametrize(
    "basis_order,seed", [(("z",), 3), (("x", (0.7, 0.3)), 17)], ids=["z-only", "x,tilted"]
)
def test_enumeration_frame_hand_off_random_input(basis_order, seed):
    """A complex input through one basis, and through x then a tilted basis:
    children handed between frames give the terminals their replay gives."""
    cfg = ProtocolConfig(
        n_atoms=3, max_repeats=2, max_rounds=2, basis_order=basis_order, prune_threshold=1e-4
    )
    initial = random_state(cfg.basis, seed)
    bare = enumerate_tree(initial, cfg, store_states=False)
    built = enumerate_tree(initial, cfg, store_states=True)
    assert len(bare.terminals) > 10
    assert_same_tree(bare, built)
    d = cfg.n_atoms + 1
    for term in built.terminals:
        replayed = replay_path(initial, cfg, term.path).amplitudes
        assert np.max(np.abs(replayed - term.state.amplitudes)) < 1e-12
        fidelity = abs(np.trace(replayed)) ** 2 / d / term.mass
        assert term.fidelity == pytest.approx(fidelity, abs=1e-12)


TRACE_BASES = ["z", "x", (0.7, 0.3)]
TRACE_RULES = {"line": "line", "callable": lambda delta, n: 0.8 * np.pi * delta / n + 0.1}


@pytest.mark.parametrize("sign_rule", ["split", "plus", "minus"])
@pytest.mark.parametrize("basis", TRACE_BASES, ids=str)
@pytest.mark.parametrize("rule", list(TRACE_RULES))
def test_lab_traces_match_lab_frame_construction(sign_rule, basis, rule):
    """w[i] . psi is the lab trace of u R[Delta_i] (masks[i] * psi) u^T, and
    m . psi that of u psi u^T, for a complex grid framed in ``basis``."""
    n = 4
    angle_rule = TRACE_RULES[rule]
    m, w = _lab_traces(basis, n, sign_rule, angle_rule)
    assert not (m.flags.writeable or w.flags.writeable)
    branches, masks = branch_masks(n, sign_rule)
    rots = correction_stack(n, angle_rule)
    u = _frame(basis, n)[0]
    u = np.eye(n + 1) if u is None else u
    framed = random_state(FockBasis(n), 5).amplitudes
    assert m @ framed.ravel() == pytest.approx(np.trace(u @ framed @ u.T), abs=1e-14)
    for i, (delta, _) in enumerate(branches):
        lab = u @ rots[delta] @ (masks[i] * framed) @ u.T
        assert abs(w[i] @ framed.ravel() - np.trace(lab)) < 1e-14


@pytest.mark.parametrize("src", TRACE_BASES, ids=str)
@pytest.mark.parametrize("dst", TRACE_BASES, ids=str)
def test_hand_off_matches_lab_frame_construction(src, dst):
    """v psi v^T equals psi taken to the lab frame from ``src`` and framed
    in ``dst``; v is read-only, and None when the frames agree."""
    n = 4
    v = _hand_off(src, dst, n)
    if src == dst:
        assert v is None
        return
    assert not v.flags.writeable
    eye = np.eye(n + 1)
    u_src = _frame(src, n)[0]
    uh_dst = _frame(dst, n)[1]
    u_src = eye if u_src is None else u_src
    uh_dst = eye if uh_dst is None else uh_dst
    framed = random_state(FockBasis(n), 9).amplitudes
    want = uh_dst @ (u_src @ framed @ u_src.T) @ uh_dst.T
    assert np.max(np.abs(v @ framed @ v.T - want)) < 1e-14


def test_enumeration_corrects_only_nodes_with_a_continuing_child(monkeypatch):
    """On the N=10, L=2, one-round tree, the nodes that end the run (the
    second x measurement) build no children: ``_correct`` runs only on the
    others.  Storing states builds the kept children of each run of
    run-ending nodes with one call; here a run is the run-ending children of
    one first x measurement, so the runs are the distinct ``path[:-2]``."""
    cfg = ProtocolConfig(n_atoms=10, max_repeats=2, max_rounds=1, prune_threshold=1e-10)
    initial = x_polarized_state(cfg.basis)
    calls = []
    correct = analysis_module._correct

    def counted(kids, *args):
        calls.append(len(kids))
        return correct(kids, *args)

    monkeypatch.setattr(analysis_module, "_correct", counted)
    res = enumerate_tree(initial, cfg)
    bare = list(calls)
    calls.clear()
    enumerate_tree(initial, cfg, store_states=True)
    # a terminal of a run-ending node has two outcomes of the x sequence
    leaves = [t for t in res.terminals if sum(s[1] == 1 for s in t.path) == 2]
    assert len(calls) - len(bare) == len({t.path[:-2] for t in leaves})
    assert sum(calls) - sum(bare) == len(leaves)
    assert (len(bare), res.expanded_nodes) == (354, 6178)


def at_run_end(cfg, path):
    """Whether a terminal comes from a node at the step whose children all
    end the run: the last basis of the last round, at the repeat cap."""
    last = (cfg.max_rounds - 1, len(cfg.basis_order) - 1)
    return sum(step[:2] == last for step in path) == cfg.max_repeats


N4 = dict(n_atoms=4, max_repeats=3, max_rounds=2, prune_threshold=1e-6)
PATH_TREE = dict(n_atoms=10, max_repeats=2, max_rounds=1, prune_threshold=1e-10)


@pytest.mark.parametrize(
    "kw,cap,reference_cap",
    [
        (N4, 1500, 20_000),
        ({**N4, "sign_rule": "minus"}, 968, 20_000),
        (PATH_TREE, 1237, None),
        (PATH_TREE, 3001, None),
    ],
    ids=["split", "minus", "path-tree-1237", "path-tree-3001"],
)
def test_enumeration_node_cap_cuts_a_run_of_run_ending_nodes(kw, cap, reference_cap):
    """A cap that falls between two run-ending siblings expands exactly
    ``cap`` nodes and leaves the rest unexplored: its terminals are the first
    ones of an enumeration with a larger cap (uncapped for the path tree; the
    N=4 trees take seconds uncapped, and their first 20 000 nodes are the
    same).  Storing states, which builds the cut run's children, gives the
    same tree."""
    cfg = ProtocolConfig(**kw)
    initial = x_polarized_state(cfg.basis)
    reference = enumerate_tree(initial, replace(cfg, node_cap=reference_cap or cfg.node_cap))
    res = enumerate_tree(initial, replace(cfg, node_cap=cap))
    # the cap cuts a run: terminals of one node's run-ending children lie on both sides
    new = enumerate_tree(initial, replace(cfg, node_cap=cap + 1)).terminals[res.terminal_count:]
    assert new and all(at_run_end(cfg, t.path) for t in new + res.terminals[-1:])
    assert new[0].path[:-2] == res.terminals[-1].path[:-2]
    assert res.node_cap_hit and res.expanded_nodes == cap
    assert reference.expanded_nodes > cap
    assert res.accounted_mass() == pytest.approx(1.0, abs=1e-12)
    head = reference.terminals[: res.terminal_count]
    assert [t.path for t in res.terminals] == [t.path for t in head]
    for a, b in zip(res.terminals, head):
        assert (a.capped, a.converged_at) == (b.capped, b.converged_at)
        assert a.mass == pytest.approx(b.mass, rel=1e-15, abs=0.0)
        assert a.fidelity == pytest.approx(b.fidelity, rel=1e-15, abs=0.0)
    assert_same_tree(res, enumerate_tree(initial, replace(cfg, node_cap=cap), store_states=True))


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
    "n,repeats,rounds,sign_rule,basis_order,seed",
    [
        pytest.param(1, 3, 2, "split", ("z", "x"), None, id="1-3-2-split"),
        pytest.param(2, 2, 2, "split", ("z", "x"), None, id="2-2-2-split"),
        pytest.param(2, 3, 2, "minus", ("z", "x"), None, id="2-3-2-minus"),
        pytest.param(2, 2, 2, "plus", ("z", "x"), None, id="2-2-2-plus"),
        pytest.param(3, 2, 1, "split", ("z", "x"), None, id="3-2-1-split"),
        pytest.param(4, 3, 1, "minus", ("z", "x"), None, id="4-3-1-minus"),
        pytest.param(4, 3, 1, "plus", ("z", "x"), None, id="4-3-1-plus"),
        pytest.param(2, 2, 1, "split", ("x", "z", "x"), None, id="2-2-1-split-xzx"),
        pytest.param(2, 2, 3, "split", ("z",), None, id="2-2-3-split-z"),
        pytest.param(2, 2, 2, "split", ((0.4, 1.1), "x"), 7, id="2-2-2-split-tilted,x-random"),
        pytest.param(3, 2, 2, "minus", ("z", (0.7, 0.3)), 11, id="3-2-2-minus-z,tilted-random"),
    ],
)
def test_channel_matches_unpruned_tree(n, repeats, rounds, sign_rule, basis_order, seed):
    """Density-matrix evolution agrees with exhaustive path enumeration.

    A seeded random complex input is neither real nor k1 <-> k2 symmetric,
    unlike the x-polarized one, so a transposed or misconjugated hand-off
    of the sequence labels between frames shows on it.
    """
    cfg = ProtocolConfig(
        n_atoms=n,
        max_repeats=repeats,
        max_rounds=rounds,
        sign_rule=sign_rule,
        basis_order=basis_order,
        prune_threshold=0.0,
        node_cap=50_000_000,
    )
    initial = None if seed is None else random_state(cfg.basis, seed)
    assert_channel_matches_tree(cfg, initial)


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


def assert_channel_matches_tree(cfg, initial=None):
    if initial is None:
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


def test_channel_peak_memory():
    """Only the whole ensemble is a (d, d, d, d) tensor, not the sequence
    labels.  The bound sits between the about 5.5 such tensors that N = 20
    peaks at and the 8.9 that full-tensor labels take."""
    cfg = ProtocolConfig(n_atoms=20, max_repeats=3, max_rounds=1)
    initial = x_polarized_state(cfg.basis)
    channel_statistics(initial, cfg)  # fill the frame and correction caches
    tracemalloc.start()
    try:
        channel_statistics(initial, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tensors = peak / ((cfg.n_atoms + 1) ** 4 * 16)
    print(f"channel peak at N=20: {tensors:.2f} (d,d,d,d) complex tensors")
    assert tensors <= 7.5


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
