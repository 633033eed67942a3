"""Tests for the adaptive repeat-until-success protocol loop."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

import qndprep.cli  # layer_targets also patches the CLI's bindings
from qndprep import (
    FockBasis,
    ProtocolConfig,
    adaptive_angle,
    apply_correction,
    mmes_state,
    monte_carlo_estimates,
    optimized_angle,
    overlap_magnitude,
    repeat_until_success,
    rotation_matrix,
    run_protocol,
    sample_outcome,
    x_polarized_state,
)
from qndprep.measurement import ProjectorSpec, projector_apply, to_measurement_frame
from qndprep.protocol import correction_stack, resolve_angle


# ---------------------------------------------------------------- angles


def test_adaptive_angle_line():
    assert adaptive_angle(0, 10) == 0.0
    assert adaptive_angle(5, 10) == pytest.approx(np.pi / 2)
    assert adaptive_angle(10, 10) == pytest.approx(np.pi)


def test_adaptive_angle_range_checked():
    with pytest.raises(ValueError):
        adaptive_angle(11, 10)
    with pytest.raises(ValueError):
        adaptive_angle(-1, 10)


def test_optimized_angle_defaults_to_line_without_state():
    assert optimized_angle(3, 10) == pytest.approx(adaptive_angle(3, 10))
    assert optimized_angle(0, 10) == 0.0


def test_optimized_angle_beats_line_on_zero_band_mass():
    """The grid-search angle maximizes the next-step Delta=0 probability."""
    basis = FockBasis(10)
    state = projector_apply(
        x_polarized_state(basis), ProjectorSpec(3, -1, "z")
    ).normalized()

    def p0_after(theta):
        corrected = apply_correction(state, 3, "z", theta)
        return np.sum(np.abs(np.diag(corrected.amplitudes)) ** 2)

    theta_opt = optimized_angle(3, 10, state, "z")
    assert p0_after(theta_opt) >= p0_after(adaptive_angle(3, 10)) - 1e-12


def test_resolve_angle_variants():
    assert resolve_angle("line", 2, 10) == pytest.approx(np.pi / 5)
    assert resolve_angle(lambda d, n: 0.1 * d, 3, 10) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        resolve_angle("nonsense", 1, 10)


# ------------------------------------------------------------ corrections


@pytest.mark.parametrize(
    "rule",
    ["line", "optimized", lambda delta, n: 0.0 if delta == 2 else 0.3 * delta],
    ids=["line", "optimized", "callable-with-zero"],
)
def test_correction_stack_matches_rotation(rule):
    """Row Delta is rotation_matrix(-theta), exactly 1 at Delta = 0 and theta = 0."""
    n = 4
    stack = correction_stack(n, rule)
    eye = np.eye(n + 1)
    assert stack.shape == (n + 1, n + 1, n + 1)
    assert np.array_equal(stack[0], eye)
    for delta in range(1, n + 1):
        theta = resolve_angle(rule, delta, n)
        want = eye if theta == 0.0 else rotation_matrix(-theta, FockBasis(n))
        assert np.array_equal(stack[delta], want)
    with pytest.raises(ValueError):
        stack[1, 0, 0] = 2.0  # read-only
    with pytest.raises(ValueError):
        correction_stack(n, "bogus")


def test_run_protocol_unknown_angle_rule_rejected():
    """An unknown rule fails even when no correction is ever needed."""
    cfg = ProtocolConfig(n_atoms=3, angle_rule="bogus")
    with pytest.raises(ValueError):
        run_protocol(mmes_state(cfg.basis), cfg)


def test_zero_delta_correction_is_identity():
    s = x_polarized_state(FockBasis(6))
    out = apply_correction(s, 0, "z")
    assert np.max(np.abs(out.amplitudes - s.amplitudes)) == 0.0


@pytest.mark.parametrize("basis", ["z", "x"])
def test_correction_preserves_norm(basis):
    s = x_polarized_state(FockBasis(8))
    out = apply_correction(s, 3, basis)
    assert out.squared_norm() == pytest.approx(1.0, abs=1e-12)


def test_correction_restores_diagonal_mass():
    """After a Delta band outcome, the correction boosts the Delta=0 weight."""
    basis = FockBasis(10)
    s = x_polarized_state(basis)
    for delta in (1, 2, 3):
        sign = (-1) ** delta  # movable branch: d(k,k+D) = (-1)^D d(k+D,k)
        projected = projector_apply(s, ProjectorSpec(delta, sign, "z")).normalized()
        before = np.sum(np.abs(np.diag(projected.amplitudes)) ** 2)
        corrected = apply_correction(projected, delta, "z")
        after = np.sum(np.abs(np.diag(corrected.amplitudes)) ** 2)
        assert before == pytest.approx(0.0, abs=1e-20)
        assert after > 0.2


def test_correction_x_frame_consistency():
    """An x-basis correction is the z-frame correction conjugated by U."""
    from qndprep.measurement import from_measurement_frame, to_measurement_frame

    s = projector_apply(
        x_polarized_state(FockBasis(6)), ProjectorSpec(2, +1, "x")
    ).normalized()
    direct = apply_correction(s, 2, "x")
    framed = to_measurement_frame(s, "x")
    corrected = apply_correction(framed, 2, "z")
    back = from_measurement_frame(corrected, "x")
    assert np.max(np.abs(direct.amplitudes - back.amplitudes)) < 1e-12


# ------------------------------------------------------------- config


def test_config_defaults_and_validation():
    cfg = ProtocolConfig(n_atoms=10)
    assert cfg.tau == pytest.approx(np.pi / 20)
    assert cfg.basis_order == ("z", "x")
    with pytest.raises(ValueError):
        ProtocolConfig(n_atoms=0)
    with pytest.raises(ValueError):
        ProtocolConfig(n_atoms=2, max_repeats=0)
    with pytest.raises(ValueError):
        ProtocolConfig(n_atoms=2, max_rounds=0)
    with pytest.raises(ValueError, match="basis_order"):
        ProtocolConfig(n_atoms=2, basis_order=())
    for cap in (0, -3):
        with pytest.raises(ValueError, match="node_cap"):
            ProtocolConfig(n_atoms=2, node_cap=cap)
    assert ProtocolConfig(n_atoms=2, node_cap=1).node_cap == 1


# --------------------------------------------------- repeat-until-success


def test_mmes_terminates_immediately():
    cfg = ProtocolConfig(n_atoms=5, seed=0)
    state = mmes_state(cfg.basis)
    rng = np.random.default_rng(0)
    out, sub = repeat_until_success(state, "z", cfg, rng)
    assert sub.deltas == (0,)
    assert not sub.capped
    assert overlap_magnitude(out, state) > 1 - 1e-12


def test_terminated_sequence_state_is_zero_band_fixed_point():
    cfg = ProtocolConfig(n_atoms=10, seed=3)
    rng = np.random.default_rng(3)
    state = x_polarized_state(cfg.basis)
    out, sub = repeat_until_success(state, "z", cfg, rng)
    assert sub.deltas[-1] == 0
    projected = projector_apply(out, ProjectorSpec(0, +1, "z"))
    assert np.max(np.abs(projected.amplitudes - out.amplitudes)) < 1e-10


def test_repeat_cap_is_flagged_not_fatal():
    cfg = ProtocolConfig(n_atoms=10, max_repeats=1, seed=11)
    rng = np.random.default_rng(11)
    state = x_polarized_state(cfg.basis)
    # with a cap of one repeat, most draws end without reaching Delta=0
    capped_seen = False
    for _ in range(50):
        out, sub = repeat_until_success(state, "z", cfg, rng)
        assert out.is_normalized(tol=1e-9)
        if sub.capped:
            capped_seen = True
            assert sub.deltas[-1] != 0
    assert capped_seen


def test_subsequence_probability_is_product():
    cfg = ProtocolConfig(n_atoms=6, seed=5)
    rng = np.random.default_rng(5)
    _, sub = repeat_until_success(x_polarized_state(cfg.basis), "z", cfg, rng)
    prod = 1.0
    for rec in sub.records:
        prod *= rec.born_probability
    assert sub.probability == pytest.approx(prod)
    assert sub.first_delta == sub.records[0].spec.delta


# ------------------------------------------------------------ full runs


def test_protocol_fixed_point_on_mmes():
    cfg = ProtocolConfig(n_atoms=8, max_rounds=3, seed=1)
    state = mmes_state(cfg.basis)
    rec = run_protocol(state, cfg)
    assert rec.converged_at == 1
    assert rec.round_fidelities == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    for rnd in rec.rounds:
        for sub in rnd:
            assert sub.deltas == (0,)


def test_protocol_determinism():
    cfg = ProtocolConfig(n_atoms=10, max_rounds=2, seed=42)
    state = x_polarized_state(cfg.basis)
    a = run_protocol(state, cfg)
    b = run_protocol(state, cfg)
    assert [s.deltas for r in a.rounds for s in r] == [
        s.deltas for r in b.rounds for s in r
    ]
    assert a.round_fidelities == b.round_fidelities
    assert np.array_equal(a.terminal_state.amplitudes, b.terminal_state.amplitudes)


def test_protocol_input_validation():
    cfg = ProtocolConfig(n_atoms=4, seed=0)
    with pytest.raises(ValueError):
        run_protocol(x_polarized_state(FockBasis(5)), cfg)
    import numpy as _np
    from qndprep import TwoModeState

    bad = TwoModeState(FockBasis(4), _np.eye(5) * 0.2)
    with pytest.raises(ValueError):
        run_protocol(bad, cfg)


def test_mean_fidelity_nondecreasing_over_rounds():
    """Ensemble-mean fidelity grows round over round (statistical trend)."""
    cfg = ProtocolConfig(n_atoms=10, max_rounds=3, seed=7)
    state = x_polarized_state(cfg.basis)
    rng = np.random.default_rng(7)
    sums = np.zeros(3)
    n_traj = 400
    for _ in range(n_traj):
        rec = run_protocol(state, cfg, rng)
        sums += rec.round_fidelities
    means = sums / n_traj
    # allow 3-sigma slack on the Monte Carlo estimate
    assert means[0] < means[1] + 0.05
    assert means[1] < means[2] + 0.05
    assert means[2] > means[0]


def test_rounds_recorded_and_convergence_flag():
    cfg = ProtocolConfig(n_atoms=10, max_rounds=3, seed=21)
    rec = run_protocol(x_polarized_state(cfg.basis), cfg)
    assert len(rec.rounds) == 3
    assert all(len(rnd) == 2 for rnd in rec.rounds)
    if rec.converged_at is not None:
        rnd = rec.rounds[rec.converged_at - 1]
        assert all(sub.first_delta == 0 for sub in rnd)


# ------------------------------------------------- replay of the sampler


def reference_sequence(state, basis, cfg, rng):
    """One sequence as sample_outcome then apply_correction, in the lab frame."""
    records = []
    current = state
    for _ in range(cfg.max_repeats):
        record, current = sample_outcome(current, basis, rng, cfg.sign_rule)
        records.append(record)
        if record.spec.delta == 0:
            return current, records, False
        theta = resolve_angle(
            cfg.angle_rule, record.spec.delta, cfg.n_atoms, current, basis
        )
        current = apply_correction(current, record.spec.delta, basis, theta)
    return current, records, True


def reference_protocol(initial, cfg, rng):
    """Per-round [(records, capped)] and per-round fidelities to the MMES."""
    target = mmes_state(initial.basis)
    current = initial
    rounds, fidelities = [], []
    for _ in range(cfg.max_rounds):
        subs = []
        for basis in cfg.basis_order:
            current, records, capped = reference_sequence(current, basis, cfg, rng)
            subs.append((records, capped))
        rounds.append(subs)
        fidelities.append(overlap_magnitude(target, current) ** 2)
    return rounds, fidelities


REPLAY_CASES = {
    "split": dict(),
    "plus": dict(sign_rule="plus"),
    "minus": dict(sign_rule="minus"),
    "x-first": dict(basis_order=("x", "z")),
    "tilted": dict(basis_order=((0.7, 0.3), "x")),
    "callable": dict(angle_rule=lambda delta, n: 0.9 * np.pi * delta / n + 0.05),
    "optimized": dict(angle_rule="optimized", max_rounds=2),
    "cap-1": dict(max_repeats=1),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_sequence_replays_reference(case):
    """repeat_until_success draws the outcomes sample_outcome would, per seed."""
    kwargs = dict(n_atoms=10, max_rounds=3)
    kwargs.update(REPLAY_CASES[case])
    cfg = ProtocolConfig(**kwargs)
    for seed in range(12):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        current = ref = x_polarized_state(cfg.basis)
        for _ in range(cfg.max_rounds):
            for basis in cfg.basis_order:
                current, sub = repeat_until_success(current, basis, cfg, rng)
                ref, records, capped = reference_sequence(ref, basis, cfg, ref_rng)
                assert [(r.spec.delta, r.spec.branch_sign) for r in sub.records] == [
                    (r.spec.delta, r.spec.branch_sign) for r in records
                ]
                assert all(r.spec.basis == basis for r in sub.records)
                assert sub.capped == capped
                np.testing.assert_allclose(
                    [r.born_probability for r in sub.records],
                    [r.born_probability for r in records],
                    rtol=0,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    current.amplitudes, ref.amplitudes, rtol=0, atol=1e-12
                )
        assert rng.random() == ref_rng.random()  # both streams at the same place


def test_monte_carlo_matches_reference_loop():
    cfg = ProtocolConfig(n_atoms=10, max_rounds=3)
    initial = x_polarized_state(cfg.basis)
    n_traj = 300
    mc = monte_carlo_estimates(n_traj, initial, cfg, np.random.default_rng(2024))

    rng = np.random.default_rng(2024)
    success = np.zeros(3)
    first_success = np.zeros(3)
    fidelity = np.zeros(3)
    marginals = np.zeros((3, cfg.n_atoms + 1))
    converged = capped_runs = 0
    for _ in range(n_traj):
        rounds, fids = reference_protocol(initial, cfg, rng)
        firsts = [[records[0].spec.delta for records, _ in subs] for subs in rounds]
        for r, subs in enumerate(rounds):
            success[r] += not any(capped for _, capped in subs)
            first_success[r] += all(d == 0 for d in firsts[r])
            marginals[r, firsts[r][0]] += 1
        fidelity += fids
        converged += any(all(d == 0 for d in f) for f in firsts)
        capped_runs += any(capped for subs in rounds for _, capped in subs)

    # identical counts give bit-identical frequencies
    assert np.array_equal(mc.round_success, success / n_traj)
    assert np.array_equal(mc.round_first_success, first_success / n_traj)
    assert np.array_equal(mc.first_marginals, marginals / n_traj)
    assert mc.converged_fraction == converged / n_traj
    assert mc.capped_fraction == capped_runs / n_traj
    np.testing.assert_allclose(mc.round_fidelity, fidelity / n_traj, rtol=0, atol=1e-12)


def test_optimized_angle_matches_per_angle_scan():
    basis = FockBasis(10)
    for spec, frame in (
        (ProjectorSpec(3, -1, "z"), "z"),
        (ProjectorSpec(2, +1, "x"), "x"),
        (ProjectorSpec(5, -1, (0.7, 0.3)), (0.7, 0.3)),
    ):
        state = projector_apply(x_polarized_state(basis), spec).normalized()
        framed = to_measurement_frame(state, frame).amplitudes
        thetas = np.linspace(0.0, np.pi, 241)
        p0s = [
            np.sum(np.abs(np.diagonal(rotation_matrix(-t, basis) @ framed)) ** 2)
            for t in thetas
        ]
        best = int(np.argmax(p0s))  # the first maximum
        theta = optimized_angle(spec.delta, 10, state, frame)
        assert theta == thetas[best]
        corrected = rotation_matrix(-theta, basis) @ framed
        assert np.sum(np.abs(np.diagonal(corrected)) ** 2) == pytest.approx(
            p0s[best], abs=1e-12
        )


def test_traced_bindings_exist():
    """Every (module, attribute) the benchmark's tracer patches is importable."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing",
        os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py"),
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.layer_targets(qndprep)
    for module, attr, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    # every binding kept only for the tracer names a (module, attr) it patches
    patched = {(module.__name__, attr) for module, attr, _ in targets}
    tag = "# noqa: F401  perfbench/tracing.py wraps this binding"
    tagged = []
    for path in sorted(Path(qndprep.__file__).parent.glob("*.py")):
        for line in path.read_text().splitlines():
            if tag in line:
                name = line.split("#")[0].strip().rstrip(",").split()[-1]
                tagged.append((f"qndprep.{path.stem}", name))
    assert tagged
    assert set(tagged) <= patched, sorted(set(tagged) - patched)
