"""Exact and statistical analysis of the preparation protocol.

Three engines compute the same statistics:

* ``enumerate_tree`` expands every (Delta, sign) branch of the outcome tree
  depth-first, heaviest child first, carrying unnormalized states whose
  squared norms are the branch probabilities.  It shares the sampler's
  frame (``measurement._frame``), branch masses
  (``measurement._branch_masses``) and correction (``protocol._correct``).
  Branch mass below the pruning threshold is dropped but tallied, so
  terminal + pruned + unexplored mass always accounts for the full unit of
  probability.  Exact for small systems; at N = 10 the tree fragments
  (roughly 40% of the mass sits in branches below 1e-10), so path-level
  enumeration cannot be both exact and bounded.
* ``channel_statistics`` evolves the branch-ensemble density matrix through
  the measurement-and-correction channel.  All aggregate statistics
  (marginals, success probabilities, average fidelity) are linear in the
  density matrix, so this is exact with no pruning at all, at the cost of
  not resolving individual outcome paths.  Inside a repeat-until-success
  sequence the ensemble lives in the measurement frame as signed-band
  blocks, indexed by the offset k2 - k1, k2 and k2', so one
  measure-and-correct step costs O(d^4) with d = N + 1; the O(d^5) frame
  changes of the full (d, d, d, d) tensor happen only at sequence
  boundaries.  Its frames come from ``measurement._frame``, its band sign
  from ``measurement.branch_masks`` and its rotations from
  ``protocol.correction_stack``.  N = 30 with L = 25 and three rounds takes
  seconds.
* ``monte_carlo_estimates`` cross-checks both by Born-rule sampling of
  ``run_protocol`` trajectories.  Each repeat-until-success sequence runs in
  its measurement frame with the tree's three helpers, one uniform draw per
  step (``protocol.repeat_until_success``), so a seed gives the outcomes of
  ``sample_outcome`` followed by ``apply_correction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fock import TwoModeState
from .fock import rotation_matrix  # noqa: F401  perfbench/tracing.py wraps this binding
from .measurement import (
    BasisSpec,
    ProjectorSpec,
    _branch_masses,
    _frame,
    branch_masks,
    from_measurement_frame,  # noqa: F401  perfbench/tracing.py wraps this binding
    projector_apply,
    to_measurement_frame,
)
from .protocol import (
    ProtocolConfig,
    _correct,
    apply_correction,
    correction_stack,
    run_protocol,
)

__all__ = [
    "CorrectionSpec",
    "StepKey",
    "SequenceTreeNode",
    "EnumerationResult",
    "ChannelResult",
    "MonteCarloResult",
    "fock_grid",
    "enumerate_tree",
    "channel_statistics",
    "marginal_probability",
    "success_probability",
    "first_success_probability",
    "average_fidelity",
    "monte_carlo_estimates",
]


@dataclass(frozen=True)
class CorrectionSpec:
    """Adaptive S^y rotation on ensemble 1, in the given measurement frame."""

    delta: int
    basis: BasisSpec = "z"
    theta: Optional[float] = None  # defaults to protocol.adaptive_angle


OperatorSpec = Union[ProjectorSpec, CorrectionSpec]

# (round index, basis index within the round, repeat index), all 0-based.
StepKey = Tuple[int, int, int]


@dataclass
class SequenceTreeNode:
    """A terminal branch of the enumerated outcome tree."""

    mass: float
    fidelity: float
    path: Tuple[Tuple[int, int, int, int], ...]  # (round, basis_idx, delta, sign)
    capped: bool
    converged_at: Optional[int]
    state: Optional[TwoModeState] = None


@dataclass
class EnumerationResult:
    """Aggregated statistics of one exact tree enumeration."""

    config: ProtocolConfig
    terminals: List[SequenceTreeNode]
    terminal_mass: float
    pruned_mass: float
    unexplored_mass: float
    capped_mass: float
    node_cap_hit: bool
    # step_marginals[(r, b, j)][delta] = probability mass (signs aggregated)
    step_marginals: Dict[StepKey, np.ndarray]
    # round_success[r] = mass whose round-r sequences all terminated with
    # Delta = 0 (the sequence-end marginal; capped sequences are failures)
    round_success: np.ndarray
    # round_first_success[r] = mass whose round-r sequences all opened with
    # Delta = 0 (the convergence criterion)
    round_first_success: np.ndarray
    # round_fidelity[r] = sum over branches of |<MMES|psi_tilde>|^2 at round end
    round_fidelity: np.ndarray
    # nodes whose children were computed (at most config.node_cap)
    expanded_nodes: int = 0
    # terminal branches reached; ``terminals`` holds them only when
    # ``enumerate_tree`` stores states or paths, and is empty otherwise
    terminal_count: int = 0

    def accounted_mass(self) -> float:
        return self.terminal_mass + self.pruned_mass + self.unexplored_mass

    def step_mass(self, key: StepKey) -> float:
        return float(self.step_marginals[key].sum())


def fock_grid(
    operator_string: Sequence[OperatorSpec],
    initial: TwoModeState,
    grid_basis: BasisSpec = "z",
) -> np.ndarray:
    """Probability grid |psi(k1, k2)|^2 after an operator string.

    Operators are applied in list order (first element acts first).  The
    grid is reported in the frame of ``grid_basis``.
    """
    state = initial
    for op in operator_string:
        if isinstance(op, ProjectorSpec):
            state = projector_apply(state, op)
        elif isinstance(op, CorrectionSpec):
            state = apply_correction(state, op.delta, op.basis, op.theta)
        else:
            raise TypeError(f"unsupported operator spec {op!r}")
    return to_measurement_frame(state, grid_basis).probability_grid()


@dataclass
class _LiveNode:
    amps: np.ndarray  # unnormalized, lab frame
    step: StepKey  # the (round, basis, repeat) this node measures next
    first_ok: bool  # every sequence of this round so far opened with Delta = 0
    round_capped: bool  # a sequence of this round ended at max_repeats
    capped: bool  # a sequence of any round ended at max_repeats
    converged_at: Optional[int]  # 1-based first round with first_ok at its end
    path: Tuple[Tuple[int, int, int, int], ...]


def enumerate_tree(
    initial: TwoModeState,
    config: ProtocolConfig,
    store_states: bool = False,
    store_paths: bool = True,
) -> EnumerationResult:
    """Exact expansion of the protocol's stochastic outcome tree.

    Depth-first, so live memory stays proportional to tree depth.  A node
    enters its measurement frame once; ``_branch_masses`` gives the masses
    of all its (Delta, sign) children, and only those that survive pruning
    are built from the ``branch_masks`` stack, corrected by ``_correct`` and
    changed back, each step batched over them.

    A child's next step and flags depend only on the node's step and on
    whether its Delta is 0, so each node works them out once per case.
    Children are expanded heaviest first, so a run that hits
    ``config.node_cap`` has spent its budget on the heavier branches.
    Branches below ``config.prune_threshold`` (absolute probability before
    the correction) are dropped and their mass reported in ``pruned_mass``.
    """
    if initial.n_atoms != config.n_atoms:
        raise ValueError("initial state and config disagree on n_atoms")
    branches, masks = branch_masks(config.n_atoms, config.sign_rule)

    n = config.n_atoms
    d = n + 1
    n_bases = len(config.basis_order)

    marginals: Dict[StepKey, np.ndarray] = {}
    round_success = [0.0] * config.max_rounds
    round_first_success = [0.0] * config.max_rounds
    round_fidelity = [0.0] * config.max_rounds
    terminals: List[SequenceTreeNode] = []
    pruned_mass = 0.0
    terminal_mass = 0.0
    capped_mass = 0.0
    unexplored_mass = 0.0
    node_cap_hit = False
    expansions = 0
    terminal_count = 0

    deltas = np.array([delta for delta, _ in branches])

    root = np.array(initial.amplitudes, dtype=complex)
    stack = [_LiveNode(root, (0, 0, 0), True, False, False, None, ())]
    while stack:
        node = stack.pop()
        if expansions >= config.node_cap:
            node_cap_hit = True
            unexplored_mass += float(np.sum(np.abs(node.amps) ** 2))
            continue
        expansions += 1

        r, b, j = node.step
        u, uh = _frame(config.basis_order[b], n)
        framed = node.amps if u is None else uh @ node.amps @ uh.T
        masses = _branch_masses(framed, config.sign_rule)
        if node.step not in marginals:
            marginals[node.step] = np.zeros(d)
        np.add.at(marginals[node.step], deltas, masses)  # in child order
        keep = (masses > 0.0) & (masses >= config.prune_threshold)
        pruned_mass += float(masses[~keep].sum())
        idx = np.flatnonzero(keep).tolist()
        if not idx:
            continue
        kids = _correct(masks[idx] * framed, deltas[idx], config)
        if u is not None:
            kids = u @ kids @ u.T
        traces = np.trace(kids, axis1=1, axis2=2).tolist()
        masses = masses.tolist()

        # where the children go, by whether their Delta is 0: a sequence ends
        # at Delta = 0 or at the repeat cap, a round after its last basis
        cap = j + 1 >= config.max_repeats
        moves = {
            True: ((r, b + 1, 0), node.first_ok, node.round_capped, node.capped),
            False: (
                (r, b + 1, 0) if cap else (r, b, j + 1),
                False,  # this sequence did not open with Delta = 0
                node.round_capped or cap,
                node.capped or cap,
            ),
        }
        live: List[Tuple[float, _LiveNode]] = []
        for p, i in enumerate(idx):
            delta, sign = branches[i]
            mass = masses[i]
            step, first_ok, round_capped, capped = moves[delta == 0]
            converged_at = node.converged_at
            path = node.path + ((r, b, delta, sign),) if store_paths else node.path
            if step[1] == n_bases:  # round boundary
                # |<MMES|psi_tilde>|^2 = |sum_k psi(k,k)|^2 / (N+1)
                fid = abs(traces[p]) ** 2 / d
                round_fidelity[r] += fid
                if not round_capped:
                    round_success[r] += mass
                if first_ok:
                    round_first_success[r] += mass
                    if converged_at is None:
                        converged_at = r + 1
                if r + 1 >= config.max_rounds:
                    terminal_mass += mass
                    terminal_count += 1
                    if capped:
                        capped_mass += mass
                    if store_states or store_paths:
                        terminals.append(
                            SequenceTreeNode(
                                mass=mass,
                                fidelity=fid / mass,
                                path=path,
                                capped=capped,
                                converged_at=converged_at,
                                # a copy, so the node's child stack is not kept alive
                                state=(
                                    TwoModeState(initial.basis, kids[p].copy())
                                    if store_states
                                    else None
                                ),
                            )
                        )
                    continue
                step, first_ok, round_capped = (r + 1, 0, 0), True, False
            child = _LiveNode(kids[p], step, first_ok, round_capped, capped, converged_at, path)
            live.append((mass, child))
        # ascending mass: the heaviest child is popped first
        live.sort(key=lambda item: item[0])
        stack.extend(child for _, child in live)

    return EnumerationResult(
        config=config,
        terminals=terminals,
        terminal_mass=terminal_mass,
        pruned_mass=pruned_mass,
        unexplored_mass=unexplored_mass,
        capped_mass=capped_mass,
        node_cap_hit=node_cap_hit,
        step_marginals=marginals,
        round_success=np.array(round_success),
        round_first_success=np.array(round_first_success),
        round_fidelity=np.array(round_fidelity),
        expanded_nodes=expansions,
        terminal_count=terminal_count,
    )


@dataclass
class ChannelResult:
    """Exact aggregate statistics from density-matrix channel evolution.

    Carries the same round-level arrays as EnumerationResult but with no
    pruning: the branch ensemble is evolved as a density matrix, which is
    exact for every statistic linear in the branch probabilities.
    """

    config: ProtocolConfig
    step_marginals: Dict[StepKey, np.ndarray]
    round_success: np.ndarray
    round_first_success: np.ndarray
    round_fidelity: np.ndarray
    total_mass: float

    # channel evolution never prunes or caps; mirror the enumeration API
    pruned_mass: float = 0.0
    unexplored_mass: float = 0.0
    node_cap_hit: bool = False

    def accounted_mass(self) -> float:
        return self.total_mass

    def step_mass(self, key: StepKey) -> float:
        return float(self.step_marginals[key].sum())


def _frame_change(rho: np.ndarray, u: Optional[np.ndarray]) -> np.ndarray:
    """(u x u) rho (u x u)^dagger on rho[k1, k2, k1', k2']; None is 1."""
    if u is None:
        return rho
    d = u.shape[0]
    rho = (u @ rho.reshape(d, -1)).reshape(d, d, d * d)  # k1
    rho = (u @ rho).reshape(d * d, d, d)  # k2
    return (u.conj() @ rho @ u.conj().T).reshape(d, d, d, d)  # k1', k2'


def channel_statistics(
    initial: TwoModeState,
    config: ProtocolConfig,
) -> ChannelResult:
    """Exact protocol statistics via branch-ensemble (density matrix) evolution.

    Sequence bookkeeping (termination at Delta = 0, the repeat cap) is a
    classical label tracked as separate components.  Only outcome-indexed
    angle rules are supported: a state-dependent rule is not linear.

    Within a sequence each component is held in the measurement frame as
    signed-band blocks, s = k2 - k1: ``blocks[0, s, k2, k2']`` is
    rho[k2-s, k2, k2'-s, k2'] and, under ``plus``/``minus``,
    ``blocks[1, s, k2, k2']`` is sign * rho[k2-s, k2, k2'+s, k2'].  ``split``
    has no such coherence: (m+ m+^T + m- m-^T) / 2 = A A^T + B B^T.  The
    correction acts on ensemble 1 and keeps k2, so "drop Delta = 0, correct,
    measure" maps blocks to blocks in O(d^4), d = N + 1; full (d, d, d, d)
    tensors and their O(d^5) frame changes appear only between sequences.
    """
    if initial.n_atoms != config.n_atoms:
        raise ValueError("initial state and config disagree on n_atoms")
    if config.angle_rule == "optimized":
        raise ValueError(
            "channel_statistics requires an outcome-indexed angle rule; "
            "the state-dependent 'optimized' rule is not linear in the "
            "branch ensemble"
        )
    n = config.n_atoms
    d = n + 1
    n_bands = 2 * n + 1
    # split has both signs of each Delta != 0, and no +-Delta coherence
    branches, _ = branch_masks(n, config.sign_rule)
    sign = 0.0 if len(branches) > d else float(branches[-1][1])
    kinds = 1 if sign == 0.0 else 2
    k = np.arange(d)
    # k1 = k2 - s of the band-s cell in column k2, and whether it exists
    k1 = k[None, :] - np.arange(-n, n + 1)[:, None]
    valid = (k1 >= 0) & (k1 <= n)
    k1 = np.clip(k1, 0, n)
    # column index and weight of each block kind
    pairs = [(k1, valid[:, :, None] & valid[:, None, :]),
             (k1[::-1], sign * (valid[:, :, None] & valid[::-1, None, :]))][:kinds]
    # R_|s| = exp(+i S^y theta/2) is real; band 0 ends the sequence, and its
    # zero row keeps it out of the capped part
    rots = correction_stack(n, config.angle_rule).real[np.abs(np.arange(-n, d))]
    rots[n] = 0.0
    # col[s, a, k2] = R_|s|[a, k2 - s]: where R takes the band-s cell, and
    # gat[t, s, k2] = R_|s|[k2 - t, k2 - s]: the part of it on band t
    col = rots[np.arange(n_bands)[:, None, None], k[:, None], k1[:, None, :]]
    col *= valid[:, None, :]
    gat = col[:, k1, k].transpose(1, 0, 2) * valid[:, None, :]
    # a band-t row meets band t (kind 0) or, with the sign, band -t (kind 1)
    gat_col = (gat, sign * gat[::-1])[:kinds]
    # per band s != 0 and input kind: rows (band-s cells), cols (band-+s
    # cells), the bands ts that R_|s| reaches, weights per output kind
    terms = []
    for s in range(-n, n + 1):
        rows = slice(max(s, 0), d + min(s, 0))
        ts = slice(max(s, 0), n_bands + min(s, 0))
        for kin, sc in ((0, s), (1, -s))[: kinds if s else 0]:
            cols = slice(max(sc, 0), d + min(sc, 0))
            a = gat[ts, n + s, rows, None]
            coef = np.stack([a * g[ts, n + sc, None, cols] for g in gat_col])
            terms.append((kin, n + s, ts, rows, cols, coef))
    # corrected cap part: rho[a, k, b, l] = sum col[s, a, k] x[s, k, l] col[+-s, b, l]
    col_a = col.transpose(2, 1, 0)[:, None]
    col_b = [c.transpose(2, 0, 1) for c in (col, col[::-1])]
    marginals: Dict[StepKey, np.ndarray] = {}
    round_success = np.zeros(config.max_rounds)
    round_first_success = np.zeros(config.max_rounds)
    round_fidelity = np.zeros(config.max_rounds)

    def run_sequence(comps: List[np.ndarray], r: int, b: int) -> List[np.ndarray]:
        """One repeat-until-success sequence on lab-frame [total] or [first,
        clean, total] (emptied once measured); returns the new [first, clean,
        total].  ``total``, the whole ensemble, sets the step marginals."""
        u, uh = _frame(config.basis_order[b], n)
        blocks = np.array([
            [f[k1[:, :, None], k[:, None], kc[:, None, :], k] * w for kc, w in pairs]
            for f in (_frame_change(c, uh) for c in comps)
        ])
        comps.clear()
        first_zero, blocks = blocks[0, 0, n], blocks[-2:]
        zero = np.zeros_like(blocks[:, 0, n])
        for j in range(config.max_repeats):
            if j:  # drop band 0, correct every other band, measure again
                prev, blocks = blocks, np.zeros_like(blocks)
                for kin, s_idx, ts, rows, cols, coef in terms:
                    part = prev[:, kin, s_idx, None, None, rows, cols]
                    blocks[:, :, ts, rows, cols] += coef * part
            blocks[:, 1:, n] = 0.0  # band 0 has no coherence
            zero += blocks[:, 0, n]
            tr = np.einsum("skk->s", blocks[-1, 0]).real
            marginals[(r, b, j)] = np.append(tr[n], tr[n + 1:] + tr[n - 1::-1])
        capped = sum(
            (col_a * blocks[-1, kin].transpose(1, 2, 0)[:, :, None]) @ col_b[kin]
            for kin in range(kinds)
        ).transpose(2, 0, 3, 1)
        out = []
        for i, zero_block in enumerate((first_zero, zero[0], zero[-1])):
            part = capped if i == 2 else np.zeros((d, d, d, d), complex)
            np.einsum("kkll->kl", part)[...] += zero_block  # band 0 at rho[k, k, l, l]
            out.append(_frame_change(part, u))
        return out

    rho = np.einsum("ij,kl->ijkl", initial.amplitudes, initial.amplitudes.conj())
    for r in range(config.max_rounds):
        # first: every sequence so far opened with Delta = 0; clean: none hit
        # the repeat cap; total: the whole ensemble
        comps = [rho]
        for b in range(len(config.basis_order)):
            comps = run_sequence(comps, r, b)
        first, clean, rho = comps
        round_first_success[r] = np.einsum("ijij->", first).real
        round_success[r] = np.einsum("ijij->", clean).real
        round_fidelity[r] = np.einsum("kkll->", rho).real / d  # <MMES|rho|MMES>

    return ChannelResult(
        config=config,
        step_marginals=marginals,
        round_success=round_success,
        round_first_success=round_first_success,
        round_fidelity=round_fidelity,
        total_mass=float(np.einsum("ijij->", rho).real),
    )


AnalysisResult = Union[EnumerationResult, "ChannelResult"]


def marginal_probability(
    result: AnalysisResult,
    delta: int,
    round_idx: int = 0,
    basis_idx: int = 0,
    repeat_idx: int = 0,
) -> float:
    """Total probability of outcome Delta at one measurement step.

    Aggregated over branch signs and over all histories reaching that step;
    summing over Delta gives the mass that reached the step.
    """
    key = (round_idx, basis_idx, repeat_idx)
    if key not in result.step_marginals:
        raise KeyError(f"enumeration did not reach step {key}")
    return float(result.step_marginals[key][delta])


def success_probability(result: AnalysisResult, round_idx: int) -> float:
    """Mass whose round-r sequences all terminated with Delta = 0.

    This is the sequence-end marginal p(Delta_L = 0): a sequence succeeds
    when it reaches Delta = 0 within the repeat cap, and the round succeeds
    when every one of its sequences does.
    """
    return float(result.round_success[round_idx])


def first_success_probability(result: AnalysisResult, round_idx: int) -> float:
    """Mass whose round opened with Delta = 0 in every basis of the round.

    This is the protocol's convergence criterion; it is strictly more
    demanding than success_probability.
    """
    return float(result.round_first_success[round_idx])


def average_fidelity(result: AnalysisResult, round_idx: int = -1) -> float:
    """Probability-weighted fidelity to the MMES at a round boundary."""
    return float(result.round_fidelity[round_idx])


@dataclass
class MonteCarloResult:
    """Sampled protocol statistics with binomial/sample standard errors."""

    config: ProtocolConfig
    n_trajectories: int
    round_success: np.ndarray
    round_success_se: np.ndarray
    round_first_success: np.ndarray
    round_first_success_se: np.ndarray
    round_fidelity: np.ndarray
    round_fidelity_se: np.ndarray
    # first_z_marginals[r, delta]: frequency of Delta on the round's first
    # measurement in the first basis
    first_marginals: np.ndarray
    first_marginals_se: np.ndarray
    converged_fraction: float
    capped_fraction: float


def monte_carlo_estimates(
    n_trajectories: int,
    initial: TwoModeState,
    config: ProtocolConfig,
    rng: Optional[np.random.Generator] = None,
) -> MonteCarloResult:
    """Born-rule sampling cross-check of the enumeration statistics."""
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be at least 1")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    m = config.max_rounds
    d = config.n_atoms + 1
    success_counts = np.zeros(m)
    first_success_counts = np.zeros(m)
    fidelity_sum = np.zeros(m)
    fidelity_sq_sum = np.zeros(m)
    first_counts = np.zeros((m, d))
    converged = 0
    capped = 0
    for _ in range(n_trajectories):
        rec = run_protocol(initial, config, rng)
        for r, subs in enumerate(rec.rounds):
            if not any(sub.capped for sub in subs):
                success_counts[r] += 1
            if all(sub.first_delta == 0 for sub in subs):
                first_success_counts[r] += 1
            first_counts[r, subs[0].first_delta] += 1
        f = np.asarray(rec.round_fidelities)
        fidelity_sum += f
        fidelity_sq_sum += f**2
        if rec.converged_at is not None:
            converged += 1
        if rec.any_capped:
            capped += 1

    nt = float(n_trajectories)
    p_suc = success_counts / nt
    p_suc_se = np.sqrt(np.maximum(p_suc * (1 - p_suc), 0.0) / nt)
    p_first = first_success_counts / nt
    p_first_se = np.sqrt(np.maximum(p_first * (1 - p_first), 0.0) / nt)
    f_avg = fidelity_sum / nt
    f_var = np.maximum(fidelity_sq_sum / nt - f_avg**2, 0.0)
    f_se = np.sqrt(f_var / nt)
    marg = first_counts / nt
    marg_se = np.sqrt(np.maximum(marg * (1 - marg), 0.0) / nt)
    return MonteCarloResult(
        config=config,
        n_trajectories=n_trajectories,
        round_success=p_suc,
        round_success_se=p_suc_se,
        round_first_success=p_first,
        round_first_success_se=p_first_se,
        round_fidelity=f_avg,
        round_fidelity_se=f_se,
        first_marginals=marg,
        first_marginals_se=marg_se,
        converged_fraction=converged / nt,
        capped_fraction=capped / nt,
    )
