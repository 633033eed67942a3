"""Inputs of each workload, built through the package's public API only.

Importing this module imports ``qndprep``; ``build`` is what the set-up
time measures.  Only the ``monte-carlo`` inputs depend on the seed.
"""

from __future__ import annotations

import math

import numpy as np

from qndprep import FockBasis, PovmParams, ProtocolConfig, mmes_state, x_polarized_state

N_ATOMS = 10
ROUNDS = 3
REPEATS = 25
TRAJECTORIES = 700           # monte-carlo trajectories per round
TREE = dict(n_atoms=10, max_repeats=2, max_rounds=1, prune_threshold=1e-10)
FIGURES = ("fig3a", "fig3b", "fig3c", "fig3d", "fig4")
POVM_ALPHAS = (10.0, 20.0, 40.0)
POVM_N, POVM_TAU = 4, math.pi / 8


def build(workload: str, seed: int) -> dict:
    if workload == "exact-channel":
        out = {}
        for rule in ("split", "minus"):
            cfg = ProtocolConfig(n_atoms=N_ATOMS, max_rounds=ROUNDS, max_repeats=REPEATS,
                                 sign_rule=rule)
            out[rule] = (x_polarized_state(cfg.basis), cfg)
        return out
    if workload == "monte-carlo":
        cfg = ProtocolConfig(n_atoms=N_ATOMS, max_rounds=ROUNDS, max_repeats=REPEATS,
                             sign_rule="split", seed=seed)
        return {"initial": x_polarized_state(cfg.basis), "config": cfg,
                "trajectories": TRAJECTORIES, "seed": seed}
    if workload == "path-tree":
        cfg = ProtocolConfig(**TREE)
        return {"config": cfg, "x": x_polarized_state(cfg.basis), "mmes": mmes_state(cfg.basis)}
    if workload == "figures":
        basis = FockBasis(POVM_N)
        return {
            "figures": FIGURES,
            "povm_state": x_polarized_state(basis),
            "povm": [PovmParams(alpha=a, tau=POVM_TAU) for a in POVM_ALPHAS],
        }
    raise ValueError(f"unknown workload {workload!r}")


def round_rng(seed: int, round_idx: int) -> np.random.Generator:
    """The generator one monte-carlo round draws from."""
    return np.random.default_rng([seed, round_idx])
