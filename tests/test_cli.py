"""End-to-end tests of the command-line experiment runner."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import comb

import qndprep
from qndprep import (
    FockBasis,
    ProjectorSpec,
    cli,
    fock,
    projector_apply,
    rotation_matrix,
    x_polarized_state,
)
from qndprep.cli import FIGURE_IDS, main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def run(args):
    return main(args)


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the package and CLI pulls in no scipy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qndprep.__file__)))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qndprep, qndprep.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


# --------------------------------------------------------------- simulate


def test_simulate_writes_tables_and_manifest(tmp_path):
    out = str(tmp_path)
    code = run(
        [
            "simulate",
            "--n-atoms",
            "4",
            "--rounds",
            "2",
            "--trajectories",
            "200",
            "--seed",
            "7",
            "--out-dir",
            out,
        ]
    )
    assert code == 0
    rounds = read_csv(os.path.join(out, "simulate_rounds.csv"))
    assert rounds[0] == [
        "round",
        "p_suc",
        "p_suc_se",
        "p_first_success",
        "p_first_success_se",
        "f_avg",
        "f_avg_se",
    ]
    assert len(rounds) == 3  # header + 2 rounds
    marg = read_csv(os.path.join(out, "simulate_first_marginals.csv"))
    assert len(marg) == 1 + 2 * 5  # header + rounds * (N+1)
    man = read_manifest(out)
    assert man["engine"] == "simulate"
    assert man["config"]["n_atoms"] == 4
    assert man["config"]["seed"] == 7
    assert man["trajectories"] == 200
    assert set(man["outputs"]) == {
        "simulate_first_marginals.csv",
        "simulate_rounds.csv",
    }


def test_simulate_byte_identical_reruns(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        run(
            [
                "simulate",
                "--n-atoms",
                "3",
                "--rounds",
                "2",
                "--trajectories",
                "150",
                "--seed",
                "13",
                "--out-dir",
                out,
            ]
        )
        with open(os.path.join(out, "simulate_rounds.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_simulate_rejects_bad_trajectories(tmp_path, capsys):
    code = run(
        [
            "simulate",
            "--trajectories",
            "0",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "error: --trajectories must be at least 1" in capsys.readouterr().err


def test_simulate_marginal_rows_sum_to_one(tmp_path):
    out = str(tmp_path)
    run(
        [
            "simulate",
            "--n-atoms",
            "2",
            "--rounds",
            "1",
            "--trajectories",
            "300",
            "--seed",
            "3",
            "--out-dir",
            out,
        ]
    )
    rows = read_csv(os.path.join(out, "simulate_first_marginals.csv"))[1:]
    total = sum(float(r[2]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


# -------------------------------------------------------------- enumerate


@pytest.mark.parametrize("engine", ["channel", "tree"])
def test_enumerate_engines_agree(tmp_path, engine):
    out = str(tmp_path / engine)
    code = run(
        [
            "enumerate",
            "--n-atoms",
            "2",
            "--rounds",
            "2",
            "--max-repeats",
            "2",
            "--prune",
            "0",
            "--engine",
            engine,
            "--out-dir",
            out,
        ]
    )
    assert code == 0
    man = read_manifest(out)
    assert man["engine_variant"] == engine
    assert man["pruned_mass"] == pytest.approx(0.0, abs=1e-12)


def test_enumerate_exact_mass_prune_zero(tmp_path):
    out = str(tmp_path)
    run(
        [
            "enumerate",
            "--n-atoms",
            "2",
            "--rounds",
            "1",
            "--max-repeats",
            "2",
            "--prune",
            "0",
            "--engine",
            "tree",
            "--out-dir",
            out,
        ]
    )
    man = read_manifest(out)
    assert man["terminal_mass"] == pytest.approx(1.0, abs=1e-12)
    assert man["pruned_mass"] == 0.0


def test_enumerate_first_marginal_value(tmp_path):
    out = str(tmp_path)
    run(
        [
            "enumerate",
            "--n-atoms",
            "10",
            "--rounds",
            "1",
            "--max-repeats",
            "1",
            "--out-dir",
            out,
        ]
    )
    rows = read_csv(os.path.join(out, "enumerate_marginals.csv"))[1:]
    first = [r for r in rows if r[0] == "1" and r[1] == "z" and r[2] == "1"]
    p0 = float([r for r in first if r[3] == "0"][0][4])
    assert p0 == pytest.approx(comb(20, 10) / 4**10, abs=1e-4)
    # probabilities at one step sum to the mass that reached it (here 1)
    assert sum(float(r[4]) for r in first) == pytest.approx(1.0, abs=1e-9)


def test_enumerate_byte_identical_reruns(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        run(
            [
                "enumerate",
                "--n-atoms",
                "3",
                "--rounds",
                "2",
                "--max-repeats",
                "2",
                "--out-dir",
                out,
            ]
        )
        with open(os.path.join(out, "enumerate_rounds.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_enumerate_node_cap_exit_code(tmp_path):
    out = str(tmp_path)
    code = run(
        [
            "enumerate",
            "--n-atoms",
            "4",
            "--rounds",
            "2",
            "--max-repeats",
            "3",
            "--prune",
            "0",
            "--node-cap",
            "20",
            "--engine",
            "tree",
            "--out-dir",
            out,
        ]
    )
    assert code == 3
    man = read_manifest(out)
    assert man["node_cap_hit"] is True
    assert man["unexplored_mass"] > 0.0


def test_enumerate_tree_manifest_counts_nodes(tmp_path):
    """The tree engine's manifest records how many nodes it expanded."""
    args = ["--n-atoms", "3", "--rounds", "1", "--max-repeats", "2"]
    out = str(tmp_path / "tree")
    assert run(["enumerate", *args, "--engine", "tree", "--out-dir", out]) == 0
    cfg = qndprep.ProtocolConfig(n_atoms=3, max_rounds=1, max_repeats=2)
    res = qndprep.enumerate_tree(qndprep.x_polarized_state(cfg.basis), cfg)
    assert read_manifest(out)["expanded_nodes"] == res.expanded_nodes > 1

    capped = str(tmp_path / "capped")
    run(["enumerate", *args, "--node-cap", "5", "--engine", "tree", "--out-dir", capped])
    assert read_manifest(capped)["expanded_nodes"] == 5


def test_bad_basis_order_rejected(tmp_path, capsys):
    code = run(
        [
            "enumerate",
            "--n-atoms",
            "2",
            "--basis-order",
            "z,q",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "error: unsupported basis 'q' in --basis-order" in capsys.readouterr().err


# ---------------------------------------------------------------- figures


def test_unknown_figure_id(tmp_path, capsys):
    code = run(["figures", "--figure", "fig99", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "error: unknown figure id 'fig99'" in capsys.readouterr().err


def test_fig4_panels(tmp_path):
    out = str(tmp_path)
    code = run(["figures", "--figure", "fig4", "--out-dir", out])
    assert code == 0
    rows = read_csv(os.path.join(out, "fig4_fock_grids.csv"))
    assert rows[0] == ["panel", "frame", "k1", "k2", "probability"]
    body = rows[1:]
    panels = sorted(set(r[0] for r in body))
    assert panels == list("abcdefgh")
    assert len(body) == 8 * 11 * 11
    # panel (a): squared binomial diagonal
    a_diag = {
        (int(r[2]), int(r[3])): float(r[4]) for r in body if r[0] == "a"
    }
    for k in range(11):
        assert a_diag[(k, k)] == pytest.approx(
            (comb(10, k) / 2**10) ** 2, abs=1e-12
        )
    # panel (b): support only on |k1-k2| = 1
    for r in body:
        if r[0] == "b" and abs(int(r[2]) - int(r[3])) != 1:
            assert float(r[4]) == 0.0


def test_fig3d_angles_near_line(tmp_path):
    out = str(tmp_path)
    code = run(["figures", "--figure", "fig3d", "--out-dir", out])
    assert code == 0
    rows = read_csv(os.path.join(out, "fig3d_optimal_angles.csv"))[1:]
    assert len(rows) == 11
    # small offsets stay close to the line; larger ones drift below it
    for r in rows:
        delta, theta_max, theta_line = int(r[0]), float(r[1]), float(r[2])
        if delta <= 3:
            assert abs(theta_max - theta_line) <= np.pi / 20 + 1e-9
        else:
            assert theta_max <= theta_line + 1e-9


@pytest.mark.parametrize("k", [0, 1])
def test_fig3_matrix_columns_match_rotation(k):
    """fig3a/fig3b: |exp(+i S^y theta/2)[k + Delta, k]| at N=150, on grid angles."""
    basis = FockBasis(150)
    thetas, mags = cli._fig3_matrix_columns(k)
    assert mags.shape == (301, 151 - k)
    for i in (0, 1, 77, 150, 299, 300):
        want = np.abs(rotation_matrix(-thetas[i], basis)[k:, k])
        assert np.max(np.abs(mags[i] - want)) <= 1e-12


def test_fig3_fidelities_match_per_angle_scan(tmp_path):
    """fig3c against a per-angle rotation scan; fig3d takes that scan's first maximum."""
    n = 10
    basis = FockBasis(n)
    psi0 = x_polarized_state(basis)
    thetas, fids = cli._fig3_fidelities(n)
    assert sorted(fids) == list(range(n + 1))
    argmax = {}
    for delta, got in fids.items():
        sign = +1 if delta == 0 else (-1) ** delta
        proj = projector_apply(psi0, ProjectorSpec(delta, sign, "z"))
        want = np.array([
            abs(np.trace(rotation_matrix(-t, basis) @ proj.amplitudes)) ** 2
            / (n + 1) / proj.squared_norm()
            for t in thetas
        ])
        assert np.max(np.abs(got - want)) <= 1e-12
        argmax[delta] = f"{thetas[int(np.argmax(want))]:.8f}"
    out = str(tmp_path)
    assert run(["figures", "--figure", "fig3d", "--out-dir", out]) == 0
    rows = read_csv(os.path.join(out, "fig3d_optimal_angles.csv"))[1:]
    assert {int(r[0]): r[1] for r in rows} == argmax


def test_fig3_matrix_grid_leaves_rotation_cache_alone(tmp_path):
    """fig3a and fig3b look up no rotation, so the rotation cache does not change."""
    before = fock._rotation_matrix_cached.cache_info()
    for fig in ("fig3a", "fig3b"):
        assert run(["figures", "--figure", fig, "--out-dir", str(tmp_path / fig)]) == 0
    # hits and misses as well as currsize: a full cache keeps its size on a miss
    assert fock._rotation_matrix_cached.cache_info() == before


def test_fig6_uses_exact_engine(tmp_path):
    out = str(tmp_path)
    code = run(
        [
            "figures",
            "--figure",
            "fig6",
            "--n-atoms",
            "2",
            "--rounds",
            "2",
            "--max-repeats",
            "2",
            "--out-dir",
            out,
        ]
    )
    assert code == 0
    rows = read_csv(os.path.join(out, "fig6_success_probability.csv"))
    assert rows[0] == ["round", "p_suc", "p_first_success"]
    p = [float(r[1]) for r in rows[1:]]
    assert p[0] <= p[1] + 1e-12


def test_all_figure_ids_run(tmp_path):
    """Every figure id produces its CSV and a manifest (small configs)."""
    small = ["--n-atoms", "4", "--rounds", "1", "--max-repeats", "2"]
    for fig in FIGURE_IDS:
        out = str(tmp_path / fig)
        extra = [] if fig in ("fig3a", "fig3b") else small
        code = run(["figures", "--figure", fig, "--out-dir", out, *extra])
        assert code == 0, fig
        man = read_manifest(out)
        assert man["figure"] == fig
        assert len(man["outputs"]) == 1
        assert os.path.exists(os.path.join(out, man["outputs"][0]))


def test_manifest_replay_determinism(tmp_path):
    """A manifest's config flags reproduce the original output exactly."""
    out1 = str(tmp_path / "one")
    run(
        [
            "simulate",
            "--n-atoms",
            "3",
            "--rounds",
            "2",
            "--trajectories",
            "100",
            "--seed",
            "21",
            "--out-dir",
            out1,
        ]
    )
    man = read_manifest(out1)
    cfg = man["config"]
    out2 = str(tmp_path / "two")
    run(
        [
            "simulate",
            "--n-atoms",
            str(cfg["n_atoms"]),
            "--rounds",
            str(cfg["max_rounds"]),
            "--max-repeats",
            str(cfg["max_repeats"]),
            "--trajectories",
            str(man["trajectories"]),
            "--seed",
            str(cfg["seed"]),
            "--basis-order",
            ",".join(cfg["basis_order"]),
            "--out-dir",
            out2,
        ]
    )
    for name in ("simulate_rounds.csv", "simulate_first_marginals.csv"):
        with open(os.path.join(out1, name), "rb") as f1, open(
            os.path.join(out2, name), "rb"
        ) as f2:
            assert f1.read() == f2.read()
