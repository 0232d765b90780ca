import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bettiforge
from bettiforge import cli
from bettiforge.cli import _pin_threads, main, parse_generator_spec
from bettiforge.resources import SWEEP_COLUMNS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


KPARTITE_4_3 = ["estimate", "--gen", "kpartite:4,3", "--r", "0.05", "--delta", "0.05"]
DEQUANT_K22 = ["dequantize", "--gen", "kpartite:2,2", "--k", "2", "--slices", "1", "--samples", "100"]


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGeneratorGrammar:
    def test_kpartite(self):
        g = parse_generator_spec("kpartite:5,6", 0)
        assert g.n == 30 and g.edge_count == 375

    def test_er_uses_seed(self):
        assert parse_generator_spec("er:12,0.4", 7).edges == parse_generator_spec("er:12,0.4", 7).edges

    def test_rips_default_threshold(self):
        g = parse_generator_spec("rips:12,2", 0)
        assert g.n == 12

    @pytest.mark.parametrize("spec", ["nope:1", "kpartite:3", "er:5", "rips:9,2"])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_generator_spec(spec, 0)


class TestSubcommands:
    def test_generate_canonical(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, _, _ = run_cli(capsys, "generate", "--gen", "kpartite:2,2", "--out", str(out))
        assert code == 0
        assert out.read_text() == '{"edges": [[0, 2], [0, 3], [1, 2], [1, 3]], "n": 4}\n'

    def test_betti_payload(self, capsys):
        code, out, _ = run_cli(capsys, "betti", "--gen", "kpartite:3,2", "--k", "2")
        assert code == 0
        data = json.loads(out)
        assert data["betti"] == 4
        assert data["cl_k"] == 9
        assert data["gap"] == pytest.approx(3.0)
        assert data["config"]["seed"] == 0

    def test_betti_without_cliques(self, capsys):
        # the chain group is empty: beta is 0 and the spectrum fields are null
        code, out, err = run_cli(capsys, "betti", "--gen", "er:10,0.15", "--seed", "1", "--k", "3")
        assert code == 0, err
        data = json.loads(out)
        assert data["betti"] == 0 and data["cl_k"] == 0
        assert data["gap"] is None and data["gamma_max"] is None and data["kappa"] is None

    def test_betti_from_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        run_cli(capsys, "generate", "--gen", "kpartite:2,2", "--out", str(path))
        code, out, _ = run_cli(capsys, "betti", "--graph", str(path), "--k", "2")
        assert code == 0
        assert json.loads(out)["betti"] == 1

    def test_estimate_headline(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "kpartite:16,16", "--k", "16",
            "--r", "0.05", "--delta", "0.05", "--refined-kaiser",
        )
        assert code == 0
        total = json.loads(out)["total_toffoli"]
        assert 8e10 / 5 <= total <= 8e10 * 5

    def test_estimate_k_consistency_checked(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--gen", "kpartite:16,16", "--k", "12",
            "--r", "0.05", "--delta", "0.05",
        )
        assert code == 2 and "disagrees" in err

    def test_estimate_explicit_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "9", "--k", "3", "--edges", "27", "--cliques", "27",
            "--betti", "8", "--gap", "3.0", "--r", "0.05", "--delta", "0.05",
        )
        assert code == 0
        assert json.loads(out)["total_toffoli"] > 0

    def test_estimate_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--n", "9", "--r", "0.05", "--delta", "0.05")
        assert code == 2
        assert "estimate needs" in err

    def test_sweep_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--k", "8", "--n", "8:32:4",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,k,m,toffoli_total,toffoli_prep,toffoli_filter,binom,cliques"
        # n=8 has one vertex per cluster, n=12/20/28 are not divisible by k
        assert "skipping" in err
        ns = [int(line.split(",")[0]) for line in lines[1:]]
        assert ns == [16, 24, 32]

    def test_sweep_has_no_family_option(self, capsys):
        # the k-partite family is the only one, so there is nothing to choose
        code, _, err = run_cli(capsys, "sweep", "--family", "kpartite", "--k", "8", "--n", "8:32:4")
        assert code == 2 and "--family" in err

    def test_sweep_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "sweep", "--k", "4", "--n", "16:32:4", "--out", str(a))
        run_cli(capsys, "sweep", "--k", "4", "--n", "16:32:4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_dicke(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "dicke", "--n", "4", "--k", "2", "--c", "4",
            "--trials", "20000", "--seed", "5",
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["failure_rate"] - data["exact_failure"]) < 0.01

    def test_simulate_qae_reproducible(self, capsys):
        args = ("simulate", "qae", "--amplitude", "0.3", "--epsilon", "0.02", "--delta", "0.05", "--seed", "4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_simulate_pipeline(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "pipeline", "--gen", "kpartite:2,2", "--k", "2",
            "--r", "0.1", "--delta", "0.05", "--seed", "5",
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["estimate"] - 0.25) <= 0.025

    def test_dequantize(self, capsys):
        code, out, _ = run_cli(
            capsys, "dequantize", "--gen", "kpartite:2,2", "--k", "2", "--t", "3.0",
            "--slices", "1", "--samples", "4000", "--seed", "11",
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["estimate"] - 1 / 6) <= 3 * data["stderr"]
        assert data["config"]["seed"] == 11

    @pytest.mark.parametrize("argv", [
        ["betti", "--gen", "er:14,0.6", "--seed", "1", "--k", "3"],
        ["betti", "--gen", "er:12,0.6", "--seed", "2", "--k", "1"],
        ["simulate", "pipeline", "--gen", "er:8,0.5", "--seed", "1", "--k", "2"],
    ])
    def test_builds_no_boundary_matrix(self, capsys, monkeypatch, argv):
        # ranks, Laplacian and Dirac operator all come from the face tables
        from bettiforge import homology

        def refuse(*args):
            raise AssertionError("dense boundary matrix built")

        monkeypatch.setattr(homology, "boundary_matrix", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)

    def test_dequantize_average_sign_bounded(self, capsys, tmp_path):
        # the ratio of two rounded sums of the same terms read 1.0000000000000004 here
        path = tmp_path / "edge.json"
        path.write_text('{"n": 3, "edges": [[0, 1]]}')
        code, out, err = run_cli(
            capsys, "dequantize", "--graph", str(path), "--k", "2", "--t", "1", "--slices", "1", "--samples", "200",
        )
        assert code == 0, err
        assert json.loads(out)["average_sign"] == 1.0

    def test_dequantize_without_nonzero_mode(self, capsys, tmp_path):
        # B_G^2 = 0 on the edgeless graph: the penalty falls back to 1 and
        # every vertex is a zero mode, so beta / C(4, 1) = 1
        path = tmp_path / "empty.json"
        path.write_text('{"n": 4, "edges": []}')
        code, out, err = run_cli(
            capsys, "dequantize", "--graph", str(path), "--k", "1", "--t", "1", "--slices", "1", "--samples", "200",
        )
        assert code == 0, err
        data = json.loads(out)
        assert data["estimate"] == 1.0 and data["exact_trotter_mean"] == 1.0

    def test_dequantize_single_reflection(self, capsys, tmp_path):
        # the 4-cycle at k = 1: the penalty, its Laplacian gap 2 as the
        # eigensolve rounds it, splits off a second reflection term from the
        # clique diagonal 2 (the triangle below keeps a single one)
        from bettiforge.dequant.operators import one_sparse_decompose, penalized_operator
        from bettiforge.graphs import Graph
        from oracles import trotterized_matrix

        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        path = tmp_path / "c4.json"
        path.write_text(json.dumps({"n": 4, "edges": [list(e) for e in g.edges]}))
        code, out, err = run_cli(
            capsys, "dequantize", "--graph", str(path), "--k", "1", "--t", "1", "--slices", "1",
            "--samples", "4000",
        )
        assert code == 0, err
        op = penalized_operator(g, 1)
        idx = op.basis.weight_k_clique_indices
        mat = trotterized_matrix(one_sparse_decompose(op.matrix), 1.0, 1)
        target = float(np.trace(mat[np.ix_(idx, idx)])) / op.d_k
        assert target == pytest.approx(0.32225, abs=5e-5)
        data = json.loads(out)
        assert abs(data["estimate"] - target) <= 4 * data["stderr"]

    def test_dequantize_triangle_single_reflection(self, capsys, tmp_path):
        # every state of the triangle at k = 1 is a clique with diagonal 2:
        # one reflection term, so the loop closes through a matching term
        from bettiforge.dequant.operators import one_sparse_decompose, penalized_operator
        from bettiforge.graphs import Graph
        from oracles import trotterized_matrix

        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        op = penalized_operator(g, 1)
        decomp = one_sparse_decompose(op.matrix)
        assert [t.kind for t in decomp.terms].count("reflection") == 1
        path = tmp_path / "k3.json"
        path.write_text(json.dumps({"n": 3, "edges": [list(e) for e in g.edges]}))
        code, out, err = run_cli(
            capsys, "dequantize", "--graph", str(path), "--k", "1", "--t", "1", "--slices", "1",
            "--samples", "4000",
        )
        assert code == 0, err
        idx = op.basis.weight_k_clique_indices
        mat = trotterized_matrix(decomp, 1.0, 1)
        target = float(np.trace(mat[np.ix_(idx, idx)])) / op.d_k
        data = json.loads(out)
        assert data["D"] == decomp.D
        assert abs(data["estimate"] - target) <= 4 * data["stderr"]

    def test_verify_props(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--props")
        assert code == 0
        assert out.count("PASS") == 12

    def test_verify_dequant_toy(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--dequant-toy")
        assert code == 0
        assert out.count("PASS") == 2 and "FAIL" not in out
        assert "mean 0.16749 in [0.16667, 0.16833]" in out
        assert "(normalized Betti 0.16667, z " in out

    def test_dequantize_exact_references(self, capsys):
        # the exact sampler reports the Trotterized mean, the average sign
        # and the estimate's z-score against that mean
        code, out, _ = run_cli(
            capsys, "dequantize", "--gen", "kpartite:2,2", "--k", "2", "--t", "3.0",
            "--slices", "1", "--samples", "4000", "--seed", "11",
        )
        assert code == 0
        data = json.loads(out)
        assert data["exact_trotter_mean"] == pytest.approx(0.1674939, abs=1e-6)
        assert 0.0 < data["average_sign"] <= 1.0
        assert data["z_score"] == pytest.approx((data["estimate"] - data["exact_trotter_mean"]) / data["stderr"])

    def test_verify_dicke(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--dicke")
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out
        assert "vs exact 0.060012 +-" in out
        assert "exact 0.060012 in [0.059896, 0.062500]" in out


class TestExitCodes:
    def test_invalid_input_is_2(self, capsys):
        code, _, err = run_cli(capsys, "betti", "--gen", "er:10,1.5", "--k", "2")
        assert code == 2 and "error" in err

    def test_desk_scale_is_3(self, capsys):
        code, _, err = run_cli(capsys, "betti", "--gen", "kpartite:9,9", "--k", "9")
        assert code == 3 and "error" in err

    def test_spectrum_cap_is_3(self, capsys):
        # the exact rank has no dense cap, the spectrum still does; it is the
        # only size limit of the filter and the pipeline too
        for command in (["betti"], ["simulate", "filter"], ["simulate", "pipeline"]):
            code, out, err = run_cli(capsys, *command, "--gen", "kpartite:1,16", "--k", "8")
            assert code == 3 and "spectrum(k=8) needs dimension 12870" in err and out == "", command

    def test_clique_budget_is_3(self, capsys, monkeypatch):
        # K11 has 55 edges and 165 triangles: at a budget of 55 per size the
        # edges are listed and the triangles refused
        from bettiforge import graphs

        monkeypatch.setattr(graphs, "MAX_CLIQUES", 55)
        code, out, err = run_cli(capsys, "betti", "--gen", "kpartite:1,11", "--k", "2")
        assert code == 3 and out == "" and "more than 55 cliques of 3 vertices" in err
        monkeypatch.setattr(graphs, "MAX_CLIQUES", 165)
        code, out, _ = run_cli(capsys, "betti", "--gen", "kpartite:1,11", "--k", "2")
        assert code == 0 and json.loads(out)["cl_k"] == 55

    def test_clique_count_past_desk_scale_is_3(self, capsys):
        # k = 12 on K40 asks for C(40, 13) ~ 1.2e10 cliques; the enumeration
        # stops on the C(40, 6) = 3838380 cliques of 6 vertices
        code, out, err = run_cli(capsys, "betti", "--gen", "kpartite:1,40", "--k", "12")
        assert code == 3 and out == "" and "more than 1048576 cliques of 6 vertices" in err

    def test_sample_draw_budget_is_3(self, capsys, monkeypatch):
        # a budget of 402 paths: 400 samples fit, and 401 samples would too,
        # but 4 chains draw 404 paths for them, refused before any clique is
        # enumerated
        from bettiforge import graphs
        from bettiforge.dequant import estimator

        enumerated = []
        enumerate_cliques = graphs.enumerate_cliques
        monkeypatch.setattr(graphs, "enumerate_cliques", lambda g, s: enumerated.append(s) or enumerate_cliques(g, s))
        monkeypatch.setattr(estimator, "DRAW_BUDGET", 402 * estimator.DRAW_BYTES)
        code, out, err = run_cli(capsys, *DEQUANT_K22, "--t", "1", "--samples", "400")
        assert code == 0 and json.loads(out)["n_samples"] == 400 and enumerated, err
        enumerated.clear()
        for sampler in ("exact", "mh"):
            code, out, err = run_cli(capsys, *DEQUANT_K22, "--t", "1", "--samples", "401", "--sampler", sampler)
            assert code == 3 and out == "" and "404 sample paths need 51712 bytes of draw buffers" in err
        assert enumerated == []

    def test_sample_count_past_desk_scale_is_3(self, capsys):
        code, out, err = run_cli(capsys, *DEQUANT_K22, "--t", "1", "--samples", "1000000000")
        assert code == 3 and out == ""
        assert "1000000000 sample paths need 128000000000 bytes of draw buffers; the budget is 1073741824" in err

    def test_walk_past_twelve_vertices_is_3(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "walk", "--gen", "kpartite:1,13", "--k", "6")
        assert code == 3 and "simulator supports n <= 12 qubits, got 13" in err and out == ""

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_rips_threshold_is_2(self, capsys, threshold):
        code, out, err = run_cli(capsys, "betti", "--gen", f"rips:4,1,{threshold}", "--k", "1")
        assert code == 2 and "finite" in err and out == ""

    @pytest.mark.parametrize(
        "text",
        ['{"n": 3.7, "edges": []}', '{"n": 3, "edges": [[0, 1.9]]}', '{"n": 3, "edges": [[0, true]]}'],
    )
    def test_non_integer_graph_json_is_2(self, capsys, tmp_path, text):
        path = tmp_path / "g.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "generate", "--graph", str(path))
        assert code == 2 and "must be an integer" in err and out == ""

    @pytest.mark.parametrize(
        "argv,named",
        [
            *[
                pytest.param([*argv, "--seed", "-1"], "argument --seed: must be a non-negative integer", id=f"seed-neg-{name}")
                for name, argv in (
                    ("generate", ["generate", "--gen", "er:6,0.5"]),
                    ("betti", ["betti", "--gen", "er:6,0.5", "--k", "2"]),
                    ("betti-kpartite", ["betti", "--gen", "kpartite:2,2", "--k", "2"]),
                    ("dicke", ["simulate", "dicke", "--n", "8", "--k", "2"]),
                    ("qae", ["simulate", "qae"]),
                    ("pipeline", ["simulate", "pipeline", "--gen", "er:6,0.6", "--k", "2"]),
                    ("dequantize", [*DEQUANT_K22, "--t", "1"]),
                )
            ],
            pytest.param(["sweep", "--k", "0", "--n", "16:32:8"], "k-partite family needs k >= 2", id="sweep-k0"),
            pytest.param(["sweep", "--k", "-2", "--n", "16:32:8"], "k-partite family needs k >= 2", id="sweep-k-neg"),
            pytest.param(["sweep", "--k", "1", "--n", "2:6:1"], "k-partite family needs k >= 2", id="sweep-k1"),
            pytest.param(["sweep", "--k", "0", "--n", "2:6:1"], "k-partite family needs k >= 2", id="sweep-k0-n2"),
            # the family check runs before the n loop, whatever range it covers
            pytest.param(["sweep", "--k", "1", "--n", "1:1:1"], "k-partite family needs k >= 2", id="sweep-k1-n1"),
            pytest.param(["sweep", "--k", "1", "--n", "3:3:1"], "k-partite family needs k >= 2", id="sweep-k1-n3"),
            pytest.param(["simulate", "dicke", "--n", "9", "--k", "2", "--c", str(1 << 60)],
                         "f = 18446744073709551616 needs a 64-bit register; the Monte Carlo draws at most 63 bits",
                         id="dicke-64-bit-register"),
            pytest.param(["simulate", "dicke", "--n", "8", "--k", "2", "--c", str(1 << 61), "--trials", "10"],
                         "f = 18446744073709551616 needs a 64-bit register", id="dicke-64-bit-register-exact-n"),
            pytest.param(["estimate", "--gen", "kpartite:3,1", "--r", "0.1", "--delta", "0.1"],
                         "k-partite family needs k >= 2", id="estimate-kpartite-k1"),
            pytest.param([*DEQUANT_K22, "--t", "1", "--burn-in", "-5"], "burn_in must be >= 0", id="burn-in-neg"),
            pytest.param([*DEQUANT_K22, "--t", "1", "--thin", "0"], "(--thin) must be >= 1", id="thin-0"),
            pytest.param([*DEQUANT_K22, "--t", "nan"], "time t must be finite", id="t-nan"),
            pytest.param(
                ["simulate", "walk", "--gen", "er:6,0.7", "--seed", "1", "--k", "0"], "k must be >= 1", id="walk-k0"
            ),
            pytest.param(["simulate", "walk", "--gen", "er:6,0.7", "--k=-2"], "k must be >= 1", id="walk-k-neg"),
            pytest.param(
                ["simulate", "walk", "--gen", "er:5,0.6", "--seed", "1", "--k", "7"],
                "graph has no 7-cliques",
                id="walk-no-k-cliques",
            ),
            pytest.param(
                ["estimate", "--n", "9", "--k", "3", "--edges", "27", "--cliques", "27", "--betti", "8",
                 "--gap", "nan", "--r", "0.05", "--delta", "0.05"],
                "spectral gap",
                id="gap-nan",
            ),
            pytest.param(["simulate", "qae", "--epsilon", "nan"], "epsilon must be positive", id="epsilon-nan"),
            pytest.param(
                ["estimate", "--n", "5000", "--k", "2500", "--edges", "1", "--cliques", "1", "--betti", "1",
                 "--gap", "1", "--r", "0.05", "--delta", "0.05"],
                "C(n, k) / |Cl_k| too large",
                id="amplification-overflow",
            ),
            pytest.param(
                ["estimate", "--n", "9", "--k", "3", "--edges", "1000", "--cliques", "27", "--betti", "8",
                 "--gap", "3", "--r", "0.05", "--delta", "0.05"],
                "edge count exceeds C(n, 2)",
                id="edges-past-complete",
            ),
            pytest.param(
                ["simulate", "filter", "--gen", "er:6,0.7", "--seed", "1", "--k", "2", "--epsilon", "nan"],
                "epsilon must be positive",
                id="filter-epsilon-nan",
            ),
            pytest.param(["simulate", "dicke", "--n", "64"], "simulate dicke needs --k", id="dicke-no-k"),
            pytest.param(
                ["simulate", "filter", "--gen", "er:6,0.7", "--seed", "1", "--k", "2", "--ell", "0"],
                "filter degree must be positive",
                id="filter-ell-0",
            ),
            pytest.param(
                ["simulate", "filter", "--gen", "er:6,0.7", "--seed", "1", "--k", "2", "--epsilon", "1.5"],
                "suppression factor must lie in (0, 1)",
                id="filter-epsilon-1.5",
            ),
            pytest.param(
                ["estimate", "--gen", "kpartite:4,3,5", "--r", "0.05", "--delta", "0.05"],
                "kpartite spec needs m,k",
                id="estimate-kpartite-three-fields",
            ),
            pytest.param(
                ["estimate", "--gen", "kpartite:4.5,3", "--r", "0.05", "--delta", "0.05"],
                "kpartite spec field '4.5' is not an integer",
                id="estimate-kpartite-non-integer",
            ),
            pytest.param(["betti", "--gen", "kpartite:4,3,5", "--k", "2"], "kpartite spec needs m,k",
                         id="betti-kpartite-three-fields"),
            *[
                pytest.param([*KPARTITE_4_3, flag, value], f"{flag} disagrees with the kpartite spec", id=f"kpartite{flag}")
                for flag, value in (("--n", "9"), ("--edges", "5"), ("--cliques", "63"), ("--betti", "1"), ("--gap", "4.5"))
            ],
        ],
    )
    def test_bad_input_is_2_and_named(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and named in err and out == ""

    def test_estimate_kpartite_accepts_agreeing_counts(self, capsys):
        # K(4,3): n = 12, 48 edges, 64 triangles, beta = 27, gap 4
        counts = ["--n", "12", "--k", "3", "--edges", "48", "--cliques", "64", "--betti", "27", "--gap", "4"]
        assert run_cli(capsys, *KPARTITE_4_3, *counts) == run_cli(capsys, *KPARTITE_4_3)

    @pytest.mark.parametrize(
        "argv,code,named",
        [
            pytest.param(["estimate", "--gen", "kpartite:2,2", "--r", "1e-308", "--delta", "0.05"], 2, "too small",
                         id="r-tiny"),
            pytest.param(["estimate", "--gen", "kpartite:2,2", "--r", "0.05", "--delta", "1e-308"], 2, "too small",
                         id="delta-tiny"),
            pytest.param(["simulate", "qae", "--epsilon", "1e-310"], 2, "too small", id="epsilon-tiny"),
            pytest.param(["simulate", "qae", "--epsilon", "1e-7"], 3, "simulation limit", id="qae-window-cap"),
            pytest.param(
                ["estimate", "--n", "9", "--k", "3", "--edges", "27", "--cliques", "27", "--betti", "8",
                 "--gap", "1e-9", "--r", "0.05", "--delta", "0.05"],
                2,
                "below float resolution",
                id="gap-ratio-tiny",
            ),
        ],
    )
    def test_precision_past_float_range(self, capsys, argv, code, named):
        got, out, err = run_cli(capsys, *argv)
        assert got == code and named in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["estimate", "--gen", "kpartite:4,4", "--r", "0.1", "--delta", "1e-80"], id="asymptotic"),
            pytest.param(["estimate", "--gen", "kpartite:4,4", "--r", "0.1", "--delta", "1e-80", "--refined-kaiser"],
                         id="refined"),
            pytest.param(["simulate", "qae", "--amplitude", "0.3", "--epsilon", "0.01", "--delta", "1e-80",
                          "--seed", "1"], id="qae"),
        ],
    )
    def test_delta_below_kaiser_tail_is_2(self, capsys, argv):
        # no window shape up to the alpha cap meets the budget: sizing at the
        # cap would print a window that misses the promised confidence
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "Kaiser tail" in err and out == ""

    def test_missing_source_is_2(self, capsys):
        code, _, _ = run_cli(capsys, "betti", "--k", "2")
        assert code == 2

    def test_output_embeds_config_and_seed(self, capsys):
        _, out, _ = run_cli(
            capsys, "dequantize", "--gen", "kpartite:2,2", "--k", "2", "--t", "2.0",
            "--slices", "1", "--samples", "200", "--seed", "17",
        )
        cfg = json.loads(out)["config"]
        assert cfg["t"] == 2.0 and cfg["seed"] == 17 and cfg["sampler"] == "exact"


def _fresh_process(argv) -> subprocess.CompletedProcess:
    src = str(Path(bettiforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "bettiforge.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=300)


def test_dicke_exact_law_at_a_32_bit_register_is_quick():
    # f = 2^32: the closed form takes n + 1 summand values where a loop over v took hours
    proc = _fresh_process(["simulate", "dicke", "--n", "4", "--k", "2", "--c", "1073741824", "--trials", "1000"])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["failure_rate"] == 0.0 and 0 < data["exact_failure"] < 1e-9


# Runs each argv list of the CLI as a child and prints its peak RSS in MiB
# (ru_maxrss is in KiB on Linux).  A child started by vfork and exec keeps
# its parent's high-water mark, so the children are started from this small
# interpreter rather than from the test process.
PEAK_RSS = """
import json, os, subprocess, sys
for argv in json.loads(sys.argv[1]):
    proc = subprocess.Popen([sys.executable, "-m", "bettiforge.cli", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(proc.returncode, usage.ru_maxrss / 1024)
"""


def _child_peaks(runs):
    """(exit status, peak RSS in MiB) of each argv list of ``runs``, each run as a fresh CLI child."""
    src = str(Path(bettiforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, json.dumps(runs)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [tuple(map(float, line.split())) for line in proc.stdout.splitlines()]


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for the children's peak RSS")
def test_clique_draw_peak_memory_does_not_grow_with_samples(tmp_path):
    # 4 cliques among C(64, 2) pairs: a block of subsets for 1600 anchors
    # holds over 10^5 rows of 64 uniforms, drawn CLIQUE_CHUNK uniforms at a
    # time, so 400 and 1600 samples peak within a few MB of each other
    path = tmp_path / "c4_high.json"
    path.write_text(json.dumps({"n": 64, "edges": [[60, 61], [60, 62], [61, 63], [62, 63]]}))
    runs = [["dequantize", "--graph", str(path), "--k", "2", "--t", "1", "--slices", "1", "--samples", samples]
            for samples in ("1600", "400")]
    (code_big, peak_big), (code_small, peak_small) = _child_peaks(runs)
    assert code_big == code_small == 0
    assert abs(peak_big - peak_small) < 8, (peak_big, peak_small)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for the children's peak RSS")
def test_dicke_peak_memory_does_not_grow_with_trials():
    # the Monte Carlo draws CHUNK_SEEDS seeds at a time, so 2 and 200000
    # trials peak within a few MB of each other
    runs = [["simulate", "dicke", "--n", "32", "--k", "8", "--trials", trials] for trials in ("200000", "2")]
    (code_big, peak_big), (code_small, peak_small) = _child_peaks(runs)
    assert code_big == code_small == 0
    assert abs(peak_big - peak_small) < 8, (peak_big, peak_small)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for the children's peak RSS")
def test_dequantize_messages_span_the_weight_k_sector_only():
    # K(2,8) at k = 3 has 1680 Dirac states, of which 448 are 3-cliques; its
    # 92 positions of messages over the whole Dirac dimension alone take over
    # 500 MB per measure, over the sector 148 MB
    [(code, peak)] = _child_peaks([["dequantize", "--gen", "kpartite:2,8", "--k", "3", "--t", "1", "--slices", "1",
                                    "--samples", "2000"]])
    assert code == 0 and peak < 300, peak


class TestParserReuse:
    BETTI = ["betti", "--gen", "er:12,0.6", "--seed", "2", "--k", "2"]

    def test_main_builds_the_parser_once(self, capsys):
        cli.build_parser.cache_clear()
        assert run_cli(capsys, *self.BETTI)[0] == 0
        assert run_cli(capsys, "sweep", "--k", "3", "--n", "6:12:3")[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_out_does_not_carry_over(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        code, out, _ = run_cli(capsys, *self.BETTI, "--out", str(path))
        assert code == 0 and out == ""
        code, out, _ = run_cli(capsys, *self.BETTI)
        assert code == 0 and out == path.read_text()

    def test_rejection_leaves_no_state(self, capsys, monkeypatch):
        # the usage text wraps at the terminal width; fix it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        rejected = ["betti", "--gen", "er:12,0.6", "--k", "two"]
        with pytest.raises(SystemExit) as exc:
            main(rejected)
        assert exc.value.code == 2
        fresh = _fresh_process(rejected)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (2, "", capsys.readouterr().err)
        fresh = _fresh_process(self.BETTI)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == run_cli(capsys, *self.BETTI)


def test_thread_cap_overrides_inherited_settings(monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "4")
    _pin_threads()
    for var in THREAD_VARS:
        assert os.environ[var] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--gen", "er:28,0.6", "--seed", "1", "--k", "3"],
        ["simulate", "walk", "--gen", "er:8,0.7", "--seed", "1", "--k", "2"],
        ["dequantize", "--gen", "kpartite:2,4", "--k", "3", "--t", "1", "--slices", "1", "--samples", "2000",
         "--sampler", "exact", "--seed", "3"],
        ["dequantize", "--gen", "kpartite:2,3", "--k", "3", "--t", "1", "--slices", "1", "--samples", "450",
         "--sampler", "mh", "--chains", "2", "--burn-in", "250", "--thin", "4", "--seed", "3"],
    ],
)
def test_output_independent_of_inherited_threads(argv):
    src = str(Path(bettiforge.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.update((var, threads) for var in THREAD_VARS)
        proc = subprocess.run(
            [sys.executable, "-m", "bettiforge.cli", *argv], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def assert_fresh_run_matches(capsys, script, argv):
    """``script`` runs the CLI in a fresh interpreter and prints what an in-process run prints."""
    src = str(Path(bettiforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and (proc.stdout, proc.stderr) == (out, err)


# run the CLI in a fresh interpreter in which any scipy import fails
WITHOUT_SCIPY = "import sys; sys.modules['scipy'] = None; from bettiforge.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--gen", "kpartite:6,5", "--r", "0.05", "--delta", "0.01", "--refined-kaiser"],
        ["simulate", "qae", "--amplitude", "0.3", "--epsilon", "0.01", "--delta", "0.05", "--seed", "1"],
        ["simulate", "pipeline", "--gen", "kpartite:2,2", "--k", "2", "--r", "0.1", "--delta", "0.05", "--seed", "5"],
    ],
)
def test_runs_without_scipy(capsys, argv):
    assert_fresh_run_matches(capsys, WITHOUT_SCIPY, argv)


# the same with numpy: the closed-form commands never import it
WITHOUT_NUMPY = WITHOUT_SCIPY.replace("'scipy'", "'numpy'")


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--gen", "kpartite:6,5", "--r", "0.05", "--delta", "0.01"],
        ["estimate", "--n", "12", "--k", "3", "--edges", "48", "--cliques", "64", "--betti", "27", "--gap", "4",
         "--r", "0.05", "--delta", "0.05"],
        ["sweep", "--k", "4", "--n", "8:128:4"],
    ],
)
def test_closed_form_runs_without_numpy(capsys, argv):
    assert_fresh_run_matches(capsys, WITHOUT_NUMPY, argv)


@pytest.mark.parametrize("argv", [
    ["simulate", "filter", "--gen", "er:8,0.6", "--seed", "1", "--k", "2"],
    ["simulate", "filter", "--gen", "kpartite:2,3", "--k", "3", "--epsilon", "0.1"],
    ["simulate", "pipeline", "--gen", "er:8,0.5", "--seed", "1", "--k", "2"],
    ["simulate", "pipeline", "--gen", "kpartite:2,3", "--k", "3", "--seed", "5"],
])
def test_filter_and_pipeline_read_one_laplacian_spectrum(capsys, monkeypatch, argv):
    # the Dirac spectrum is read off the L_k spectrum: no Dirac operator, no
    # eigenvectors, one clique complex and one eigvalsh
    from bettiforge import graphs, homology

    def refuse(*args, **kwargs):
        raise AssertionError("Dirac operator or eigenvectors computed")

    for name, module in list(sys.modules.items()):
        if name.startswith("bettiforge") and getattr(module, "dirac", None) is homology.dirac:
            monkeypatch.setattr(module, "dirac", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    sizes, solves = [], []
    enumerate_cliques, eigvalsh = graphs.enumerate_cliques, np.linalg.eigvalsh
    monkeypatch.setattr(graphs, "enumerate_cliques", lambda g, s: sizes.append(s) or enumerate_cliques(g, s))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out), err
    k = int(argv[argv.index("--k") + 1])
    assert sizes == list(range(1, k + 2))[: len(sizes)] and k in sizes
    assert len(solves) == 1


def _count_builds(monkeypatch):
    """Record the clique size of each enumeration and the level of each face table and coboundary built."""
    from bettiforge import graphs

    built = {"cliques": [], "faces": [], "cofaces": []}
    enumerate_cliques, face_table, coboundary = graphs.enumerate_cliques, graphs._face_table, graphs.coboundary
    monkeypatch.setattr(graphs, "enumerate_cliques", lambda g, s: built["cliques"].append(s) or enumerate_cliques(g, s))
    monkeypatch.setattr(graphs, "_face_table", lambda cx, k: built["faces"].append(k) or face_table(cx, k))
    monkeypatch.setattr(
        graphs, "coboundary", lambda faces, n: built["cofaces"].append(faces.shape[1] - 1) or coboundary(faces, n)
    )
    return built


def _assert_built_once(built, k):
    # each clique size through k+1 enumerated once, each boundary map's tables at most once
    assert built["cliques"] == list(range(1, k + 2))[: len(built["cliques"])] and k in built["cliques"]
    for levels in (built["faces"], built["cofaces"]):
        assert len(levels) == len(set(levels)) and set(levels) <= {k - 1, k}


@pytest.mark.parametrize("argv", [
    ["simulate", "walk", "--gen", "er:8,0.6", "--seed", "1", "--k", "2"],
    ["simulate", "walk", "--gen", "kpartite:1,2", "--k", "1"],
    [*DEQUANT_K22, "--t", "1", "--samples", "200"],
    [*DEQUANT_K22, "--t", "1", "--samples", "200", "--sampler", "mh", "--burn-in", "10"],
    ["simulate", "pipeline", "--gen", "er:12,0.6", "--seed", "2", "--k", "2"],
    ["simulate", "filter", "--gen", "er:12,0.6", "--seed", "2", "--k", "3", "--epsilon", "0.1"],
])
def test_walk_and_dequantizer_read_one_clique_complex(capsys, monkeypatch, argv):
    # the restricted Dirac operator, its square and the Laplacian come from
    # the graph's one clique complex: no subset test per bit string, each
    # clique size enumerated once, each face table and coboundary built at
    # most once, one Dirac operator for the walk and none for the dequantizer,
    # which reads the scattered square.  The modules are imported first, so
    # that none binds a patched function at import
    from bettiforge import graphs, homology
    from bettiforge.dequant import estimator, operators  # noqa: F401
    from bettiforge.qsim import pipeline, walkenc  # noqa: F401

    def refuse(*args, **kwargs):
        raise AssertionError("per-state clique test on a production path")

    for name, module in list(sys.modules.items()):
        if name.startswith("bettiforge") and getattr(module, "is_clique", None) is graphs.is_clique:
            monkeypatch.setattr(module, "is_clique", refuse)
    operators = []
    dirac = homology.dirac
    for name, module in list(sys.modules.items()):
        if name.startswith("bettiforge") and getattr(module, "dirac", None) is dirac:
            monkeypatch.setattr(module, "dirac", lambda cx, k: operators.append(k) or dirac(cx, k))
    built = _count_builds(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out), err
    k = int(argv[argv.index("--k") + 1])
    _assert_built_once(built, k)
    assert len(operators) == (argv[1] == "walk")


@pytest.mark.parametrize("sampler,t", [("exact", "1000"), ("mh", "400")])
def test_trotter_step_past_the_float_range_exits_2(capsys, monkeypatch, sampler, t):
    # a damping factor exp(-rate x eigenvalue) past the float range: exit 2
    # naming the step, with no NumPy warning, and no pass gets past its
    # start.  The chain's pattern pass damps at twice the rate, so it
    # overflows at a smaller step; two slices halve the step
    from bettiforge.dequant.paths import PathSpace

    entered = []
    passes = PathSpace.backward_pass
    monkeypatch.setattr(PathSpace, "backward_pass", lambda self, kind: entered.append(kind) or passes(self, kind))
    argv = [*DEQUANT_K22, "--t", t, "--sampler", sampler, "--burn-in", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and len(entered) == 1
    assert f"error: the Trotter step t/slices = {t} overflows a path damping factor; use more --slices" in err
    code, out, err = run_cli(capsys, *argv, "--slices", "2")
    assert code == 0 and json.loads(out)["estimate"] == pytest.approx(1 / 6, rel=1e-6), err


@pytest.mark.parametrize("sampler", ["exact", "mh"])
def test_path_values_past_the_float_range_exit_2(capsys, sampler):
    # at 500 slices the sign problem drives the path magnitudes past the
    # float range: exit 2 naming the overflow, with no NumPy warning, where
    # the exact sampler printed NaN and the chain raised OverflowError
    argv = [*DEQUANT_K22, "--t", "1", "--slices", "500", "--sampler", sampler, "--burn-in", "10", "--thin", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: the path values overflow the float range (the sign problem);"
                   " use fewer --slices or a smaller --t\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--props"],
    ["estimate", "--gen", "kpartite:2,2", "--r", "0.1", "--delta", "0.1"],
    ["generate", "--gen", "er:5,0.5"],
    ["sweep", "--k", "2", "--n", "4:8:2"],
])
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    # a directory, or a file in a missing directory: exit 2 with the reason, as for an unreadable --graph
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and err.startswith("error: cannot write output file: ") and str(out) in err


def test_dequantize_scatters_the_laplacian_once(capsys, monkeypatch):
    # the gammas are read off the weight-k block of the one scattered
    # square, so L_k is not scattered a second time for the spectrum
    from bettiforge import homology

    sizes = []
    gram = homology._gram
    monkeypatch.setattr(homology, "_gram", lambda cx, k, s: sizes.append(s) or gram(cx, k, s))
    code, out, err = run_cli(capsys, *DEQUANT_K22, "--t", "1")
    assert code == 0 and json.loads(out), err
    assert sizes == [(1, 2, 3)]


def test_dequantize_checks_the_spectrum_cap_first(capsys):
    # K20 at k = 4: |Cl_4| = 4845 is over the cap, and it is checked before the Dirac window's 21489
    code, out, err = run_cli(capsys, "dequantize", "--gen", "er:20,1.0", "--k", "4", "--t", "1", "--slices", "1")
    assert (code, out) == (3, "")
    assert err == "error: spectrum(k=4) needs dimension 4845; desk-scale cap is 4096\n"


def test_pipeline_runs_past_eight_vertices(capsys):
    # the pipeline holds no 2^n object; only the spectrum's dense cap limits it
    from bettiforge import graphs, homology

    code, out, err = run_cli(capsys, "simulate", "pipeline", "--gen", "er:12,0.6", "--seed", "2", "--k", "2")
    assert code == 0, err
    data = json.loads(out)
    g = graphs.gen_erdos_renyi(12, 0.6, 2)
    target = homology.betti_exact(g, 2) / len(graphs.enumerate_cliques(g, 2))
    assert data["target"] == pytest.approx(target, rel=1e-12)
    assert abs(data["estimate"] - target) <= data["config"]["r"] * target


def test_dequantize_reaches_vertex_63(capsys, tmp_path):
    # a 4-cycle on vertices 60-63: the clique masks need all 64 bits
    from bettiforge.dequant.operators import one_sparse_decompose, penalized_operator
    from bettiforge.graphs import Graph
    from oracles import trotterized_matrix

    g = Graph.from_edges(64, [(60, 61), (61, 63), (62, 63), (60, 62)])
    path = tmp_path / "c4_high.json"
    path.write_text(json.dumps({"n": 64, "edges": [list(e) for e in g.edges]}))
    code, out, err = run_cli(capsys, "dequantize", "--graph", str(path), "--k", "2", "--t", "1", "--slices", "1",
                             "--samples", "8")
    assert code == 0, err
    op = penalized_operator(g, 2)
    idx = op.basis.weight_k_clique_indices
    mat = trotterized_matrix(one_sparse_decompose(op.matrix, op.ghost), 1.0, 1)
    assert json.loads(out)["exact_trotter_mean"] == pytest.approx(float(np.trace(mat[np.ix_(idx, idx)])) / op.d_k,
                                                                  rel=1e-12)


def test_dequantize_runs_past_eight_vertices():
    # K(2,6) has 12 vertices: the operator holds no 2^n object, so only the
    # dense cap and the message budget limit it
    proc = _fresh_process(["dequantize", "--gen", "kpartite:2,6", "--k", "3", "--t", "1", "--slices", "1",
                           "--samples", "2000"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["d_k"] == math.comb(12, 3)


def test_perfbench_trace_targets_resolve():
    # the benchmark's tracer wraps these functions by name; a missing one
    # would only be listed as absent, and its metrics would read 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{attr}"


def test_metropolis_runs_the_pattern_pass_once(capsys, monkeypatch):
    # the chains share one set of pattern messages, and Z is read off their
    # per-anchor partition functions, with no second pass through log_partition
    from bettiforge.dequant.paths import PATTERN, PathSpace

    calls = {"log_partition": 0, "pattern_passes": 0}
    log_partition, backward_pass = PathSpace.log_partition, PathSpace.backward_pass

    def count_log_partition(self):
        calls["log_partition"] += 1
        return log_partition(self)

    def count_backward_pass(self, kind):
        calls["pattern_passes"] += kind == PATTERN
        return backward_pass(self, kind)

    monkeypatch.setattr(PathSpace, "log_partition", count_log_partition)
    monkeypatch.setattr(PathSpace, "backward_pass", count_backward_pass)
    code, out, err = run_cli(capsys, *DEQUANT_K22, "--t", "1", "--samples", "200", "--sampler", "mh",
                             "--burn-in", "10")
    assert code == 0 and json.loads(out)["config"]["chains"] == 4, err
    assert calls == {"log_partition": 0, "pattern_passes": 1}


def test_exact_run_draws_every_chain_in_one_call(capsys, monkeypatch):
    # each chain draws its anchors from its own generator, then one batched
    # draw takes every chain's paths
    from bettiforge.dequant.paths import ExactPathSampler

    calls = []
    draw = ExactPathSampler.draw

    def count_draw(self, rngs, cols, *args, **kwargs):
        calls.append(len(cols))
        return draw(self, rngs, cols, *args, **kwargs)

    monkeypatch.setattr(ExactPathSampler, "draw", count_draw)
    code, out, err = run_cli(capsys, *DEQUANT_K22, "--t", "1", "--samples", "200")
    assert code == 0 and json.loads(out)["config"]["chains"] == 4, err
    assert calls == [200]


def test_metropolis_draws_its_proposals_in_blocks(capsys, monkeypatch):
    # the redraw and anchor proposals come PROPOSAL_BLOCK at a time from the
    # batched path draw and the batched clique draw, never one at a time
    from bettiforge.dequant import estimator
    from bettiforge.dequant.paths import PROPOSAL_BLOCK, ExactPathSampler

    draws, clique_calls = [], []
    draw, make_clique_sampler = ExactPathSampler.draw, estimator.make_clique_sampler

    def count_draw(self, rngs, cols, *args, **kwargs):
        draws.append(len(cols))
        return draw(self, rngs, cols, *args, **kwargs)

    def count_clique_sampler(*args):
        clique_draw, counters = make_clique_sampler(*args)

        def counted(rng, *rest):
            clique_calls.append(rest)
            return clique_draw(rng, *rest)

        return counted, counters

    monkeypatch.setattr(ExactPathSampler, "draw", count_draw)
    monkeypatch.setattr(estimator, "make_clique_sampler", count_clique_sampler)
    code, out, err = run_cli(capsys, *DEQUANT_K22, "--t", "1", "--samples", "200", "--sampler", "mh",
                             "--burn-in", "10")
    assert code == 0 and json.loads(out)["config"]["chains"] == 4, err
    assert draws and set(draws) == {PROPOSAL_BLOCK}
    assert len(clique_calls) > len(draws) and set(clique_calls) == {(PROPOSAL_BLOCK,)}


def test_betti_builds_one_clique_complex(capsys, monkeypatch):
    # one complex through size k+1 serves the rank, the spectrum and cl_k, and
    # the rank and the Laplacian share its face tables and coboundaries
    built = _count_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "betti", "--gen", "er:12,0.6", "--seed", "2", "--k", "3")
    assert code == 0 and json.loads(out)["cl_k"] > 0
    assert built == {"cliques": [1, 2, 3, 4], "faces": [2, 3], "cofaces": [2, 3]}


# ---------------------------------------------------------------------------
# fuzzing the input grammar: any value exits 0, 2 or 3 and never raises

FUZZ = settings(derandomize=True, deadline=None, max_examples=100, database=None)
EDGE_INTS = st.integers(-3, 64)
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 0.05, 0.5, 1.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _flags(**values) -> list[str]:
    # --name=value keeps argparse from reading "-inf" or "-3" as an option
    return [f"--{name}={value}" for name, value in values.items()]


def _exit_code(argv) -> int:
    # a run that exits 0 must print what it promises: finite JSON, or for
    # sweep a CSV whose every cell is a finite number
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code == 0 and argv[0] == "sweep":
        header, *rows = out.getvalue().splitlines()
        assert header.split(",") == list(SWEEP_COLUMNS)
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(SWEEP_COLUMNS) and all(math.isfinite(float(cell)) for cell in cells), row
    elif code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    return code


def _refuse_constant(name: str):
    raise AssertionError(f"{name} printed as a JSON number")


@FUZZ
@given(n=EDGE_INTS, k=EDGE_INTS, edges=EDGE_INTS, cliques=EDGE_INTS, betti=EDGE_INTS,
       gap=EDGE_FLOATS, r=EDGE_FLOATS, delta=EDGE_FLOATS, c=EDGE_INTS)
def test_fuzz_estimate_explicit(n, k, edges, cliques, betti, gap, r, delta, c):
    argv = ["estimate", *_flags(n=n, k=k, edges=edges, cliques=cliques, betti=betti, gap=gap, r=r, delta=delta, c=c)]
    assert _exit_code(argv) in (0, 2, 3)


@FUZZ
@given(m=EDGE_INTS, k=EDGE_INTS, r=EDGE_FLOATS, delta=EDGE_FLOATS, c=EDGE_INTS)
def test_fuzz_estimate_kpartite(m, k, r, delta, c):
    argv = ["estimate", *_flags(gen=f"kpartite:{m},{k}", r=r, delta=delta, c=c)]
    assert _exit_code(argv) in (0, 2, 3)


@FUZZ
@given(k=EDGE_INTS, start=EDGE_INTS, stop=st.integers(-3, 200), step=EDGE_INTS, r=EDGE_FLOATS, delta=EDGE_FLOATS)
def test_fuzz_sweep(k, start, stop, step, r, delta):
    argv = ["sweep", *_flags(k=k, n=f"{start}:{stop}:{step}", r=r, delta=delta)]
    assert _exit_code(argv) in (0, 2, 3)


@FUZZ
@given(amplitude=EDGE_FLOATS, epsilon=EDGE_FLOATS, delta=EDGE_FLOATS, seed=EDGE_INTS)
def test_fuzz_simulate_qae(amplitude, epsilon, delta, seed):
    argv = ["simulate", "qae", *_flags(amplitude=amplitude, epsilon=epsilon, delta=delta, seed=seed)]
    assert _cli_exit_code(argv) in (0, 2, 3)


@FUZZ
@given(n=EDGE_INTS, k=EDGE_INTS, c=EDGE_INTS, trials=st.integers(-3, 1000), seed=EDGE_INTS)
def test_fuzz_simulate_dicke(n, k, c, trials, seed):
    argv = ["simulate", "dicke", *_flags(n=n, k=k, c=c, trials=trials, seed=seed)]
    assert _cli_exit_code(argv) in (0, 2, 3)


def test_walk_at_k1_lists_each_energy_twice(capsys):
    # K2 at k = 1 has Dirac eigenvalues 0 and +-sqrt(2); a projector that
    # kept the empty set printed four sqrt(2) and two 1.45765 entries
    code, out, err = run_cli(capsys, "simulate", "walk", "--gen", "kpartite:1,2", "--k", "1")
    assert code == 0, err
    got = json.loads(out)["abs_sin_scaled"]
    assert len(got) == 6
    assert np.abs(np.array(got) - np.array([0.0, 0.0] + [math.sqrt(2.0)] * 4)).max() < 1e-8


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
GRAPH_TEXT = st.one_of(
    st.text(max_size=40),
    JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries({"n": JSON_VALUES, "edges": st.lists(st.lists(JSON_VALUES, max_size=3), max_size=6)}).map(
        json.dumps
    ),
)


@FUZZ
@given(text=GRAPH_TEXT, k=st.integers(-1, 4))
def test_fuzz_betti_graph_json(tmp_path_factory, text, k):
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(text)
    assert _exit_code(["betti", "--graph", str(path), "--k", str(k)]) in (0, 2, 3)


def _dequant_graph(n: int):
    # a subset of the valid edges, sometimes with one more pair that may be
    # a loop, out of range or a repeat
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    valid = st.lists(st.sampled_from(pairs), unique_by=tuple) if pairs else st.just([])
    bad = st.lists(st.integers(-1, n), min_size=2, max_size=2).map(lambda e: [e])
    extra = st.one_of(st.just([]), st.just([]), st.just([]), bad)
    return st.tuples(valid, extra).map(lambda edges: json.dumps({"n": n, "edges": edges[0] + edges[1]}))


DEQUANT_GRAPH = st.integers(0, 6).flatmap(_dequant_graph)
DEQUANT_TIMES = st.one_of(
    st.sampled_from([1.0, 3.0, 0.5, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(0.0, 5.0) | st.floats(-5.0, 5.0),
)


# each union lists a valid range first, so that a good share of the draws
# gets past the argument checks and runs a sampler
@settings(derandomize=True, deadline=None, max_examples=350, database=None)
@given(text=DEQUANT_GRAPH, k=st.integers(1, 3) | st.integers(-1, 7), t=DEQUANT_TIMES,
       slices=st.integers(1, 2) | st.integers(0, 2), samples=st.integers(2, 200) | st.integers(0, 200),
       chains=st.integers(1, 3) | st.integers(0, 3), sampler=st.sampled_from(["exact", "mh"]))
def test_fuzz_dequantize(tmp_path_factory, text, k, t, slices, samples, chains, sampler):
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(text)
    argv = ["dequantize", "--graph", str(path),
            *_flags(k=k, t=t, slices=slices, samples=samples, chains=chains, sampler=sampler)]
    assert _exit_code(argv) in (0, 2, 3)


def _cli_exit_code(argv) -> int:
    # argparse exits 2 on a value its type cannot read (an integer option
    # given "nan"), so an exit raised there is the status too
    try:
        return _exit_code(argv)
    except SystemExit as exc:
        return exc.code


def _simulate_graph(n: int):
    # each pair an edge with even odds, so that most graphs have k-cliques
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    keep = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    return keep.map(lambda flags: json.dumps({"n": n, "edges": [e for e, f in zip(pairs, flags) if f]}))


SIMULATE_GRAPH = st.integers(0, 8).flatmap(_simulate_graph)
SIMULATE_FLOATS = st.one_of(
    st.floats(0.01, 0.3),
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
SIMULATE_ELLS = st.one_of(st.none(), st.integers(1, 40), st.integers(-3, 0), st.sampled_from(["nan", "inf", "-inf"]))


# each union lists a valid range first, as in the dequantize fuzz
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(what=st.sampled_from(["walk", "filter", "pipeline"]), text=SIMULATE_GRAPH,
       k=st.integers(1, 3) | st.integers(-1, 9), epsilon=SIMULATE_FLOATS, r=SIMULATE_FLOATS,
       delta=SIMULATE_FLOATS, ell=SIMULATE_ELLS)
def test_fuzz_simulate_graph(tmp_path_factory, what, text, k, epsilon, r, delta, ell):
    path = tmp_path_factory.mktemp("fuzz") / "g.json"
    path.write_text(text)
    options = dict(k=k, epsilon=epsilon, r=r, delta=delta)
    if ell is not None:
        options["ell"] = ell
    argv = ["simulate", what, "--graph", str(path), *_flags(**options)]
    assert _cli_exit_code(argv) in (0, 2, 3)


# a field of a --gen spec: three times in four a small number, else a token
# that is not one, a non-finite float, an empty field or a count far past the caps
def _mostly(valid, junk):
    return st.one_of(valid, valid, valid, junk)


SPEC_SMALL = _mostly(st.integers(1, 3).map(str),
                     st.sampled_from(["0", "-1", "", "x", "nan", "inf", "1.5", "1e3", "100000000"]))
SPEC_N = _mostly(st.integers(2, 10).map(str),
                 st.sampled_from(["1", "0", "-1", "", "x", "nan", "-inf", "2.0", "100000000"]))
SPEC_P = _mostly(st.floats(0.0, 1.0).map(repr), st.sampled_from(["nan", "inf", "-inf", "-0.1", "1.5", "p", ""]))
SPEC_THRESHOLD = _mostly(st.floats(0.0, 3.0).map(repr), st.sampled_from(["nan", "inf", "-inf", "-1", "t", ""]))


def _gen_spec(family: str, *fields):
    # the family's fields in order, now and then cut short or given one more,
    # so that malformed arities come up too
    full = len(fields)
    arity = st.sampled_from([full, full, full, full, 0, full - 1, full + 1])
    return st.tuples(st.tuples(*fields), SPEC_SMALL, arity).map(
        lambda t: f"{family}:" + ",".join([*t[0], t[1]][: t[2]])
    )


GEN_FAMILIES = st.one_of(
    _gen_spec("kpartite", SPEC_SMALL, SPEC_SMALL),
    _gen_spec("er", SPEC_N, SPEC_P),
    _gen_spec("rips", SPEC_N, SPEC_SMALL, SPEC_THRESHOLD),
)
GEN_SPEC = _mostly(GEN_FAMILIES,
                  st.sampled_from(["", ":", "er", "kpartite:", "ER:5,0.5", "grid:3,3"]) | st.text(max_size=12))
GEN_COMMANDS = {"generate": ["generate"], "betti": ["betti"], "walk": ["simulate", "walk"]}


# sizes stay at desk scale (at most 16 vertices, k <= 5), so that every
# draw that gets past the checks runs quickly
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(command=st.sampled_from(sorted(GEN_COMMANDS)), spec=GEN_SPEC, k=st.integers(1, 3) | st.integers(-1, 5),
       seed=st.none() | st.integers(0, 5) | st.integers(-2, 5))
def test_fuzz_generator_spec(command, spec, k, seed):
    argv = [*GEN_COMMANDS[command], f"--gen={spec}"]
    if command != "generate":
        argv.append(f"--k={k}")
    if seed is not None:
        argv.append(f"--seed={seed}")
    assert _cli_exit_code(argv) in (0, 2, 3)
