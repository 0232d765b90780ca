import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bettiforge
from bettiforge.qsim import kaiser
from bettiforge.qsim.kaiser import window_size
from bettiforge.resources import (
    ResourceParams,
    amp_amplification_steps,
    amp_estimation_cost,
    block_encoding_cost,
    chebyshev_degree,
    clique_detect_cost,
    dicke_prep_cost,
    kpartite_params,
    leading_order_toffoli,
    sweep,
    sweep_to_csv,
    total_toffoli,
)

from oracles import dicke_alt_cost, total_toffoli_abs


def params_k33(**over):
    base = dict(r=0.05, delta=0.05)
    base.update(over)
    return kpartite_params(3, 3, **base)


class TestParams:
    def test_budget_composition(self):
        p = params_k33()
        assert p.r1 + p.r2 + p.r3 == pytest.approx(p.r, rel=1e-12)
        assert p.delta1 + p.delta2 == pytest.approx(p.delta, rel=1e-12)
        assert p.lam == p.n

    def test_shares_derived_from_r_and_delta(self):
        p = params_k33()
        for q, r, delta in ((p, 0.05, 0.05), (replace(p, r=2 * p.r), 0.1, 0.05)):
            assert (q.r1, q.r2, q.r3) == (r / 20, r - r / 20 - r / 20, r / 20)
            assert (q.delta1, q.delta2) == (delta / 20, delta - delta / 20)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("r", 0.0),
            ("r", 1.0),
            ("r", math.nan),
            ("delta", 0.0),
            ("delta", math.nan),
            ("betti", 10**9),
            ("clique_count", 10**9),
            ("lambda_min", math.nan),
            ("lambda_min", 9.0),
        ],
    )
    def test_invalid_rejected(self, field, value):
        good = dict(
            n=9, k=3, edge_count=27, clique_count=27, betti=8, lambda_min=3.0, r=0.05, delta=0.05
        )
        good[field] = value
        with pytest.raises(ValueError):
            ResourceParams(**good)


class TestStageCosts:
    def test_dicke_prep_values(self):
        assert dicke_prep_cost(16, 8) == 608
        assert dicke_prep_cost(4, 4) == 70

    def test_dicke_leading_order(self):
        n = 2**16
        ratio = dicke_prep_cost(n, 1) / (n / 2 * math.log2(n) ** 2)
        assert abs(ratio - 1.0) < 0.25

    def test_dicke_alt(self):
        cost, success = dicke_alt_cost(16, 4)
        assert cost == (4 + 2) * 16 + 4 * (4 * 4 - 1) + 2
        assert success == pytest.approx(43680 / 65536)

    def test_dicke_alt_k1_always_succeeds(self):
        _, success = dicke_alt_cost(10, 1)
        assert success == 1.0

    def test_dicke_alt_birthday_regime(self):
        for n in (16, 64, 256):
            k = math.isqrt(n)
            assert dicke_alt_cost(n, k)[1] >= 0.5

    def test_dicke_alt_rejects_k_over_n(self):
        with pytest.raises(ValueError):
            dicke_alt_cost(4, 5)

    def test_clique_detect(self):
        assert clique_detect_cost(375, 6) == 1131
        assert clique_detect_cost(0, 2) == 2

    def test_reflect_doubles_edge_part_only(self):
        for e, k in ((10, 3), (100, 7)):
            plain = clique_detect_cost(e, k)
            refl = clique_detect_cost(e, k, reflect=True)
            assert refl - plain == 3 * e

    def test_block_encoding(self):
        assert block_encoding_cost(16, 96, 4) == 704
        assert block_encoding_cost(2, 1, 1) == 27

    def test_block_encoding_edge_dominated(self):
        n = 64
        e = n * n // 4
        assert 6 * e / block_encoding_cost(n, e, 4) > 0.85


class TestChebyshev:
    def test_reference_value(self):
        assert chebyshev_degree(1e-2, 0.1, 1.0) == 54

    def test_even(self):
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            assert chebyshev_degree(eps, 0.2, 1.0) % 2 == 0

    def test_bound_on_grid(self):
        # 100-point grid: degree never exceeds ceil((lam/gap) ln(2/eps)) + 1
        for eps in np.logspace(-6, -0.5, 10):
            for ratio in np.linspace(0.05, 0.9, 10):
                ell = chebyshev_degree(float(eps), ratio, 1.0)
                bound = math.ceil(1.0 / ratio * math.log(2.0 / eps)) + 1
                assert ell <= bound

    def test_no_filter_needed(self):
        assert chebyshev_degree(1.0, 0.1, 1.0) == 0

    def test_gap_must_be_strict(self):
        with pytest.raises(ValueError):
            chebyshev_degree(0.01, 1.0, 1.0)


class TestKaiserParams:
    def test_leading_order_alpha(self):
        delta = 1e-10
        alpha, _ = window_size(1e-3, delta)
        lead = math.log(1.0 / delta) / (2.0 * math.pi)
        assert abs(lead / alpha - 1.0) < 0.15

    def test_n_at_least_pi_over_eps(self):
        for eps, delta in ((1e-2, 0.05), (1e-3, 1e-4)):
            _, n = window_size(eps, delta)
            assert n >= math.pi / eps

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            window_size(0.0, 0.05)
        with pytest.raises(ValueError):
            window_size(0.01, 1.0)

    def test_simulated_tail_below_requested(self):
        from bettiforge.qsim.kaiser import tail_fraction

        for delta in (0.1, 0.05, 0.01):
            alpha, _ = window_size(0.01, delta)
            assert tail_fraction(alpha) <= delta

    def test_tail_mass_beyond_eps_within_delta(self):
        # the chosen (alpha, N) keep the integrated error mass past +-eps
        # below the requested failure budget
        from oracles import kaiser_phase_distribution

        for eps, delta in ((0.02, 0.1), (0.01, 0.05), (0.005, 0.01)):
            alpha, n = window_size(eps, delta)
            dist = kaiser_phase_distribution(n, alpha)
            assert dist.first_zero <= eps + 1e-12
            assert dist.tail_mass(eps) <= delta


class TestTotals:
    def test_amp_estimation_ratio(self):
        # large instance so the final integer rounding is negligible
        p = kpartite_params(16, 16, r=0.05, delta=0.05)
        ratio = amp_estimation_cost(p) / amp_amplification_steps(p)
        expect = math.log(1.0 / p.delta1) / math.sqrt(p.r1)
        assert ratio == pytest.approx(expect, rel=0.01)

    def test_complete_graph_prefactor(self):
        # every subset is a clique: the sqrt ratio collapses to 1
        p = ResourceParams(
            n=12, k=3, edge_count=66, clique_count=math.comb(12, 3),
            betti=1, lambda_min=1.0, r=0.05, delta=0.05,
        )
        assert amp_amplification_steps(p) == math.ceil(math.pi / 4)

    def test_total_breakdown_consistency(self):
        p = params_k33()
        est = total_toffoli(p)
        b = est.breakdown
        assert est.total_toffoli == (
            b["state_prep_toffoli"] + b["filter_toffoli"] + b["initial_estimation_toffoli"]
        )
        for comp in (
            est.dicke_toffoli,
            est.clique_reflect_toffoli,
            est.block_encode_toffoli,
            est.chebyshev_degree,
            est.amp_est_steps,
            est.amp_amp_steps,
        ):
            assert 0 <= comp <= est.total_toffoli

    def test_rejects_zero_betti(self):
        with pytest.raises(ValueError, match="Betti number >= 1"):
            ResourceParams(
                n=4, k=2, edge_count=6, clique_count=6, betti=0, lambda_min=1.0, r=0.05, delta=0.05
            )

    def test_abs_identity(self):
        p = params_k33()
        a = total_toffoli(p)
        b = total_toffoli_abs(p, p.r * p.betti)
        assert a.total_toffoli == b.total_toffoli

    def test_abs_grows_with_betti(self):
        # at fixed absolute accuracy, larger Betti numbers cost more
        p_small = ResourceParams(
            n=16, k=4, edge_count=96, clique_count=256, betti=16, lambda_min=4.0,
            r=0.05, delta=0.05,
        )
        p_big = replace(p_small, betti=81)
        alpha_abs = 0.8
        assert (
            total_toffoli_abs(p_big, alpha_abs).total_toffoli
            > total_toffoli_abs(p_small, alpha_abs).total_toffoli
        )

    def test_doubling_r_halves_leading_closed_form(self):
        # the 1/r prefactor halves; the filter share r3 = r/20 moves the log term too
        p1 = kpartite_params(4, 3, r=0.04, delta=0.05)
        p2 = replace(p1, r=0.08)

        def bracket(p):
            return math.pi / 2.0 * math.sqrt(math.comb(p.n, p.k) / p.clique_count) + (
                p.n / p.lambda_min * math.log(4.0 * p.clique_count / (p.r / 20.0 * p.betti))
            )

        ratio = leading_order_toffoli(p2) / leading_order_toffoli(p1)
        assert ratio == pytest.approx(bracket(p2) / bracket(p1) / 2.0, rel=1e-12)

    def test_monotonicity_grid(self):
        base = dict(n=24, k=4, r=0.05, delta=0.05)
        bettis = [4, 16, 81, 256]
        totals = [
            total_toffoli(
                ResourceParams(edge_count=216, clique_count=1296, betti=b, lambda_min=6.0, **base)
            ).total_toffoli
            for b in bettis
        ]
        assert totals == sorted(totals, reverse=True)
        edges = [150, 216, 250, 276]  # up to C(24, 2)
        totals_e = [
            total_toffoli(
                ResourceParams(edge_count=e, clique_count=1296, betti=81, lambda_min=6.0, **base)
            ).total_toffoli
            for e in edges
        ]
        assert totals_e == sorted(totals_e)
        gaps = [1.0, 2.0, 4.0, 6.0]
        totals_g = [
            total_toffoli(
                ResourceParams(edge_count=216, clique_count=1296, betti=81, lambda_min=g, **base)
            ).total_toffoli
            for g in gaps
        ]
        assert totals_g == sorted(totals_g, reverse=True)

    def test_reproducible(self):
        p = kpartite_params(16, 16, r=1 / 20, delta=1 / 20)
        a = total_toffoli(p, refined_kaiser=True).total_toffoli
        b = total_toffoli(p, refined_kaiser=True).total_toffoli
        assert a == b

    @pytest.mark.parametrize("refined", [False, True])
    def test_headline_anchors_both_modes(self, refined):
        for (m, k), target in (((16, 16), 8e10), ((15, 12), 1e10)):
            p = kpartite_params(m, k, r=1 / 20, delta=1 / 20)
            total = total_toffoli(p, refined_kaiser=refined).total_toffoli
            assert target / 5 <= total <= target * 5


class TestSweep:
    def test_rows_and_columns(self):
        rows = sweep(16, [250, 256], 1 / 20, 1 / 20)
        assert len(rows) == 1 and rows[0].n == 256
        assert rows[0].cliques == 16**16
        assert rows[0].binom == math.comb(256, 16)

    def test_anchor_consistency(self):
        rows = sweep(16, [256], 1 / 20, 1 / 20)
        est = total_toffoli(kpartite_params(16, 16, 1 / 20, 1 / 20))
        assert rows[0].toffoli_total == est.total_toffoli

    def test_skips_with_warning(self):
        warnings = []
        rows = sweep(4, [6, 4, 8], 0.05, 0.05, warn=warnings.append)
        assert [r.n for r in rows] == [8]
        assert len(warnings) == 2

    def test_binom_dominates_cliques(self):
        for row in sweep(8, range(16, 257, 8), 0.05, 0.05):
            assert row.binom >= row.cliques

    def test_quantum_column_monotone_past_smallest_cluster(self):
        # the m=2 entry carries a (m/(m-1))^(k/2) Betti-ratio spike of 2^(k/2)
        # and sits above its neighbor; from m >= 3 the column rises with n
        rows = sweep(8, range(16, 257, 8), 1 / 20, 1 / 20)
        totals = [row.toffoli_total for row in rows]
        assert totals[0] > totals[1]
        assert all(a <= b for a, b in zip(totals[1:], totals[2:]))

    def test_csv_shape(self):
        rows = sweep(4, [16, 32], 0.05, 0.05)
        text = sweep_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "n,k,m,toffoli_total,toffoli_prep,toffoli_filter,binom,cliques"
        assert len(lines) == 4 and lines[-1] == ""
        assert text == sweep_to_csv(rows)  # deterministic


def _imported_modules(tree: ast.Module):
    """Every module name the source imports, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_no_module_level_scipy_import():
    # the program runs on numpy alone: no module imports scipy, neither at
    # load time nor inside a function
    import bettiforge

    root = Path(bettiforge.__file__).parent
    offenders = [
        f"{path.relative_to(root)}: {name}"
        for path in sorted(root.rglob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text()))
        if name.split(".")[0] == "scipy"
    ]
    assert offenders == []


def test_resources_import_loads_no_numpy():
    # the closed-form cost model and its asymptotic window sizing start
    # without numpy; only the refined window shape and the simulators load it
    src = str(Path(bettiforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, bettiforge.resources; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_asymptotic_grid_is_numpy_linspace():
    want = np.linspace(kaiser.ALPHA_LO + 1e-6, 2.0, 400)
    assert [a.hex() for a in kaiser._linspace(kaiser.ALPHA_LO + 1e-6, 2.0, 400)] == [a.hex() for a in want.tolist()]
