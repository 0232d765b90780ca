import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bettiforge.graphs import Graph, build_clique_complex, gen_erdos_renyi, gen_kpartite
from bettiforge.homology import dirac, spectrum
from bettiforge.qsim import dicke, filters, kaiser, pipeline, walkenc
from bettiforge.resources import ResourceParams, chebyshev_degree
from oracles import (
    amplitude_estimate_trials,
    asymptotic_tail_bound,
    bisection_alpha,
    dense_dirac_gap,
    dense_encoding,
    dense_filter_amplitude,
    dense_walk,
    dense_walk_spectrum,
    failure_prob_by_values,
    filter_halfwidth,
    full_dirac,
    kaiser_phase_distribution,
    projected_block,
)


class TestDickeThreshold:
    def test_worked_example_success(self):
        run = dicke.dicke_threshold_run([0b0110, 0b1110, 0b0111, 0b0010], 2, n_seed=4)
        assert run.success
        assert run.bits == (0, 1, 1, 1)
        assert run.threshold == 0b0111
        assert run.selected == 0b0110  # registers 2 and 3 (0-indexed 1 and 2)

    def test_worked_example_duplicate_fails(self):
        run = dicke.dicke_threshold_run([0b0110, 0b1110, 0b0110, 0b0010], 2, n_seed=4)
        assert not run.success
        assert run.bits == (0, 1, 1, 0)

    def test_distinct_seeds_select_largest(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            seeds = rng.permutation(16)[:4].tolist()
            run = dicke.dicke_threshold_run(seeds, 2, n_seed=4)
            assert run.success
            chosen = sorted(seeds[i] for i in range(4) if run.selected >> i & 1)
            assert chosen == sorted(seeds)[-2:]

    def test_exhaustive_equivalence_and_probability(self):
        # all 16^4 seed tuples: procedure success == order-statistic criterion
        fails = 0
        for tup in product(range(16), repeat=4):
            run = dicke.dicke_threshold_run(tup, 2, n_seed=4)
            s = sorted(tup, reverse=True)
            assert run.success == (s[1] != s[2])
            fails += not run.success
        assert Fraction(fails, 16**4) == dicke.exact_failure_prob(4, 2, 4)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        seeds = rng.integers(0, 16, size=(200, 4))
        batch = dicke.threshold_success_batch(seeds, 2)
        for row, ok in zip(seeds, batch):
            assert dicke.dicke_threshold_run(row.tolist(), 2, n_seed=4).success == ok

    def test_monte_carlo_matches_exact(self):
        res = dicke.dicke_success_prob(4, 2, 4, 100000, seed=3)
        exact = float(res.exact_failure)
        sigma = math.sqrt(exact * (1 - exact) / res.trials)
        assert abs(res.failure_rate - exact) <= 4 * sigma

    @pytest.mark.parametrize(
        "n,k,c",
        [
            (4, 2, 4), (6, 3, 2), (8, 3, 8), (16, 4, 8), (2, 1, 1), (5, 1, 3), (5, 4, 3), (7, 6, 2),
            (2, 1, 2048), (3, 1, 1024), (3, 2, 512), (5, 2, 128), (6, 3, 64),
        ],
    )
    def test_exact_law_matches_direct_summation(self, n, k, c):
        # oracle: the direct Fraction sum over the k-th largest value v, with
        # a < k seeds above v and b >= k+1-a seeds equal to v
        f = dicke.seed_modulus(n, c)
        want = Fraction(0)
        for v in range(f):
            p_gt, p_eq, p_lt = Fraction(f - 1 - v, f), Fraction(1, f), Fraction(v, f)
            for a in range(k):
                for b in range(k + 1 - a, n - a + 1):
                    want += (
                        math.comb(n, a) * p_gt**a
                        * math.comb(n - a, b) * p_eq**b * p_lt ** (n - a - b)
                    )
        assert dicke.exact_failure_prob(n, k, c) == want

    def test_exact_law_matches_the_value_loop(self):
        # seeded (n, k, c) with f up to 2^16, against the sum over every seed value
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n))
            c = int(rng.integers(1, (1 << 16) // n + 1))
            assert dicke.exact_failure_prob(n, k, c) == failure_prob_by_values(n, k, c), (n, k, c)

    def test_failure_vanishes_for_large_range(self):
        # continuous-seed limit: collisions disappear as c grows
        assert dicke.exact_failure_prob(4, 2, 1 << 12) < 1e-3

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            dicke.dicke_success_prob(4, 2, 4, 0, seed=0)


def _stream_cases():
    """Seeded (n, k, c, trials, seed) with f = 2^b in each of b <= 16, 16 < b <= 32, 32 < b <= 63.

    Odd n and odd trials*n come up in each band, and trials is never a
    multiple of the chunk rows; the fixed cases are the band edges.
    """
    rng = np.random.default_rng(2311)
    cases = [(2, 1, 1, 5, 0), (3, 1, 1 << 30, 7, 1), (3, 2, 1 << 31, 9, 2), (5, 3, (1 << 63) // 5, 3, 3)]
    for lo, hi in ((2, 16), (17, 32), (33, 63)):
        for i in range(6):
            bits = int(rng.integers(lo, hi + 1))
            n = int(rng.integers(2, min(40, 1 << (bits - 1)) + 1)) | (i % 2)
            rows = max(1, dicke.CHUNK_SEEDS // n)
            trials = int(rng.integers(1, 3 * rows)) | 1
            cases.append((n, int(rng.integers(1, n)), (1 << bits) // n, trials, int(rng.integers(2**31))))
    return cases


class TestDickeStream:
    """The raw-word draw reproduces one ``rng.integers(0, f, size=(trials, n))`` call."""

    @pytest.mark.parametrize("n,k,c,trials,seed", _stream_cases())
    def test_seeds_match_one_integers_call(self, n, k, c, trials, seed):
        f = dicke.seed_modulus(n, c)
        bits = f.bit_length() - 1
        chunks = list(dicke._seed_chunks(np.random.PCG64(seed), n, bits, trials))
        want = np.random.default_rng(seed).integers(0, f, size=(trials, n))
        assert np.array_equal(np.concatenate(chunks), want)
        assert max(chunk.size for chunk in chunks) <= max(dicke.CHUNK_SEEDS + n, 2 * n)

    @pytest.mark.parametrize("n,k,c,trials,seed", _stream_cases())
    def test_rate_matches_one_integers_call(self, n, k, c, trials, seed):
        # past b = 16 ties are rare, so the seed check above carries the wide registers
        draws = np.random.default_rng(seed).integers(0, dicke.seed_modulus(n, c), size=(trials, n))
        want = np.count_nonzero(~dicke.threshold_success_batch(draws, k)) / trials
        assert dicke.dicke_success_prob(n, k, c, trials, seed).failure_rate == want

    @pytest.mark.parametrize("budget", [2, 64])
    def test_rates_do_not_depend_on_the_chunk_budget(self, budget, monkeypatch):
        cases = [(5, 2, 2, 999, 4), (4, 2, 4, 1001, 5), (7, 3, 1, 333, 6), (3, 1, 1 << 40, 101, 7), (64, 8, 8, 301, 8)]
        want = [dicke.dicke_success_prob(*case) for case in cases]
        monkeypatch.setattr(dicke, "CHUNK_SEEDS", budget)
        assert [dicke.dicke_success_prob(*case) for case in cases] == want
        assert want[0].failure_rate > 0 and want[2].failure_rate > 0


def _walk_cases(n: int):
    """G(n, 0.6) for seeds 0-7 and k = 1-3, each graph that has k-cliques."""
    for seed in range(8):
        g = gen_erdos_renyi(n, 0.6, seed)
        for k in range(1, 4):
            if build_clique_complex(g, k).count(k):
                yield g, k


def _check_walk_against_oracle(g, k):
    enc = walkenc.build_block_encoding(g, k)
    x = np.random.default_rng(g.n).standard_normal((g.n << g.n, 3))
    assert np.abs(enc.apply(x) - dense_encoding(g.n) @ x).max() < 1e-14
    spec = walkenc.walk_spectrum(g, k)
    evals, phases = dense_walk_spectrum(g, k)
    assert spec.hamiltonian_eigs.tobytes() == evals.tobytes()
    assert spec.walk_eigenphases.size == phases.size
    assert np.abs(spec.walk_eigenphases - phases).max() < 1e-12
    want = np.sort(np.repeat(np.abs(spec.hamiltonian_eigs), 2))
    got = np.sort(np.abs(np.sin(spec.walk_eigenphases)) * spec.lam)
    assert got.size == want.size
    assert np.abs(want - got).max() < 1e-8


class TestBlockEncoding:
    def test_complete_graph_unrestricted_block(self):
        g = gen_kpartite(1, 4)
        enc = walkenc.build_block_encoding(g, 2)
        dim = enc.system_dim
        block = enc.apply(np.eye(g.n * dim))[:dim, :dim]
        assert np.abs(block - full_dirac(4) / 4.0).max() < 1e-12

    def test_unitary_and_hermitian(self):
        g = gen_erdos_renyi(5, 0.5, 7)
        enc = walkenc.build_block_encoding(g, 2)
        v = enc.apply(np.eye(g.n << g.n))
        assert np.abs(v @ v.T - np.eye(v.shape[0])).max() < 1e-12
        assert np.abs(v - v.T).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_projected_block_equals_dirac(self, seed):
        n = 4 + seed % 3
        g = gen_erdos_renyi(n, 0.6, seed)
        k = 2
        cx = build_clique_complex(g, k)
        if cx.count(k) == 0:
            pytest.skip("no edges")
        dop = dirac(cx, k)
        states = []
        for size in (k - 1, k, k + 1):
            states.extend(cx.basis(size))
        # the dense oracle: P V P on the system, zero outside the clique states
        pb = projected_block(g, k)
        sub = pb[np.ix_(states, states)]
        assert np.abs(sub - dop.matrix / g.n).max() < 1e-12
        outside = np.ones(pb.shape[0], dtype=bool)
        outside[list(states)] = False
        assert np.abs(pb[outside, :]).max(initial=0.0) < 1e-15
        # the matrix-free encoding: its projector is the Dirac basis
        enc = walkenc.build_block_encoding(g, k)
        assert enc.states.tolist() == states
        basis = enc.embed(np.eye(len(states)))
        assert np.abs(basis.T @ enc.apply(basis) - dop.matrix / g.n).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_walk_eigenphases(self, seed):
        n = 4 + seed % 3
        g = gen_erdos_renyi(n, 0.6, 100 + seed)
        if not g.edges:
            pytest.skip("empty graph")
        for k in (1, 2):
            _check_walk_against_oracle(g, k)

    @pytest.mark.parametrize("g", [gen_kpartite(1, m) for m in range(2, 7)] + [gen_kpartite(2, 2)],
                             ids=["K2", "K3", "K4", "K5", "K6", "K(2,2)"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_walk_eigenphases_complete_and_bipartite(self, g, k):
        if build_clique_complex(g, k).count(k) == 0:
            with pytest.raises(ValueError, match=f"graph has no {k}-cliques"):
                walkenc.walk_spectrum(g, k)
            return
        _check_walk_against_oracle(g, k)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_walk_matches_dense_oracle_on_random_graphs(self, n):
        for g, k in _walk_cases(n):
            _check_walk_against_oracle(g, k)

    def test_phase_of_minus_one_is_plus_pi(self):
        # a zero mode gives walk eigenvalues +1 and -1; -1 must not come out
        # as -pi on one side of the branch cut and +pi on the other
        for g, k in [(gen_kpartite(2, 2), 2), (gen_kpartite(1, 2), 1)]:
            phases = walkenc.walk_spectrum(g, k).walk_eigenphases
            assert np.all(phases > -math.pi + 1e-6)
            assert np.any(phases == math.pi)

    def test_zero_mode_gives_plus_minus_one(self):
        g = gen_kpartite(2, 2)  # beta_1 = 1: a zero mode exists
        spec = walkenc.walk_spectrum(g, 2)
        phases = spec.walk_eigenphases
        assert np.any(np.abs(phases) < 1e-8)  # eigenvalue +1
        assert np.any(np.abs(np.abs(phases) - math.pi) < 1e-8)  # eigenvalue -1

    def test_walk_action_on_orthogonal_partner(self):
        g = gen_erdos_renyi(5, 0.7, 11)
        enc = walkenc.build_block_encoding(g, 2)
        evals, evecs = np.linalg.eigh(dirac(build_clique_complex(g, 2), 2).matrix.astype(float))
        emb = enc.embed(evecs)
        walk = dense_walk(g, 2)
        for i, energy in enumerate(evals):
            v0k = emb[:, i]
            ratio = energy / enc.lam
            resid = enc.apply(v0k[:, None])[:, 0] - ratio * v0k
            if np.linalg.norm(resid) < 1e-12:
                continue
            chi_kperp = resid / (1j * math.sqrt(1.0 - ratio * ratio))
            lhs = walk @ chi_kperp
            rhs = 1j * ratio * chi_kperp + math.sqrt(1.0 - ratio * ratio) * v0k
            assert np.abs(lhs - rhs).max() < 1e-10
            # the matrix-free walk acts the same way
            assert np.abs(1j * enc.reflection() * enc.apply(chi_kperp[:, None])[:, 0] - lhs).max() < 1e-12

    def test_walk_memory_is_bounded_by_the_batch(self):
        # the planes are compressed a batch of eigenvectors at a time, so no
        # array spans the n * 2^n space times the whole Dirac basis
        import tracemalloc

        for g, k in [(gen_kpartite(1, 9), 4), (gen_erdos_renyi(12, 0.6, 1), 2)]:
            tracemalloc.start()
            try:
                walkenc.walk_spectrum(g, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 << 20, (g.n, k, peak)

    def test_size_limit(self):
        from bettiforge.errors import DeskScaleError

        with pytest.raises(DeskScaleError):
            walkenc.build_block_encoding(Graph(13, ()), 2)


class TestChebyshevFilter:
    def test_peak_is_one(self):
        for ell in (4, 12, 30):
            assert filters.chebyshev_filter_response(ell, 1e-3, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_value_at_pi_over_two_even_degree(self):
        val = filters.chebyshev_filter_response(8, 1e-2, math.pi / 2.0)
        assert abs(abs(val) - 1e-2) < 1e-12

    def test_width_equation(self):
        ell, eps = 14, 1e-3
        phi_gap = filter_halfwidth(ell, eps)
        beta = math.cosh(math.acosh(1 / eps) / ell)
        assert beta * math.cos(phi_gap) == pytest.approx(1.0)
        val = filters.chebyshev_filter_response(ell, eps, phi_gap)
        assert abs(abs(val) - eps) < 1e-12

    def test_suppressed_outside_gap(self):
        ell, eps = 16, 1e-3
        phi_gap = filter_halfwidth(ell, eps)
        phis = np.linspace(phi_gap, math.pi - phi_gap, 300)
        assert np.abs(filters.chebyshev_filter_response(ell, eps, phis)).max() <= eps + 1e-12

    def test_fourier_parity(self):
        # w(phi) is even and, for even degree, supported on even harmonics
        ell, eps = 8, 1e-2
        grid = 4096
        phis = 2.0 * math.pi * np.arange(grid) / grid
        vals = filters.chebyshev_filter_response(ell, eps, phis)
        coef = np.fft.rfft(vals) / grid
        assert np.abs(coef.imag).max() < 1e-10  # w_j = w_{-j}
        odd = coef[1 : ell + 1 : 2]
        assert np.abs(odd).max() < 1e-10
        assert np.abs(coef[ell + 1 : grid // 4]).max() < 1e-10  # degree bound

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            filters.chebyshev_filter_response(0, 0.1, 0.0)


class TestApplyFilter:
    def test_k22_quarter(self):
        from bettiforge.resources import chebyshev_degree

        g = gen_kpartite(2, 2)
        summary = spectrum(g, 2)
        gap = filters.dirac_gap(summary)
        assert gap == pytest.approx(math.sqrt(2.0), abs=1e-9)
        ell = chebyshev_degree(1e-3, gap, 4.0)
        res = filters.apply_filter_to_state(summary, 4.0, ell, 1e-3)
        assert abs(res.amplitude_sq - 0.25) <= 1e-6

    def test_componentwise_suppression(self):
        from bettiforge.resources import chebyshev_degree

        g = gen_kpartite(2, 2)
        summary = spectrum(g, 2)
        ell = chebyshev_degree(1e-3, filters.dirac_gap(summary), 4.0)
        res = filters.apply_filter_to_state(summary, 4.0, ell, 1e-3)
        tol = 1e-8 * np.abs(res.eigenvalues).max()
        nonzero = np.abs(res.eigenvalues) > tol
        assert np.abs(res.responses[nonzero]).max() <= 1e-3

    def test_zero_betti_floor(self):
        from bettiforge.resources import chebyshev_degree

        g = gen_kpartite(1, 3)  # triangle: beta_1 = 0
        eps = 1e-3
        summary = spectrum(g, 2)
        ell = chebyshev_degree(eps, filters.dirac_gap(summary), 3.0)
        res = filters.apply_filter_to_state(summary, 3.0, ell, eps)
        assert res.amplitude_sq <= eps * eps


def _spectral_cases():
    cases = []
    for n in range(4, 9):
        for seed in range(3):
            for k in (1, 2, 3):
                cases.append(pytest.param(gen_erdos_renyi(n, 0.6, seed), k, id=f"er{n}-s{seed}-k{k}"))
    for n in range(3, 8):
        for k in (1, 2, 3):
            cases.append(pytest.param(gen_kpartite(1, n), k, id=f"K{n}-k{k}"))
    for m, k in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
        cases.append(pytest.param(gen_kpartite(m, k), k, id=f"K({m},{k})"))
    cases.append(pytest.param(gen_kpartite(2, 2), 3, id="no-triangles"))
    cases.append(pytest.param(Graph(5, ((0, 1), (1, 2), (2, 3))), 3, id="path-no-triangles"))
    for k in (1, 2):
        cases.append(pytest.param(Graph(5, ()), k, id=f"edgeless-k{k}"))
    return cases


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestSpectralFilterMatchesDenseDirac:
    """The L_k spectrum path against eigendecompositions of the dense Dirac operator."""

    @pytest.mark.parametrize("g,k", _spectral_cases())
    def test_gap_degree_and_amplitude(self, g, k):
        if build_clique_complex(g, k).count(k) == 0:
            with pytest.raises(ValueError, match=f"no {k}-cliques"):
                spectrum(g, k)
            with pytest.raises(ValueError, match=f"no {k}-cliques"):
                dense_filter_amplitude(g, k, 2, 0.1)
            return
        summary = spectrum(g, k)
        lam = float(g.n)
        want_gap = _outcome(dense_dirac_gap, g, k)
        gap = _outcome(filters.dirac_gap, summary)
        if isinstance(want_gap, str):
            assert gap == want_gap == "ValueError: operator has no nonzero modes"
        else:
            assert abs(gap - want_gap) <= 1e-12 * want_gap
        for eps in (0.3, 0.05, 1e-3):
            ells = [7]
            if not isinstance(want_gap, str):
                degree = _outcome(chebyshev_degree, eps, gap, lam)
                assert degree == _outcome(chebyshev_degree, eps, want_gap, lam)
                if isinstance(degree, int) and degree > 0:
                    ells.append(degree)
            for ell in ells:
                got = filters.apply_filter_to_state(summary, lam, ell, eps).amplitude_sq
                assert abs(got - dense_filter_amplitude(g, k, ell, eps)) <= 1e-12


class TestKaiserWindow:
    def test_coefficients_symmetric_and_peaked(self):
        kern = kaiser.kaiser_kernel(32, 3.0)
        w = kern.coefficients
        assert np.allclose(w, w[::-1])
        assert np.argmax(w) == 32

    def test_density_normalized_and_symmetric(self):
        from scipy.integrate import quad

        dist = kaiser_phase_distribution(48, 3.0)
        total = 2.0 * quad(lambda x: float(dist.density(x)), 0.0, math.pi, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-6)
        xs = np.linspace(0.0, math.pi, 50)
        assert np.allclose(dist.density(xs), dist.density(-xs))

    def test_first_zero(self):
        dist = kaiser_phase_distribution(48, 2.0)
        assert dist.first_zero == pytest.approx(math.pi / 48 * math.sqrt(5.0))
        assert float(dist.density(dist.first_zero)) < 1e-12

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 5.0, 8.0])
    def test_tail_within_asymptotic_bound(self, alpha):
        tail = kaiser.tail_fraction(alpha)
        bound = asymptotic_tail_bound(alpha)
        assert tail <= bound * 1.5
        assert tail >= bound * 0.2  # sanity: same order of magnitude

    def test_tail_monotone_in_alpha(self):
        tails = [kaiser.tail_fraction(a) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert tails == sorted(tails, reverse=True)

    def test_normalization_asymptote(self):
        n, alpha = 64, 8.0
        dist = kaiser_phase_distribution(n, alpha)
        ratio = dist.normalization / (math.pi / (2.0 * n * math.sqrt(alpha)))
        assert abs(ratio - 1.0) < 0.10

    @pytest.mark.parametrize("solve", [kaiser.solve_alpha_quadrature, kaiser.solve_alpha_asymptotic])
    def test_delta_below_largest_window_tail_rejected(self, solve):
        with pytest.raises(ValueError, match="too small"):
            solve(1e-80)

    def test_solvers_in_range_below_alpha_cap(self):
        # a budget of 1e-60 is still met below the cap; only smaller ones fail
        assert kaiser.solve_alpha_quadrature(1e-60) < kaiser.ALPHA_HI
        assert kaiser.solve_alpha_asymptotic(1e-60) < kaiser.ALPHA_HI


# 200 budgets log-uniform over [1e-66, 0.999], and the headline estimate's two shares of 0.05
SOLVE_DELTAS = [
    *np.exp(np.random.default_rng(22).uniform(math.log(1e-66), math.log(0.999), 200)).tolist(),
    0.05 / 20,
    0.05 * 19 / 20,
]


class TestQuadratureSolve:
    """The bracketed solve against the evaluating bisection it replays."""

    def test_matches_bisection_bit_for_bit_in_few_quadratures(self):
        want = [bisection_alpha(delta) for delta in SOLVE_DELTAS]
        got, quadratures = [], []
        for delta in SOLVE_DELTAS:
            kaiser._tail_fraction_scaled.cache_clear()
            got.append(kaiser.solve_alpha_quadrature(delta))
            quadratures.append(kaiser._tail_fraction_scaled.cache_info().misses)
        assert [a.hex() for a in got] == [a.hex() for a in want]
        assert max(quadratures) <= 16
        assert any(a == 0.05 for a in got) and any(a > 20.0 for a in got)  # both ends of the range are reached

    @pytest.mark.parametrize("delta", [kaiser.tail_fraction(0.05), 0.5, 0.999])
    def test_budget_at_or_above_the_smallest_window_tail(self, delta):
        kaiser._tail_fraction_scaled.cache_clear()
        assert kaiser.solve_alpha_quadrature(delta) == bisection_alpha(delta) == 0.05
        assert kaiser._tail_fraction_scaled.cache_info().misses == 1

    def test_out_of_range_message_unchanged(self):
        with pytest.raises(ValueError) as want:
            bisection_alpha(1e-80)
        with pytest.raises(ValueError) as got:
            kaiser.solve_alpha_quadrature(1e-80)
        assert str(got.value) == str(want.value)
        assert "alpha = 25 is 4.68e-67" in str(got.value)

    @pytest.mark.parametrize("delta", [1e-60, 1e-40, 1e-20, 1e-8, 1e-3, 0.05 / 20, 0.05 * 19 / 20, 0.09])
    def test_tail_strictly_decreasing_on_the_fine_grid_at_the_root(self, delta):
        # the replay's premise: on the 1e-12 grid the test tail <= delta
        # switches once, between g* - 1e-12 and g*
        g_star = round(round(kaiser.solve_alpha_quadrature(delta), 12) * 1e12)
        tails = [kaiser.tail_fraction((g_star + i) / 1e12) for i in range(-3, 4)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert tails[2] > delta >= tails[3]


class TestNumpyReplicas:
    """The numpy Simpson rule and I0e against scipy, bit for bit.

    Verified against scipy 1.17.1 on x86_64. ``_simpson`` repeats the float
    operation order of that release's ``_basic_simpson``, and ``_i0e`` matches
    a Cephes build without fused multiply-adds. A failure here under another
    scipy or platform may mean the reference changed, not bettiforge; check
    the ``desk`` outputs against a pinned run before reading it as a bug.
    """

    def test_simpson_on_tail_fraction_grids(self):
        from scipy.integrate import simpson

        for alpha in np.random.default_rng(3).uniform(0.05, kaiser.ALPHA_HI, 20):
            z1 = kaiser.first_zero_scaled(alpha)
            for grid in (np.linspace(0.0, z1, 4001), np.linspace(z1, z1 + 300.0 * math.pi, 60001)):
                y = kaiser._kernel_sq(grid, alpha)
                assert kaiser._simpson(y, grid) == simpson(y, x=grid)

    @pytest.mark.parametrize("n", [3, 5, 9, 101, 2001])
    def test_simpson_on_random_grids(self, n):
        from scipy.integrate import simpson

        rng = np.random.default_rng(n)
        for _ in range(20):
            x = np.cumsum(rng.uniform(1e-3, 2.0, n)) - 5.0
            y = rng.normal(size=n)
            assert kaiser._simpson(y, x) == simpson(y, x=x)

    def test_i0e_edges_and_random_points(self):
        from scipy.special import i0e

        edges = [0.0, np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0), math.pi * kaiser.ALPHA_HI]
        x = np.concatenate([edges, np.random.default_rng(7).uniform(0.0, 100.0, 20000)])
        assert np.array_equal(kaiser._i0e(x), i0e(x))
        assert kaiser._i0e(math.pi * 2.5) == i0e(math.pi * 2.5)

    def test_kernel_weights_match_scipy_i0e(self):
        from scipy.special import i0e

        for n, alpha in ((1, 0.5), (32, 3.0), (400, 7.25), (1000, kaiser.ALPHA_HI)):
            m = np.arange(-n, n + 1)
            arg = math.pi * alpha * np.sqrt(np.clip(1.0 - (m / n) ** 2, 0.0, None))
            top = math.pi * alpha
            w = i0e(arg) * np.exp(arg - top) / i0e(top)
            assert np.array_equal(kaiser.kaiser_kernel(n, alpha).coefficients, w / np.linalg.norm(w))


class TestAmplitudeEstimation:
    def test_on_grid_recovery(self):
        alpha, n = kaiser.window_size(0.01, 0.05)
        a = math.sin(math.pi * 20 / (2 * n + 1))
        est = amplitude_estimate_trials(a, 0.01, 0.05, 400, seed=3)
        assert np.mean(np.abs(est - a) < 1e-12) > 0.9

    @pytest.mark.parametrize("eps,delta", [(0.01, 0.05), (0.005, 0.01)])
    def test_failure_rate(self, eps, delta):
        est = amplitude_estimate_trials(0.3, eps, delta, 2000, seed=13)
        fail = float(np.mean(np.abs(est - 0.3) > eps))
        assert fail <= delta + 3.0 * math.sqrt(delta * (1 - delta) / 2000)

    def test_single_run_reproducible(self):
        a = kaiser.amplitude_estimate_sim(0.4, 0.02, 0.05, seed=9)
        b = kaiser.amplitude_estimate_sim(0.4, 0.02, 0.05, seed=9)
        assert a == b

    def test_amplitude_domain(self):
        with pytest.raises(ValueError):
            kaiser.amplitude_estimate_sim(1.0, 0.01, 0.05, seed=0)


class TestPipeline:
    def test_k22_within_budget(self):
        g = gen_kpartite(2, 2)
        out = pipeline.end_to_end_normalized_betti(g, 2, r=0.1, delta=0.05, seed=5)
        assert out.target == pytest.approx(0.25)
        assert abs(out.estimate - out.target) <= 0.1 * out.target

    def test_k23_within_budget(self):
        g = gen_kpartite(2, 3)
        out = pipeline.end_to_end_normalized_betti(g, 3, r=0.1, delta=0.05, seed=5)
        assert out.target == pytest.approx(1.0 / 8.0)
        assert abs(out.estimate - out.target) <= 0.1 * out.target

    def test_triangle_floor(self):
        g = gen_kpartite(1, 3)
        out = pipeline.end_to_end_normalized_betti(g, 2, r=0.1, delta=0.05, seed=2)
        eps3 = math.sqrt(0.1 / 20.0 / 3.0)
        assert out.estimate <= eps3 * eps3

    @pytest.mark.parametrize("m,k", [(2, 2), (2, 3)])
    def test_filter_degree_from_resource_params(self, m, k):
        g = gen_kpartite(m, k)
        out = pipeline.end_to_end_normalized_betti(g, k, r=0.1, delta=0.05, seed=5)
        gap = filters.dirac_gap(spectrum(g, k))
        params = ResourceParams(
            n=g.n, k=k, edge_count=len(g.edges), clique_count=m**k, betti=(m - 1) ** k,
            lambda_min=gap, r=0.1, delta=0.05,
        )
        _, _, eps3 = params.precisions()
        assert out.filter_degree == max(chebyshev_degree(eps3, gap, g.n), 2)

    def test_confidence_over_seeds(self):
        g = gen_kpartite(2, 2)
        r, delta = 0.2, 0.1
        failures = 0
        for seed in range(40):
            out = pipeline.end_to_end_normalized_betti(g, 2, r=r, delta=delta, seed=100 + seed)
            failures += abs(out.estimate - out.target) > r * out.target
        # reported confidence must be at least the product of stage confidences
        assert failures / 40 <= delta + 3.0 * math.sqrt(delta * (1 - delta) / 40)
