"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not calibrated elsewhere.  The statistical
checks compare against the exact or finite-size law that the program
promises; where the paper's headline figure is only the leading term of that
law (criterion 4's 1/(2c) failure rate, criterion 9's Kahle ratio), the line
also prints the leading-order value so its distance from the desk-scale
number stays visible.  Measured values are printed alongside the bands.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from bettiforge.graphs import (
    build_clique_complex,
    enumerate_cliques,
    gen_erdos_renyi,
    gen_kpartite,
    gen_rips_points,
    rips_graph,
)
from bettiforge import homology
from bettiforge import resources
from bettiforge.qsim import dicke, filters, kaiser, walkenc
from bettiforge.dequant import estimator as deq
from bettiforge.dequant.operators import one_sparse_decompose, penalized_operator
from bettiforge.dequant.paths import PATTERN, ExactPathSampler, PathSpace
from oracles import (
    amplitude_estimate_trials,
    asymptotic_tail_bound,
    bit_indices,
    enumerate_paths,
    exhaustive_check,
    kernel_dim_weight_k,
    projected_block,
    trotterized_matrix,
    variance_report,
)


class Outcome(list):
    """Failure messages of one criterion, plus measured values for its line."""

    def __init__(self):
        super().__init__()
        self.measured: list[str] = []


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    failures = Outcome()
    try:
        yield failures
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if not failures else "FAIL"
        print(f"[criterion {number:02d}] {status} ({elapsed:.1f}s) {label}"
              + ("" if not failures.measured else f" [{', '.join(failures.measured)}]")
              + ("" if not failures else f" :: {'; '.join(failures)}"))
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    assert not failures, f"criterion {number}: {'; '.join(failures)}"


def test_criterion_01_kpartite_propositions():
    with criterion(1, "K(m,k) Betti, gap, spectrum, clique count", 60.0) as failures:
        for m in (2, 3, 4):
            for k in (2, 3, 4):
                g = gen_kpartite(m, k)
                cl = enumerate_cliques(g, k)
                assert len(cl) <= 4096
                if len(cl) != m**k:
                    failures.append(f"clique count K({m},{k})")
                if homology.betti_exact(g, k) != (m - 1) ** k:
                    failures.append(f"betti K({m},{k})")
                summary = homology.spectrum(g, k)
                if abs(summary.gap - m) > 1e-8:
                    failures.append(f"gap K({m},{k})")
                scaled = summary.eigenvalues / m
                on_lattice = np.abs(scaled - np.round(scaled)) < 1e-8
                in_range = (np.round(scaled) >= 0) & (np.round(scaled) <= k)
                if not bool(np.all(on_lattice & in_range)):
                    failures.append(f"spectrum K({m},{k})")


def test_criterion_02_rips_construction():
    with criterion(2, "Rips complex Betti and edge pattern", 10.0) as failures:
        for m in (2, 3, 4):
            g = rips_graph(gen_rips_points(2 * m, 1), 1.0)
            if homology.betti_exact(g, 2) != m - 1:
                failures.append(f"rips betti m={m}")
            for i in range(m):
                if not g.has_edge(i, m + i):
                    failures.append(f"missing matching edge m={m} i={i}")
                for j in range(m):
                    if i != j and g.has_edge(i, m + j):
                        failures.append(f"spurious cross edge m={m} ({i},{j})")


def test_criterion_03_figure_anchors_and_sweep_slopes():
    with criterion(3, "headline Toffoli anchors and n^2 sweep slopes", 5.0) as failures:
        anchors = [((16, 16), 8e10), ((15, 12), 1e10)]
        for (m, k), target in anchors:
            params = resources.kpartite_params(m, k, r=1 / 20, delta=1 / 20)
            total = resources.total_toffoli(params, refined_kaiser=True).total_toffoli
            if not target / 5 <= total <= target * 5:
                failures.append(f"anchor K({m},{k}): {total:.3e} vs {target:.0e}")
        # slopes measured in the regime where edge growth dominates the
        # shrinking Betti-ratio factor (small clusters sit below it)
        for k, lo, hi, step in ((4, 64, 256, 8), (8, 128, 384, 16), (16, 256, 1024, 32)):
            rows = resources.sweep(k, range(lo, hi + 1, step), 1 / 20, 1 / 20)
            ns = np.log([row.n for row in rows])
            ts = np.log([row.toffoli_total for row in rows])
            slope = float(np.polyfit(ns, ts, 1)[0])
            if not 1.7 <= slope <= 2.3:
                failures.append(f"slope k={k}: {slope:.3f}")


def test_criterion_04_dicke_worked_examples():
    with criterion(4, "threshold preparation worked examples", 30.0) as failures:
        run = dicke.dicke_threshold_run([0b0110, 0b1110, 0b0111, 0b0010], 2, n_seed=4)
        if not (run.success and run.bits == (0, 1, 1, 1)):
            failures.append("success trace mismatch")
        run2 = dicke.dicke_threshold_run([0b0110, 0b1110, 0b0110, 0b0010], 2, n_seed=4)
        if run2.success:
            failures.append("duplicate case did not fail")


def test_criterion_04_dicke_failure_rate():
    """MC failure rate at (n=64, k=8, c=8) matches the exact tie law within 3 sigma.

    Here f = c*n = 512, and the tie probability expands as
    n/(2f) - n^2/(6f^2) + ... = 1/(2c) - 1/(6c^2) + ...; the exact law
    (``exact_failure_prob``) gives 0.0600123.  Two clauses:

    * the Monte-Carlo rate over 1e6 trials (seed 2026, measured 0.060007)
      lies within 3 binomial sigma of the exact value, sigma taken at the
      exact p;
    * the exact value lies in the bracket [1/(2c) - 1/(6c^2), 1/(2c)] =
      [0.059896, 0.0625], which keeps the paper's 1/(2c) rate under test at
      the accuracy its leading-order derivation actually has.
    """
    with criterion(4, "threshold preparation failure rate vs exact law and 1/(2c)", 30.0) as failures:
        n, k, c, trials = 64, 8, 8, 10**6
        assert dicke.seed_modulus(n, c) == c * n  # the bracket assumes f = c*n
        exact = dicke.exact_failure_prob(n, k, c)
        p = float(exact)
        res = dicke.dicke_success_prob(n, k, c, trials, seed=2026)
        sigma = math.sqrt(p * (1 - p) / trials)
        lo, hi = Fraction(1, 2 * c) - Fraction(1, 6 * c * c), Fraction(1, 2 * c)
        failures.measured += [
            f"rate {res.failure_rate:.6f} vs exact {p:.6f} +- {3 * sigma:.6f}",
            f"exact in [{float(lo):.6f}, {float(hi):.6f}]",
        ]
        if abs(res.failure_rate - p) > 3 * sigma:
            failures.append(f"rate {res.failure_rate:.6f} outside exact {p:.6f} +- {3 * sigma:.6f}")
        if not lo <= exact <= hi:
            failures.append(f"exact {p:.6f} outside [{float(lo):.6f}, {float(hi):.6f}]")


def test_criterion_05_qubitization():
    with criterion(5, "projected block and walk eigenphases", 60.0) as failures:
        done = 0
        seed = 0
        while done < 10:
            seed += 1
            n = 4 + seed % 3
            g = gen_erdos_renyi(n, 0.6, seed)
            if len(enumerate_cliques(g, 2)) == 0:
                continue
            k = 2
            cx = build_clique_complex(g, k)
            states = []
            for size in (k - 1, k, k + 1):
                states.extend(cx.basis(size))
            dop = homology.dirac(cx, k)
            # the matrix-free encoding's projected block, and the dense oracle's
            enc = walkenc.build_block_encoding(g, k)
            basis = enc.embed(np.eye(len(states)))
            sub = projected_block(g, k)[np.ix_(states, states)]
            for block in (basis.T @ enc.apply(basis), sub):
                if np.abs(block - dop.matrix / g.n).max() > 1e-12:
                    failures.append(f"block mismatch seed={seed}")
            spec = walkenc.walk_spectrum(g, k)
            want = np.sort(np.repeat(np.abs(spec.hamiltonian_eigs), 2))
            got = np.sort(np.abs(np.sin(spec.walk_eigenphases)) * spec.lam)
            if want.size != got.size or np.abs(want - got).max() > 1e-8:
                failures.append(f"eigenphase mismatch seed={seed}")
            # direct action of the matrix-free walk on the orthogonal partner states
            evals, evecs = np.linalg.eigh(dop.matrix.astype(np.float64))
            emb = enc.embed(evecs)
            v_emb = enc.apply(emb)
            for i, energy in enumerate(evals):
                v0k = emb[:, i]
                ratio = energy / enc.lam
                resid = v_emb[:, i] - ratio * v0k
                if np.linalg.norm(resid) < 1e-12:
                    continue
                chi = resid / (1j * math.sqrt(1.0 - ratio * ratio))
                rhs = 1j * ratio * chi + math.sqrt(1.0 - ratio * ratio) * v0k
                walk_chi = 1j * enc.reflection() * enc.apply(chi[:, None])[:, 0]
                if np.abs(walk_chi - rhs).max() > 1e-8:
                    failures.append(f"walk action seed={seed}")
                    break
            done += 1


def test_criterion_06_filtering():
    with criterion(6, "Chebyshev filtering on K(2,2)", 10.0) as failures:
        g = gen_kpartite(2, 2)
        eps = 1e-3
        summary = homology.spectrum(g, 2)
        ell = resources.chebyshev_degree(eps, filters.dirac_gap(summary), float(g.n))
        res = filters.apply_filter_to_state(summary, float(g.n), ell, eps)
        if abs(res.amplitude_sq - 0.25) > 1e-6:
            failures.append(f"amplitude_sq {res.amplitude_sq}")
        tol = 1e-8 * np.abs(res.eigenvalues).max()
        nonzero = np.abs(res.eigenvalues) > tol
        if np.abs(res.responses[nonzero]).max() > eps:
            failures.append("componentwise suppression exceeded eps")
        for e in np.logspace(-6, -0.5, 10):
            for ratio in np.linspace(0.05, 0.9, 10):
                ell_g = resources.chebyshev_degree(float(e), ratio, 1.0)
                bound = math.ceil(1.0 / ratio * math.log(2.0 / e)) + 1
                if ell_g > bound:
                    failures.append(f"degree bound at eps={e:.2e} ratio={ratio:.2f}")


def test_criterion_07_kaiser_amplitude_estimation():
    with criterion(7, "Kaiser amplitude estimation tails and failures", 120.0) as failures:
        for eps, delta in ((0.01, 0.05), (0.005, 0.01)):
            est = amplitude_estimate_trials(0.3, eps, delta, 2000, seed=13)
            fail = float(np.mean(np.abs(est - 0.3) > eps))
            band = delta + 3.0 * math.sqrt(delta * (1 - delta) / 2000)
            if fail > band:
                failures.append(f"failure rate {fail:.4f} > {band:.4f} at ({eps},{delta})")
        for alpha in (2.0, 3.0, 5.0, 8.0):
            tail = kaiser.tail_fraction(alpha)
            bound = asymptotic_tail_bound(alpha)
            if tail > 1.5 * bound:
                failures.append(f"tail at alpha={alpha}")


def test_criterion_08_dequantizer():
    with criterion(8, "path-integral estimator, unbiasedness, balance, variance", 600.0) as failures:
        # (a) sampled estimates within 3 reported stderr of the Trotterized
        # mean they are unbiased for, which lies within 1% above beta / C(n, k)
        for (m, k), target in (((2, 2), Fraction(1, 6)), ((2, 3), Fraction(1, 20))):
            g = gen_kpartite(m, k)
            cfg = deq.PIMCConfig(t=3.0, r_t=1, n_samp=20000, seed=11, chains=4)
            res = deq.estimate_normalized_betti(g, k, cfg)
            beta = homology.betti_exact(g, k)
            assert Fraction(beta, math.comb(g.n, k)) == target
            op = penalized_operator(g, k)
            idx = op.basis.weight_k_clique_indices
            trotter = trotterized_matrix(one_sparse_decompose(op.matrix), cfg.t, cfg.r_t)
            mean = float(np.trace(trotter[np.ix_(idx, idx)])) / op.d_k
            if not float(target) <= mean <= 1.01 * float(target):
                failures.append(f"K({m},{k}): Trotterized mean {mean:.6f} not in [1, 1.01] x {float(target):.6f}")
            if abs(res.estimate - mean) > 3.0 * res.stderr:
                failures.append(
                    f"K({m},{k}): {res.estimate:.5f} +- {res.stderr:.5f} vs Trotterized mean {mean:.5f}"
                )
        # (b) exhaustive unbiasedness on a toy with < 2^12 paths
        g = gen_kpartite(2, 2)
        op = penalized_operator(g, 2)
        chk = exhaustive_check(op, t=1.0, r_t=1)
        if chk["n_paths"] > 1 << 12:
            failures.append("toy too large")
        if not math.isclose(chk["trace_pathsum"], chk["trace_matrix"], rel_tol=1e-10):
            failures.append("exhaustive path sum not equal to restricted trace")
        # (c) detailed balance of the Metropolis redraw move (pattern measure)
        # on 100 random pairs
        space = PathSpace(one_sparse_decompose(op.matrix, states=op.basis.weight_k_clique_indices), 1.0, 1)
        paths = enumerate_paths(space)
        log_z = ExactPathSampler(space).log_z(PATTERN)
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = paths[rng.integers(len(paths))]
            b = paths[rng.integers(len(paths))]
            pa, pb = math.exp(-a.energy), math.exp(-b.energy)
            za = math.exp(log_z[a.anchor_state])
            zb = math.exp(log_z[b.anchor_state])
            lhs = pa * (pb / zb) * min(1.0, zb / za)
            rhs = pb * (pa / za) * min(1.0, za / zb)
            if not math.isclose(lhs, rhs, rel_tol=1e-12):
                failures.append("detailed balance")
                break
        # (d) empirical variance within the analytic worst-case bound
        cfg = deq.PIMCConfig(t=2.0, r_t=1, n_samp=4000, seed=1, chains=2)
        rep = variance_report(g, 2, cfg)
        if rep["empirical_variance_log2"] > rep["analytic_bound_log2"]:
            failures.append("variance bound violated")


def _component_count(g) -> int:
    """Connected components by bit-mask flood fill, with no rank involved."""
    unseen = (1 << g.n) - 1
    count = 0
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for v in bit_indices(frontier):
                reach |= g.adjacency[v]
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        count += 1
    return count


def test_criterion_09_erdos_renyi_kahle_regime():
    """Mean beta_1 / E[beta_1] in [0.5, 1.5] at n=60, p=n^(-2/3), over 50 seeds.

    C(n,2) p is only the leading term of E[beta_1].  With beta_2 = 0 in this
    regime, E[beta_1] = E[beta_0] - E[chi], giving the finite-size expectation
    C(n,2)p - n + 1 + n(1-p)^(n-1) - C(n,3)p^3 + C(n,4)p^6 = 48.14 against
    the leading 115.49; the remainder shrinks only like n^(-1/3).  The mean
    ratio against the finite-size expectation is 1.02 and is the asserted
    band; the leading-order ratio (0.427, Kahle's limit being 1) is printed.

    Per seed, the Euler-Poincare identity sum (-1)^i beta_i = sum (-1)^i f_i
    over every nonempty clique size is checked exactly, with beta_0 counted
    as connected components and beta_i (i >= 1) from exact integer ranks, so
    the rank computation itself is tested, not just the mean.
    """
    with criterion(9, "random-graph Betti ratio at the Kahle density", 120.0) as failures:
        n = 60
        p = n ** (-2.0 / 3.0)
        leading = math.comb(n, 2) * p
        expected = (
            leading - n + 1 + n * (1 - p) ** (n - 1)
            - math.comb(n, 3) * p**3 + math.comb(n, 4) * p**6
        )
        betti_1 = []
        for seed in range(50):
            g = gen_erdos_renyi(n, p, seed)
            faces = []
            while cl := enumerate_cliques(g, len(faces) + 1):
                faces.append(len(cl))
            betti = [_component_count(g)]
            betti += [homology.betti_exact(g, s) for s in range(2, len(faces) + 1)]
            betti_1.append(betti[1])
            chi = sum((-1) ** i * f for i, f in enumerate(faces))
            if sum((-1) ** i * b for i, b in enumerate(betti)) != chi:
                failures.append(f"Euler-Poincare seed={seed}: betti {betti}, faces {faces}")
        mean = float(np.mean(betti_1)) / expected
        failures.measured += [
            f"mean ratio {mean:.4f} in [0.5, 1.5]",
            f"leading-order ratio {float(np.mean(betti_1)) / leading:.4f}",
        ]
        if not 0.5 <= mean <= 1.5:
            failures.append(f"mean ratio {mean:.4f} outside [0.5, 1.5]")


def test_criterion_10_oracle_coherence():
    with criterion(10, "integer rank == Laplacian nullity == penalized kernel", 120.0) as failures:
        done = 0
        seed = 0
        while done < 25:
            seed += 1
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 9))
            k = int(rng.integers(1, 4))
            g = gen_erdos_renyi(n, 0.6, 1000 + seed)
            if len(enumerate_cliques(g, k)) == 0:
                continue
            beta_rank = homology.betti_exact(g, k)
            summary = homology.spectrum(g, k)
            op = penalized_operator(g, k)
            kernel = kernel_dim_weight_k(op)
            if not beta_rank == summary.nullity == kernel:
                failures.append(f"seed={seed}: {beta_rank}/{summary.nullity}/{kernel}")
            done += 1
