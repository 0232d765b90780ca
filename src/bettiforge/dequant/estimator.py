"""Sampling estimator of the normalized Betti number beta_{k-1} / C(n,k).

Implements the randomized trace estimation: draw a starting weight-k clique
by rejection from the uniform weight-k strings, draw a closed eigenvector
path from the thermal distribution by Metropolis-Hastings, and accumulate

    E_q = (1/d_k) exp(-lambda_1 t/r - sum_mid lambda_i t/(2r)) W(path) / Pr(path).

At fixed Trotterization the estimator is exactly unbiased for
(1/d_k) Tr_restricted(Trotterized exp(-H t)); increasing t then pushes the
value down onto beta_{k-1}/d_k from above at rate exp(-gamma t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..graphs import Graph
from .operators import (
    OneSparseDecomposition,
    PenalizedOperator,
    one_sparse_decompose,
    penalized_operator,
)
from .paths import ExactPathSampler, MetropolisPathSampler, PathSpace

LN2 = math.log(2.0)


@dataclass(frozen=True)
class PIMCConfig:
    """Knobs of one estimation run; seeds make runs reproducible."""

    t: float
    r_t: int
    n_samp: int
    burn_in: int = 2000
    chain_thin: int = 8
    seed: int = 0
    chains: int = 4
    sampler: str = "exact"  # "exact" (filter/forward draws) or "mh"

    def __post_init__(self):
        if not 0 <= self.t < math.inf:
            raise ValueError(f"imaginary time t must be finite and >= 0, got {self.t}")
        if self.r_t < 1 or self.n_samp < 2:
            raise ValueError("need r_t >= 1 and n_samp >= 2")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.chain_thin < 1:
            raise ValueError(f"chain_thin (--thin) must be >= 1, got {self.chain_thin}")
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.sampler not in ("exact", "mh"):
            raise ValueError("sampler must be 'exact' or 'mh'")


def trotter_slices(
    t: float,
    eps_t: float,
    term_norm_sum: float,
    commutator_bound: float | None = None,
    n_terms: int | None = None,
    gamma_max: float | None = None,
) -> int:
    """Slice count r = ceil(t * max(sqrt(4 e t alpha / eps_t), 4/ln2 sum||H||)).

    ``commutator_bound`` is alpha; when omitted it is bounded by the
    fixed-point closure of alpha <= 8 r D gamma_max^3, which resolves to
    r = 32 e t^3 D gamma_max^3 / eps_t on the dominant branch.
    """
    if eps_t <= 0:
        raise ValueError("Trotter budget must be positive")
    if t == 0:
        return 0
    if t < 0:
        raise ValueError("imaginary time must be nonnegative")
    norm_branch = t * 4.0 / LN2 * term_norm_sum
    if commutator_bound is not None:
        alpha_branch = t * math.sqrt(4.0 * math.e * t * commutator_bound / eps_t)
    else:
        if n_terms is None or gamma_max is None:
            raise ValueError("need n_terms and gamma_max to bound the commutator term")
        alpha_branch = 32.0 * math.e * t**3 * n_terms * gamma_max**3 / eps_t
    return math.ceil(max(alpha_branch, norm_branch))


def make_clique_sampler(g: Graph, k: int, basis) -> tuple:
    """Rejection sampler for uniform weight-k cliques, with try accounting.

    Draws a uniform k-subset of the vertices and retries until it is a
    clique; the acceptance frequency estimates |Cl_k| / C(n, k).
    """
    from ..graphs import is_clique

    state_index = {x: i for i, x in enumerate(basis.states)}
    counters = {"draws": 0, "accepts": 0}

    def draw(rng: np.random.Generator) -> int:
        while True:
            counters["draws"] += 1
            verts = rng.choice(g.n, size=k, replace=False)
            mask = 0
            for v in verts:
                mask |= 1 << int(v)
            if is_clique(g, mask):
                counters["accepts"] += 1
                return state_index[mask]

    return draw, counters


@dataclass(frozen=True)
class DequantResult:
    estimate: float
    stderr: float
    n_samples: int
    acceptance_rate: float  # MH move acceptance
    clique_acceptance: float  # accepted / drawn k-subsets
    autocorr_time: float
    D: int
    D_scheduled: int
    r_t: int
    t: float
    d_k: int
    log_partition: float
    diagnostics: dict = field(repr=False)


def integrated_autocorr_time(series: np.ndarray) -> float:
    """Initial-positive-sequence estimate of the integrated autocorrelation."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 8:
        return 1.0
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return 1.0
    tau = 1.0
    for lag in range(1, n // 4):
        rho = float(x[:-lag] @ x[lag:]) / ((n - lag) * var)
        if rho < 0.05:
            break
        tau += 2.0 * rho
    return tau


def _batch_stderr(samples: np.ndarray, n_batches: int = 32) -> float:
    """Batch-means standard error (robust to residual chain correlation)."""
    n = samples.size
    if n < 2 * n_batches:
        return float(samples.std(ddof=1) / math.sqrt(n))
    usable = n - n % n_batches
    means = samples[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def estimate_normalized_betti(g: Graph, k: int, cfg: PIMCConfig) -> DequantResult:
    """Run the full estimator on a graph; see the module docstring."""
    op = penalized_operator(g, k)
    decomp = one_sparse_decompose(op.matrix)
    return estimate_from_operator(g, k, op, decomp, cfg)


def estimate_from_operator(
    g: Graph,
    k: int,
    op: PenalizedOperator,
    decomp: OneSparseDecomposition,
    cfg: PIMCConfig,
) -> DequantResult:
    anchors = op.basis.weight_k_clique_indices
    if anchors.size == 0:
        raise ValueError(f"graph has no {k}-cliques")
    space = PathSpace(decomp, cfg.t, cfg.r_t, anchors)
    log_z = space.log_partition()
    if not math.isfinite(log_z):
        raise RuntimeError("no valid closed path exists (disconnected eigenstructure)")
    draw, counters = make_clique_sampler(g, k, op.basis)
    exact = ExactPathSampler(space, clique_sampler=draw)
    beta_half = cfg.t / (2.0 * cfg.r_t)

    samples = []
    acc_num = acc_den = 0
    per_chain = -(-cfg.n_samp // cfg.chains)
    for chain in range(cfg.chains):
        rng = np.random.default_rng((cfg.seed, chain))
        if cfg.sampler == "exact":
            # anchor uniform over the cliques (by rejection), remainder of the
            # loop drawn exactly from the conditional thermal law; importance
            # weight |Cl_k| Z_anchor replaces Z / Pr in closed form
            base = math.log(anchors.size) - math.log(op.d_k) - space.scalar_shift * cfg.t
            for _ in range(per_chain):
                snap, anchor = exact.draw(rng)
                log_mag = (
                    base
                    + exact.log_z_anchor(anchor)
                    + snap.w_log2 * LN2
                    + beta_half * snap.energy
                )
                samples.append(snap.w_sign * math.exp(log_mag))
            acc_num += per_chain
            acc_den += per_chain
        else:
            log_pref = log_z - math.log(op.d_k) - space.scalar_shift * cfg.t
            sampler = MetropolisPathSampler(exact, rng)
            for _ in range(cfg.burn_in):
                sampler.step()
            for _ in range(per_chain):
                for _ in range(cfg.chain_thin):
                    sampler.step()
                snap = sampler.sample()
                log_mag = log_pref + snap.w_log2 * LN2 + beta_half * snap.energy
                samples.append(snap.w_sign * math.exp(log_mag))
            acc_num += sampler.accepted
            acc_den += sampler.proposed

    arr = np.array(samples)
    estimate = float(arr.mean())
    stderr = _batch_stderr(arr)
    tau = integrated_autocorr_time(arr)
    return DequantResult(
        estimate=estimate,
        stderr=stderr,
        n_samples=arr.size,
        acceptance_rate=acc_num / max(acc_den, 1),
        clique_acceptance=counters["accepts"] / max(counters["draws"], 1),
        autocorr_time=tau,
        D=decomp.D,
        D_scheduled=len(space.schedule) // (2 * cfg.r_t),
        r_t=cfg.r_t,
        t=cfg.t,
        d_k=op.d_k,
        log_partition=log_z,
        diagnostics={
            "gamma_min": op.gamma_min,
            "gamma_pen": op.gamma_pen,
            "gamma_max": op.gamma_max,
            "scalar_shift": space.scalar_shift,
            "clique_draws": counters["draws"],
            "samples_mean_abs": float(np.abs(arr).mean()),
        },
    )


# ---------------------------------------------------------------------------
# oracles and diagnostics


def trotterized_matrix(decomp: OneSparseDecomposition, t: float, r_t: int) -> np.ndarray:
    """Dense product of the scheduled term exponentials times the scalar shift."""
    from .paths import build_schedule

    schedule, shift = build_schedule(decomp, r_t)
    dim = decomp.dim
    tau = t / (2.0 * r_t)
    cache: dict[int, np.ndarray] = {}

    def term_exp(idx: int) -> np.ndarray:
        if idx not in cache:
            term = decomp.terms[idx]
            if term.kind in ("reflection", "identity"):
                cache[idx] = np.diag(np.exp(-tau * term.lam))
            else:
                mat = np.eye(dim)
                ch, sh = math.cosh(term.coeff * tau), math.sinh(term.coeff * tau)
                seen = set()
                for e in range(term.n_eigs):
                    u, v = int(term.sup1[e]), int(term.sup2[e])
                    if v < 0 or (u, v) in seen:
                        continue
                    seen.add((u, v))
                    sgn = math.copysign(1.0, term.lam[e] * term.amp2[e])
                    mat[u, u] = mat[v, v] = ch
                    mat[u, v] = mat[v, u] = -sgn * sh
                cache[idx] = mat
        return cache[idx]

    out = np.eye(dim)
    for idx in schedule:
        out = term_exp(idx) @ out
    return math.exp(-shift * t) * out


def exhaustive_check(
    op: PenalizedOperator, decomp: OneSparseDecomposition, t: float, r_t: int, max_paths: int = 1 << 14
) -> dict:
    """Exact path-sum identities on a toy instance (exponentially many paths).

    Returns the exhaustive partition function, the path-sum estimate of the
    restricted trace, and the matrix-product value it must equal.
    """
    anchors = op.basis.weight_k_clique_indices
    space = PathSpace(decomp, t, r_t, anchors)
    paths = space.enumerate_paths(max_paths=max_paths)
    beta = t / r_t
    z = 0.0
    trace_pathsum = 0.0
    for p in paths:
        z += math.exp(-beta * p.energy)
        trace_pathsum += p.weight * math.exp(-0.5 * beta * p.energy)
    trace_pathsum *= math.exp(-space.scalar_shift * t)
    mat = trotterized_matrix(decomp, t, r_t)
    idx = anchors
    trace_matrix = float(np.trace(mat[np.ix_(idx, idx)]))
    return {
        "n_paths": len(paths),
        "log_partition_exhaustive": math.log(z) if z > 0 else -math.inf,
        "log_partition_transfer": space.log_partition(),
        "trace_pathsum": trace_pathsum,
        "trace_matrix": trace_matrix,
        "expectation_pathsum": trace_pathsum / op.d_k,
        "expectation_matrix": trace_matrix / op.d_k,
    }


def analytic_variance_log2_bound(
    decomp: OneSparseDecomposition, t: float, r_t: int, d_k: int, d_sched: int
) -> float:
    """log2 of the worst-case variance bound 2^(2rD) e^(2 D t c_max) / d_k."""
    c_max = max((term.coeff for term in decomp.terms), default=0.0)
    return 2.0 * r_t * d_sched + 2.0 * d_sched * t * c_max / LN2 - math.log2(d_k)


def variance_report(
    g: Graph, k: int, cfg: PIMCConfig, result: DequantResult | None = None
) -> dict:
    """Empirical sample variance against the analytic worst-case bound.

    The bound is astronomically loose by construction, so both sides are
    reported as log2 values; the Markov gap itself is never computed, the
    integrated autocorrelation time stands in as its reciprocal proxy.
    """
    if result is None:
        result = estimate_normalized_betti(g, k, cfg)
    emp_var = result.stderr**2 * result.n_samples
    bound_log2 = analytic_variance_log2_bound(
        one_sparse_decompose(penalized_operator(g, k).matrix),
        cfg.t,
        result.r_t,
        result.d_k,
        result.D_scheduled,
    )
    emp_log2 = math.log2(emp_var) if emp_var > 0 else -math.inf
    return {
        "empirical_variance_log2": emp_log2,
        "analytic_bound_log2": bound_log2,
        "slack_log2": bound_log2 - emp_log2,
        "autocorr_time": result.autocorr_time,
        "acceptance_rate": result.acceptance_rate,
        "estimate": result.estimate,
        "stderr": result.stderr,
    }
