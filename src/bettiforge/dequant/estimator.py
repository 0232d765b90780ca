"""Sampling estimator of the normalized Betti number beta_{k-1} / C(n,k).

Implements the randomized trace estimation: draw a starting weight-k clique
by rejection from the uniform weight-k strings, draw a closed eigenvector
path, and average its value (see ``paths`` for the two path measures).
Cliques are drawn in blocks, by one batched rejection sampler.  Paths run on
the decomposition built on the weight-k sector, where each clique's sector
position is its anchor; both samplers share that one path space.

  * ``sampler="exact"`` draws each chain's anchors in blocks from the
    chain's generator, then every chain's paths exactly from the magnitude
    measure in one batched draw, each chain's uniforms from its own
    generator.  A sample's value is sign(W) |Cl_k| Z^abs_a exp(-shift t) / d_k.
  * ``sampler="mh"`` runs Metropolis-Hastings chains on the pattern measure,
    whose redraw and anchor proposals come from the same batched draws, and
    records E_q = (Z / d_k) W exp(beta E / 2) exp(-shift t).  Z is read off
    the per-anchor pattern partition functions that the redraws already use.

At fixed Trotterization both estimators are exactly unbiased for
(1/d_k) Tr_restricted(Trotterized exp(-H t)), which one signed transfer pass
computes exactly (``exact_trotter_mean`` in the diagnostics of exact runs);
increasing t then pushes the value down onto beta_{k-1}/d_k from above at
rate exp(-gamma t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DeskScaleError
from ..graphs import Graph
from .operators import OneSparseDecomposition, PenalizedOperator, one_sparse_decompose, penalized_operator
from .paths import MAGNITUDE, PATTERN, ExactPathSampler, MetropolisPathSampler, PathSpace, log_sum_exp

LN2 = math.log(2.0)
NO_CLOSED_PATH = "no valid closed path exists (disconnected eigenstructure)"
PATH_OVERFLOW = "the path values overflow the float range (the sign problem); use fewer --slices or a smaller --t"
DRAW_BUDGET = 1 << 30  # bytes of one run's per-sample draw buffers
DRAW_BYTES = 128  # per drawn path: anchors, candidate weights and cdf, uniforms, picks and values


@dataclass(frozen=True)
class PIMCConfig:
    """Knobs of one estimation run; seeds make runs reproducible.

    Sample paths whose draw buffers would pass ``DRAW_BUDGET`` raise
    ``DeskScaleError`` here, before anything is built.
    """

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
        paths = -(-self.n_samp // self.chains) * self.chains
        if paths * DRAW_BYTES > DRAW_BUDGET:
            raise DeskScaleError(f"{paths} sample paths need {paths * DRAW_BYTES} bytes of draw buffers;"
                                 f" the budget is {DRAW_BUDGET} bytes")


CLIQUE_CHUNK = 1 << 16  # uniforms drawn and sorted at a time by the clique sampler


def make_clique_sampler(g: Graph, k: int, basis) -> tuple:
    """Batched rejection sampler for uniform weight-k cliques, with try accounting.

    ``draw(rng, count)`` returns the positions of ``count`` uniform cliques
    among the ascending weight-k clique masks, which are the sector's basis
    states and so its anchors.  It draws uniform k-subsets of the vertices
    in blocks sized from the acceptance rate (a row of uniforms per subset,
    its k smallest entries name the vertices) and keeps those that are
    cliques, looked up among the masks, until it has ``count``.  A block
    is drawn and sorted in chunks of about ``CLIQUE_CHUNK`` uniforms, and
    every chunk of it is drawn, so the stream and the counts do not depend
    on the chunk size.  Every drawn subset is counted, so the acceptance
    frequency estimates |Cl_k| / C(n, k).
    """
    masks = basis.states[basis.weight_k_clique_indices]
    accept_rate = masks.size / math.comb(g.n, k)
    chunk_rows = max(1, CLIQUE_CHUNK // g.n)
    counters = {"draws": 0, "accepts": 0}

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            block = math.ceil(1.25 * (count - filled) / accept_rate) + 16
            counters["draws"] += block
            for rows in range(block, 0, -chunk_rows):
                verts = np.argsort(rng.random((min(rows, chunk_rows), g.n)), axis=1)[:, :k]
                drawn = np.left_shift(np.uint64(1), verts.astype(np.uint64)).sum(axis=1, dtype=np.uint64)
                at = np.searchsorted(masks, drawn)
                found = at[masks.take(at, mode="clip") == drawn]
                counters["accepts"] += found.size
                take = min(found.size, count - filled)
                out[filled : filled + take] = found[:take]
                filled += take
        return out

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
    """Run the full estimator on a graph; see the module docstring.

    A path value or a statistic past the float range raises ``ValueError``:
    each slice adds basis resolutions between terms that do not commute, so
    the magnitudes grow with the slice count while the sign averages out.
    """
    op = penalized_operator(g, k)
    decomp = one_sparse_decompose(op.matrix, op.ghost, op.basis.weight_k_clique_indices)
    try:
        with np.errstate(over="raise"):
            return estimate_from_operator(g, k, op, decomp, cfg)
    except (FloatingPointError, OverflowError):
        raise ValueError(PATH_OVERFLOW) from None


def estimate_from_operator(
    g: Graph,
    k: int,
    op: PenalizedOperator,
    decomp: OneSparseDecomposition,
    cfg: PIMCConfig,
) -> DequantResult:
    """The estimator on ``decomp``, the decomposition of ``op`` on its weight-k sector."""
    anchors = op.basis.weight_k_clique_indices
    if decomp.dim != anchors.size:
        raise ValueError(f"the decomposition has dimension {decomp.dim}, not the {anchors.size} weight-k cliques")
    space = PathSpace(decomp, cfg.t, cfg.r_t)
    draw, counters = make_clique_sampler(g, k, op.basis)
    exact = ExactPathSampler(space, clique_sampler=draw)

    per_chain = -(-cfg.n_samp // cfg.chains)
    rngs = [np.random.default_rng((cfg.seed, chain)) for chain in range(cfg.chains)]
    diagnostics = {}
    if cfg.sampler == "exact":
        # anchor uniform over the cliques (by rejection), remainder of the
        # loop drawn exactly from the magnitude measure; the importance
        # weight depends only on the anchor and the path's sign
        log_z = exact.log_z(MAGNITUDE)
        if not np.isfinite(log_z).any():
            raise RuntimeError(NO_CLOSED_PATH)
        log_values = math.log(anchors.size) - math.log(op.d_k) - space.scalar_shift * cfg.t
        anchor_values = np.exp(log_values + log_z)
        exact_mean = space.restricted_trace() / op.d_k
        # Z_signed / Z^abs: the mean anchor value is Z^abs exp(-shift t) / d_k.
        # Both are rounded sums of the same terms, so the ratio can land just
        # past |1|, which it cannot reach in exact arithmetic
        sign = exact_mean / float(anchor_values.mean())
        diagnostics = {
            "exact_trotter_mean": exact_mean,
            "average_sign": min(1.0, max(-1.0, sign)),
        }
        # each chain's anchors from its own generator, then every chain's
        # paths in one draw, each chain's uniforms from its generator
        cols = np.concatenate([exact.draw_anchor_columns(rng, per_chain) for rng in rngs])
        arr = exact.draw(rngs, cols, MAGNITUDE, signed=True) * anchor_values[cols]
        acc_num = acc_den = arr.size
    else:
        log_z = log_sum_exp(exact.log_z(PATTERN))
        if not math.isfinite(log_z):
            raise RuntimeError(NO_CLOSED_PATH)
        log_pref = log_z - math.log(op.d_k) - space.scalar_shift * cfg.t
        beta_half = cfg.t / (2.0 * cfg.r_t)
        chunks = []
        acc_num = acc_den = 0
        for rng in rngs:
            sampler = MetropolisPathSampler(exact, rng)
            for _ in range(cfg.burn_in):
                sampler.step()
            samples = []
            for _ in range(per_chain):
                for _ in range(cfg.chain_thin):
                    sampler.step()
                snap = sampler.sample()
                log_mag = log_pref + snap.w_log2 * LN2 + beta_half * snap.energy
                samples.append(snap.w_sign * math.exp(log_mag))
            chunks.append(np.array(samples))
            acc_num += sampler.accepted
            acc_den += sampler.proposed
        arr = np.concatenate(chunks)

    estimate = float(arr.mean())
    stderr = _batch_stderr(arr)
    tau = integrated_autocorr_time(arr)
    if "exact_trotter_mean" in diagnostics:
        dev = estimate - diagnostics["exact_trotter_mean"]
        diagnostics["z_score"] = dev / stderr if stderr > 0 else None
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
        diagnostics={
            "gamma_min": op.gamma_min,
            "gamma_pen": op.gamma_pen,
            "gamma_max": op.gamma_max,
            "scalar_shift": space.scalar_shift,
            "clique_draws": counters["draws"],
            "samples_mean_abs": float(np.abs(arr).mean()),
            "samples_max_abs": float(np.abs(arr).max()),
            **diagnostics,
        },
    )
