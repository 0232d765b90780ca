"""Fault-tolerant Toffoli-cost model for quantum Betti number estimation.

Every cost here is a closed-form count: the module never builds graphs or
matrices, so it works far beyond desk scale (counts come in as plain
integers).  Logarithms that size registers or comparators are base-2
ceilings; logarithms in analytic error factors are natural.  Each stage count
is rounded up once (ceil at the final step only) and stage counts multiply
exactly as integers afterwards, so results are bit-identical across
platforms.

Error budget: a requested relative error r is split as
    r1 = r/20    initial amplitude estimation
    r3 = r/20    eigenvalue filtering (enters only inside a logarithm)
    r2 = 0.9 r   final overlap estimation (the 1/r2 prefactor)
and a failure budget delta as delta1 = delta/20, delta2 = rest.
``ResourceParams`` derives the split and the stage precisions; the cost model
and the simulated pipeline both read them from it.  Note the published
figure's shares (filtering r/20, overlap estimation 0.95 r) leave nothing for
the initial estimation stage, whose cost diverges as its share vanishes, so
the overlap share is trimmed to 0.9 r to fund it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .qsim import kaiser


def _ceil_log2(x: int) -> int:
    """Register width for x values: ceil(log2 x), with ceil_log2(1) = 0."""
    if x < 1:
        raise ValueError("log argument must be >= 1")
    return (x - 1).bit_length()


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _ceil_count(x: float) -> int:
    """Round a stage count up; a count past the float range is bad input, not a count."""
    if not math.isfinite(x):
        raise ValueError(
            "a stage count overflows the float range: error budget r or delta too small,"
            " or C(n, k) / |Cl_k| too large"
        )
    return math.ceil(x)


def _sqrt_exp(log_x: float) -> float:
    """sqrt(exp(log_x)), infinite rather than raising once it passes the float range."""
    try:
        return math.exp(0.5 * log_x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ResourceParams:
    """All inputs of the cost model for one problem instance.

    The budget shares, the precisions and lam = n are derived, not stored,
    so ``dataclasses.replace`` re-derives them.
    """

    n: int
    k: int
    edge_count: int
    clique_count: int
    betti: int
    lambda_min: float
    r: float
    delta: float
    c: int = 8  # seed-range constant of the threshold preparation

    def __post_init__(self):
        if self.n < 2 or not 1 <= self.k <= self.n:
            raise ValueError("need n >= 2 and 1 <= k <= n")
        if self.edge_count < 0 or self.betti < 1:
            raise ValueError("need edge count >= 0 and Betti number >= 1 (a relative target needs beta >= 1)")
        if self.edge_count > math.comb(self.n, 2):
            raise ValueError("edge count exceeds C(n, 2)")
        if self.clique_count > math.comb(self.n, self.k):
            raise ValueError("clique count exceeds C(n, k)")
        if self.betti > self.clique_count:
            raise ValueError("Betti number exceeds clique count")
        if not 0.0 < self.r < 1.0:
            raise ValueError("relative error r must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("failure probability delta must lie in (0, 1)")
        if not 0.0 < self.lambda_min < self.lam:
            raise ValueError("spectral gap lambda_min must lie in (0, n)")

    lam = property(lambda self: float(self.n))  # block-encoding normalization, as in walkenc
    r1 = property(lambda self: self.r / 20.0)
    r3 = property(lambda self: self.r / 20.0)
    r2 = property(lambda self: self.r - self.r1 - self.r3)
    delta1 = property(lambda self: self.delta / 20.0)
    delta2 = property(lambda self: self.delta - self.delta1)

    def precisions(self) -> tuple[float, float, float]:
        """(eps1, eps2, eps3): initial and final estimation phase precisions, filter suppression."""
        log_cl = math.log(self.clique_count)
        sqrt_beta_over_cl = math.exp(0.5 * (math.log(self.betti) - log_cl))
        eps1 = 2.0 * math.sqrt(self.r1) / math.pi * math.exp(0.5 * (log_cl - _log_comb(self.n, self.k)))
        eps2 = 0.5 * self.r2 * sqrt_beta_over_cl
        eps3 = math.sqrt(self.r3) * sqrt_beta_over_cl
        return eps1, eps2, eps3


def _check_kpartite_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"the k-partite family needs k >= 2, got k = {k}: K(m,1) has no edges and gap 0")


def kpartite_params(m: int, k: int, r: float, delta: float, c: int = 8) -> ResourceParams:
    """Analytic instance parameters for the complete k-partite family.

    K(m,k) has n = m*k vertices, C(k,2) m^2 edges, m^k top cliques, Betti
    number (m-1)^k one dimension down, and Laplacian gap m.  K(m,1) is
    edgeless, with gap 0, so the family starts at k = 2.
    """
    _check_kpartite_k(k)
    if m < 2:
        raise ValueError("need cluster size m >= 2 (Betti number vanishes otherwise)")
    return ResourceParams(
        n=m * k,
        k=k,
        edge_count=math.comb(k, 2) * m * m,
        clique_count=m**k,
        betti=(m - 1) ** k,
        lambda_min=float(m),
        r=r,
        delta=delta,
        c=c,
    )


@dataclass(frozen=True)
class ResourceEstimate:
    """Per-stage Toffoli counts and their composition."""

    dicke_toffoli: int
    clique_reflect_toffoli: int
    block_encode_toffoli: int
    chebyshev_degree: int
    amp_est_steps: int
    amp_amp_steps: int
    total_toffoli: int
    breakdown: dict = field(repr=False)


# ---------------------------------------------------------------------------
# stage costs


def dicke_prep_cost(n: int, c: int = 8) -> int:
    """Toffolis to prepare the fixed-weight state by threshold testing.

    (n_seed + 1) [ (n/2)(n_seed + 2) + ceil(log2 n) ] with
    n_seed = ceil(log2 f(n)) and f(n) the smallest power of two >= c n.
    """
    if n < 2 or c < 1:
        raise ValueError("need n >= 2 and c >= 1")
    n_seed = _ceil_log2(c * n)
    return math.ceil((n_seed + 1) * (n / 2.0 * (n_seed + 2) + _ceil_log2(n)))


def clique_detect_cost(edge_count: int, k: int, reflect: bool = False) -> int:
    """3|E| + 2 ceil(log2 k) Toffolis; reflection doubles only the edge part."""
    if edge_count < 0 or k < 1:
        raise ValueError("need |E| >= 0 and k >= 1")
    base = 2 * _ceil_log2(max(k, 1))
    return (6 if reflect else 3) * edge_count + base


def block_encoding_cost(n: int, edge_count: int, k: int) -> int:
    """6|E| + 5n + 11 ceil(log2 n) + 2 ceil(log2 k) Toffolis per walk step.

    The additive order-one constant of the cost model is set to zero.
    """
    if n < 2 or edge_count < 0 or k < 1:
        raise ValueError("need n >= 2, |E| >= 0, k >= 1")
    return 6 * edge_count + 5 * n + 11 * _ceil_log2(n) + 2 * _ceil_log2(max(k, 1))


def chebyshev_degree(epsilon: float, lambda_min: float, lam: float) -> int:
    """Filter degree acosh(1/eps) / acosh(1/sqrt(1-(lambda_min/lam)^2)).

    Rounded up and then to the next even integer, so the filter is a
    polynomial in the squared walk step.  Satisfies the bound
    (lam/lambda_min) ln(2/eps) + 1 after rounding.
    """
    if not 0 < lambda_min < lam:
        raise ValueError("need 0 < lambda_min < lambda (strict spectral gap)")
    if not epsilon > 0:
        raise ValueError("suppression factor epsilon must be positive")
    if epsilon >= 1.0:
        return 0
    ratio = lambda_min / lam
    width = math.acosh(1.0 / math.sqrt(1.0 - ratio * ratio))
    if width == 0.0:
        raise ValueError(f"gap ratio lambda_min/lambda = {ratio} is below float resolution")
    raw = math.acosh(1.0 / epsilon) / width
    ell = math.ceil(raw)
    return ell + (ell & 1)


def amp_amplification_steps(params: ResourceParams) -> int:
    """(pi/4) sqrt(C(n,k)/|Cl_k|) rounds of amplitude amplification."""
    log_ratio = _log_comb(params.n, params.k) - math.log(params.clique_count)
    return _ceil_count(math.pi / 4.0 * _sqrt_exp(log_ratio))


def amp_estimation_cost(params: ResourceParams) -> int:
    """Grover iterations of the initial overlap estimation.

    ceil( ln(1/delta1)/sqrt(r1) * (pi/4) sqrt(C(n,k)/|Cl_k|) ); each
    iteration costs two fixed-weight preparations plus one clique reflection.
    """
    log_ratio = _log_comb(params.n, params.k) - math.log(params.clique_count)
    real = (
        math.log(1.0 / params.delta1)
        / math.sqrt(params.r1)
        * (math.pi / 4.0)
        * _sqrt_exp(log_ratio)
    )
    return _ceil_count(real)


# ---------------------------------------------------------------------------
# totals


def leading_order_toffoli(params: ResourceParams) -> float:
    """Closed-form leading-order total (no additive preparation terms).

    6|E| (ln(1/delta)/r) sqrt(|Cl|/beta) [ (pi/2) sqrt(C(n,k)/|Cl|)
      + (n/lambda_min) ln(4|Cl|/(r3 beta)) ]
    with the filter share r3 inside the logarithm.
    """
    p = params
    log_cl = math.log(p.clique_count)
    sqrt_cl_over_beta = math.exp(0.5 * (log_cl - math.log(p.betti)))
    sqrt_choose_over_cl = math.exp(0.5 * (_log_comb(p.n, p.k) - log_cl))
    log_term = math.log(4.0 * p.clique_count / (p.r3 * p.betti))
    bracket = math.pi / 2.0 * sqrt_choose_over_cl + p.n / p.lambda_min * log_term
    return 6.0 * p.edge_count * math.log(1.0 / p.delta) / p.r * sqrt_cl_over_beta * bracket


def total_toffoli(params: ResourceParams, refined_kaiser: bool = False) -> ResourceEstimate:
    """Stage-composed total Toffoli count.

    total = N2 * (N_AA * C_prep + ell * C_BE) + N1 * C_prep, where

      C_prep  one amplification round: two fixed-weight preparations plus a
              clique reflection,
      C_BE    one walk step (block encoding),
      N_AA    amplification rounds per preparation,
      ell     Chebyshev filter degree for suppression sqrt(r3 beta / |Cl|),
      N2      repetitions of the outer overlap estimation (both directions),
      N1      iterations of the initial overlap estimation.

    The default mode sizes N1/N2 from the asymptotic window-cost expressions;
    ``refined_kaiser`` sizes them from the numerically integrated window tail
    (this is the mode that reproduces the headline figure anchors).
    """
    p = params
    c_dicke = dicke_prep_cost(p.n, p.c)
    c_reflect = clique_detect_cost(p.edge_count, p.k, reflect=True)
    c_prep = 2 * c_dicke + c_reflect
    c_be = block_encoding_cost(p.n, p.edge_count, p.k)

    n_aa = amp_amplification_steps(p)

    eps1, eps2, eps3 = p.precisions()
    ell = chebyshev_degree(eps3, p.lambda_min, p.lam)
    if refined_kaiser:
        alpha2, n_window = kaiser.window_size(eps2, p.delta2, refined=True)
        n2 = 2 * n_window
        alpha1, n1 = kaiser.window_size(eps1, p.delta1, refined=True)
    else:
        alpha2 = kaiser.solve_alpha_asymptotic(p.delta2)
        n2 = _ceil_count(math.log(1.0 / p.delta2) / eps2)
        alpha1 = kaiser.solve_alpha_asymptotic(p.delta1)
        n1 = amp_estimation_cost(p)

    state_prep = n2 * n_aa * c_prep
    filtering = n2 * ell * c_be
    initial = n1 * c_prep
    total = state_prep + filtering + initial

    breakdown = {
        "mode": "refined-kaiser" if refined_kaiser else "asymptotic",
        "prep_round_toffoli": c_prep,
        "final_estimation_reps": n2,
        "state_prep_toffoli": state_prep,
        "filter_toffoli": filtering,
        "initial_estimation_toffoli": initial,
        "kaiser_alpha_final": alpha2,
        "kaiser_alpha_initial": alpha1,
        "eps2": eps2,
        "eps3": eps3,
        "leading_order_closed_form": leading_order_toffoli(p),
    }
    return ResourceEstimate(
        dicke_toffoli=c_dicke,
        clique_reflect_toffoli=c_reflect,
        block_encode_toffoli=c_be,
        chebyshev_degree=ell,
        amp_est_steps=n1,
        amp_amp_steps=n_aa,
        total_toffoli=total,
        breakdown=breakdown,
    )


# ---------------------------------------------------------------------------
# family sweep


@dataclass(frozen=True)
class SweepRow:
    n: int
    k: int
    m: int
    toffoli_total: int
    toffoli_prep: int
    toffoli_filter: int
    binom: int
    cliques: int


def sweep(
    k: int,
    n_list,
    r: float,
    delta: float,
    refined_kaiser: bool = False,
    warn=None,
) -> list[SweepRow]:
    """Quantum/classical cost table over the k-partite family at fixed k.

    Entries with k not dividing n, or with a single vertex per cluster (Betti
    number zero), are skipped with a warning callback.
    """
    _check_kpartite_k(k)
    rows = []
    for n in n_list:
        if n % k != 0:
            if warn:
                warn(f"skipping n={n}: not divisible by k={k}")
            continue
        m = n // k
        if m < 2:
            if warn:
                warn(f"skipping n={n}: cluster size {m} < 2 gives Betti number 0")
            continue
        params = kpartite_params(m, k, r, delta)
        est = total_toffoli(params, refined_kaiser=refined_kaiser)
        rows.append(
            SweepRow(
                n=n,
                k=k,
                m=m,
                toffoli_total=est.total_toffoli,
                toffoli_prep=est.breakdown["state_prep_toffoli"]
                + est.breakdown["initial_estimation_toffoli"],
                toffoli_filter=est.breakdown["filter_toffoli"],
                binom=math.comb(n, k),
                cliques=m**k,
            )
        )
    return rows


SWEEP_COLUMNS = ("n", "k", "m", "toffoli_total", "toffoli_prep", "toffoli_filter", "binom", "cliques")


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """RFC-4180 CSV, LF endings, '.' decimal separator, 17 significant digits."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(getattr(row, col)) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean columns in sweep output")
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")
