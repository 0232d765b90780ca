"""End-to-end simulation of the normalized Betti number estimator.

Composes the simulated stages in algorithm order: estimate the clique
amplitude, amplify onto the clique subspace with the ideal rotation count,
filter the nonzero modes, and measure the surviving amplitude with a
Kaiser-window estimation.  Over- or under-rotation from the first (noisy)
amplitude estimate propagates exactly through the two-dimensional rotation
algebra.

The error budget, stage precisions and walk normalization come from one
``resources.ResourceParams``, as in the cost model.  The true Betti number
(floored at 1) and the Dirac gap only size the budgets; the reported estimate
comes from the simulated measurements alone.  The graph's one clique
complex serves the Laplacian spectrum and the exact Betti number, and that
one spectrum gives the Dirac gap and the filtered amplitude.  No stage holds
a 2^n object, so the spectrum's dense cap is the pipeline's only size limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..graphs import Graph, build_clique_complex
from ..homology import betti_exact, check_weight, spectrum
from ..resources import ResourceParams, chebyshev_degree
from .filters import apply_filter_to_state, dirac_gap
from .kaiser import amplitude_estimate_sim


@dataclass(frozen=True)
class PipelineResult:
    estimate: float  # estimated beta_{k-1} / |Cl_k|
    target: float  # oracle value beta / |Cl_k| used to set budgets
    relative_error_budget: float
    confidence_budget: float
    amp_estimate_initial: float
    amplification_rounds: int
    filter_degree: int
    filtered_amplitude_sq: float
    measured_amplitude: float
    seed: int


def end_to_end_normalized_betti(
    g: Graph, k: int, r: float, delta: float, seed: int
) -> PipelineResult:
    """Simulate the full pipeline and return the normalized Betti estimate."""
    check_weight(k)
    cl_count = build_clique_complex(g, k).count(k)
    if not cl_count:
        raise ValueError(f"graph has no {k}-cliques")
    d_k = math.comb(g.n, k)
    # the spectrum comes first: a complex past its dense cap stops before the rank
    summary = spectrum(g, k)
    beta = betti_exact(g, k)
    # a vanishing Betti number cannot set a relative scale
    params = ResourceParams(
        n=g.n, k=k, edge_count=len(g.edges), clique_count=cl_count, betti=max(beta, 1),
        lambda_min=dirac_gap(summary), r=r, delta=delta,
    )
    eps1, eps2, eps3 = params.precisions()

    # stage 1: estimate the clique amplitude a0 = sqrt(|Cl_k| / C(n,k))
    a0 = math.sqrt(cl_count / d_k)
    if cl_count == d_k:
        # every weight-k subset is a clique: nothing to estimate or amplify
        a0_hat = 1.0
        rounds = 0
        amp_true = amp_assumed = 1.0
    else:
        a0_hat = amplitude_estimate_sim(a0, eps1, params.delta1, seed)
        a0_hat = min(max(a0_hat, 1e-12), 1.0 - 1e-12)
        # stage 2: amplification with the ideal rotation count from a0_hat
        theta_hat = math.asin(a0_hat)
        rounds = max(0, math.floor(math.pi / 4.0 / theta_hat - 0.5))
        amp_true = math.sin((2 * rounds + 1) * math.asin(a0))
        amp_assumed = math.sin((2 * rounds + 1) * theta_hat)

    # stage 3: Chebyshev filtering sized from the true spectral data
    ell = max(chebyshev_degree(eps3, params.lambda_min, params.lam), 2)
    filt = apply_filter_to_state(summary, params.lam, ell, eps3)

    # stage 4: Kaiser-window estimation of the surviving amplitude
    a_total = abs(amp_true) * math.sqrt(filt.amplitude_sq)
    a_total_hat = amplitude_estimate_sim(min(max(a_total, 1e-12), 1 - 1e-12), eps2, params.delta2, seed + 1)

    estimate = (a_total_hat / amp_assumed) ** 2
    return PipelineResult(
        estimate=estimate,
        target=beta / cl_count,
        relative_error_budget=r,
        confidence_budget=delta,
        amp_estimate_initial=a0_hat,
        amplification_rounds=rounds,
        filter_degree=ell,
        filtered_amplitude_sq=filt.amplitude_sq,
        measured_amplitude=a_total_hat,
        seed=seed,
    )
