"""Chebyshev eigenvalue filter and its spectral application.

The filter acting on a walk eigenphase phi is

    w(phi) = eps * T_ell(beta cos phi),   beta = cosh(acosh(1/eps)/ell),

peaked at phi = 0 and pi (where the zero Hamiltonian eigenvalue lands) with
value exactly 1, and bounded by eps once |beta cos phi| <= 1.  Applying it to
the uniform mixture over the weight-k cliques and measuring the squared
amplitude yields beta_{k-1}/|Cl_k| up to an additive error of at most eps^2.

Filtering is applied spectrally, from the Laplacian spectrum that
``homology.spectrum`` returns.  The square of the restricted Dirac operator
is blockdiag(d_{k-1} d_{k-1}^T, L_k, d_k^T d_k), and the nonzero spectra of
the outer blocks lie inside that of L_k.  So the Dirac gap is the square
root of the Laplacian gap, and the Dirac eigenvectors that overlap the
clique states come in pairs +-sqrt(lambda) carrying the weight of one L_k
eigenvector.  w is even in phi, so each L_k eigenvalue lambda contributes
w(arcsin(sqrt(lambda)/n))^2 and no eigenvector is needed.  The walk
operator itself is validated separately in walkenc; this module checks the
filter math, not gate-level ancilla bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..homology import SpectralSummary


def chebyshev_t(ell: int, x) -> np.ndarray:
    """T_ell(x) for any real x, stable outside [-1, 1] via the cosh form."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inside = np.abs(x) <= 1.0
    out[inside] = np.cos(ell * np.arccos(x[inside]))
    hi = x > 1.0
    out[hi] = np.cosh(ell * np.arccosh(x[hi]))
    lo = x < -1.0
    out[lo] = (-1.0) ** ell * np.cosh(ell * np.arccosh(-x[lo]))
    return out


def chebyshev_filter_response(ell: int, epsilon: float, phi) -> np.ndarray:
    """w(phi) = eps T_ell(beta cos phi); w(0) = 1 and |w| <= eps past the gap."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("suppression factor must lie in (0, 1)")
    if ell <= 0:
        raise ValueError("filter degree must be positive")
    beta = math.cosh(math.acosh(1.0 / epsilon) / ell)
    return epsilon * chebyshev_t(ell, beta * np.cos(np.asarray(phi, dtype=float)))


@dataclass(frozen=True)
class FilterApplication:
    ell: int
    epsilon: float
    lam: float
    eigenvalues: np.ndarray  # L_k spectrum: the squared restricted Dirac eigenvalues
    responses: np.ndarray  # w(arcsin(sqrt(eigenvalue)/lambda)) per eigenvalue
    amplitude_sq: float


def apply_filter_to_state(summary: SpectralSummary, lam: float, ell: int, epsilon: float) -> FilterApplication:
    """Squared amplitude after filtering the uniform clique mixture.

    Returns sum_lambda w(arcsin(sqrt(lambda) / lam))^2 / |Cl_k| over the
    L_k spectrum of ``summary``, with ``lam`` the walk normalization n.  The
    zero modes pass with response exactly 1; everything past the gap is
    suppressed to eps, so the result is beta/|Cl_k| within eps^2.
    """
    evals = summary.eigenvalues
    # eigvalsh may return a zero mode as a tiny negative number
    phi = np.arcsin(np.minimum(np.sqrt(np.maximum(evals, 0.0)) / lam, 1.0))
    responses = chebyshev_filter_response(ell, epsilon, phi)
    amplitude_sq = float((responses**2).sum() / evals.size)
    return FilterApplication(ell, epsilon, lam, evals, responses, amplitude_sq)


def dirac_gap(summary: SpectralSummary) -> float:
    """Smallest nonzero |eigenvalue| of the restricted Dirac operator.

    This is the square root of the Laplacian gap and is the quantity the
    filter width must actually resolve on the walk phases.
    """
    if summary.gap == 0.0:
        raise ValueError("operator has no nonzero modes")
    return math.sqrt(summary.gap)
