"""Kaiser-window phase estimation: kernel, error tails, and sampling.

The control register is prepared with weights proportional to
I0(pi*alpha*sqrt(1-(m/N)^2)) / I0(pi*alpha) for m = -N..N.  After the
controlled walk and inverse Fourier transform, the phase-error density is the
squared Fourier kernel

    q(dt) = [ sin(sqrt(N^2 dt^2 - (pi a)^2)) / (I0(pi a) sqrt(N^2 dt^2 - (pi a)^2)) ]^2

(with sin -> sinh below the turning point), normalized numerically; the first
zero sits at dt = (pi/N) sqrt(1 + a^2).  The asymptotic tail mass beyond that
point is 8 ln(2a) sqrt(a) exp(-2 pi a), which pins alpha for a requested
confidence delta; a quadrature mode solves for alpha against the numerically
integrated tail instead.

Closed-form sizing (``window_size``, ``solve_alpha_asymptotic``) needs no
scipy, so this module imports it only inside ``tail_fraction``,
``kaiser_kernel``, ``kaiser_phase_distribution`` and ``PhaseErrorDistribution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import DeskScaleError

ALPHA_LO = 0.5
ALPHA_HI = 25.0
MAX_QAE_WINDOW = 1 << 20  # simulated outcome grids hold 2N+1 points


def _kernel_sq(u: np.ndarray, alpha: float) -> np.ndarray:
    """Squared unnormalized kernel in the scaled coordinate u = N*dt (no I0)."""
    u = np.asarray(u, dtype=float)
    c2 = (math.pi * alpha) ** 2
    x = u * u - c2
    out = np.empty_like(x)
    pos = x > 1e-12
    neg = x < -1e-12
    mid = ~(pos | neg)
    sp = np.sqrt(x[pos])
    out[pos] = np.sin(sp) / sp
    sn = np.sqrt(-x[neg])
    out[neg] = np.sinh(sn) / sn
    out[mid] = 1.0 + x[mid] / 6.0
    return out * out


def first_zero_scaled(alpha: float) -> float:
    """First kernel zero in the u coordinate: pi*sqrt(1+alpha^2)."""
    return math.pi * math.sqrt(1.0 + alpha * alpha)


@lru_cache(maxsize=1024)
def _tail_fraction_scaled(alpha: float) -> float:
    """Mass fraction of the squared kernel beyond its first zero (u-integral).

    Both integrals are over u in [0, inf); the far tail past the dense grid
    is closed with the analytic mean-value remainder of sin^2/(u^2-c^2).
    """
    from scipy.integrate import simpson

    c = math.pi * alpha
    z1 = first_zero_scaled(alpha)
    grid_head = np.linspace(0.0, z1, 4001)
    head = simpson(_kernel_sq(grid_head, alpha), x=grid_head)
    cutoff = z1 + 300.0 * math.pi
    grid_tail = np.linspace(z1, cutoff, 60001)
    tail = simpson(_kernel_sq(grid_tail, alpha), x=grid_tail)
    # remainder: mean sin^2 = 1/2 against 1/(u^2 - c^2)
    tail += 0.25 / c * math.log((cutoff + c) / (cutoff - c)) if c > 0 else 0.5 / cutoff
    return tail / (head + tail)


def tail_fraction(alpha: float) -> float:
    """Probability of a phase error beyond the first kernel zero."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _tail_fraction_scaled(round(float(alpha), 12))


def asymptotic_tail_bound(alpha: float) -> float:
    """Analytic large-alpha tail estimate 8 ln(2a) sqrt(a) exp(-2 pi a)."""
    return 8.0 * math.log(2.0 * alpha) * math.sqrt(alpha) * math.exp(-2.0 * math.pi * alpha)


def solve_alpha_asymptotic(delta: float) -> float:
    """Solve ln(1/delta) = 2 pi a - ln(8 ln(2a) sqrt(a)) on the rising branch.

    The right-hand side diverges at both ends of [0.5, 25] and has a single
    minimum near a ~ 0.64; for delta too large to intersect the rising branch
    the minimizer itself is returned (the window cannot do better under this
    asymptotic model).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    target = math.log(1.0 / delta)

    def g(a):
        return 2.0 * math.pi * a - math.log(8.0 * math.log(2.0 * a) * math.sqrt(a))

    # locate the minimum of g by coarse scan + golden refinement
    grid = np.linspace(ALPHA_LO + 1e-6, 2.0, 400)
    vals = [g(a) for a in grid]
    i = int(np.argmin(vals))
    a_min, g_min = float(grid[i]), vals[i]
    if target <= g_min:
        return a_min
    lo, hi = a_min, ALPHA_HI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_alpha_quadrature(delta: float) -> float:
    """Smallest alpha whose numerically integrated tail mass is <= delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    lo, hi = 0.05, ALPHA_HI
    if tail_fraction(lo) <= delta:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail_fraction(mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class KaiserKernel:
    """Control-state weights w_m for m = -N..N (unit Euclidean norm)."""

    N: int
    alpha: float
    coefficients: np.ndarray

    def offsets(self) -> np.ndarray:
        return np.arange(-self.N, self.N + 1)


def kaiser_kernel(N: int, alpha: float) -> KaiserKernel:
    from scipy.special import i0e

    if N < 1:
        raise ValueError("window half-width N must be >= 1")
    m = np.arange(-N, N + 1)
    # I0(pi a sqrt(1-(m/N)^2))/I0(pi a), computed stably via i0e ratios
    arg = math.pi * alpha * np.sqrt(np.clip(1.0 - (m / N) ** 2, 0.0, None))
    top = math.pi * alpha
    w = i0e(arg) * np.exp(arg - top) / i0e(top)
    w = w / np.linalg.norm(w)
    return KaiserKernel(N, alpha, w)


@dataclass(frozen=True)
class PhaseErrorDistribution:
    """Continuum phase-error density on [-pi, pi] with numeric normalization."""

    N: int
    alpha: float
    normalization: float  # integral of the unnormalized (I0-scaled) kernel
    first_zero: float

    def density(self, dtheta) -> np.ndarray:
        from scipy.special import i0e

        u = np.asarray(dtheta, dtype=float) * self.N
        scale = i0e(math.pi * self.alpha) * math.exp(math.pi * self.alpha)
        return _kernel_sq(u, self.alpha) / (scale * scale) / self.normalization

    def tail_mass(self, width: float) -> float:
        if width < 0:
            raise ValueError("width must be nonnegative")
        if width >= math.pi:
            return 0.0
        from scipy.integrate import simpson

        # ~40 nodes per kernel oscillation keep Simpson exact to ~1e-9
        nodes = max(2001, 40 * self.N) | 1
        grid = np.linspace(width, math.pi, nodes)
        return 2.0 * float(simpson(self.density(grid), x=grid))


def kaiser_phase_distribution(N: int, alpha: float) -> PhaseErrorDistribution:
    """Numerically normalized phase-error distribution for given N, alpha."""
    from scipy.integrate import quad
    from scipy.special import i0e

    if N < 1 or alpha <= 0:
        raise ValueError("need N >= 1 and alpha > 0")
    scale = i0e(math.pi * alpha) * math.exp(math.pi * alpha)

    def q(x):
        return _kernel_sq(np.array([x * N]), alpha)[0] / (scale * scale)

    c_over_n = math.pi * alpha / N
    pts = [p for p in (c_over_n, first_zero_scaled(alpha) / N) if p < math.pi]
    z = 2.0 * quad(q, 0.0, math.pi, points=pts, limit=400)[0]
    return PhaseErrorDistribution(N, alpha, z, first_zero_scaled(alpha) / N)


# ---------------------------------------------------------------------------
# amplitude estimation on the two-dimensional rotation


def window_size(epsilon: float, delta: float, refined: bool = False) -> tuple[float, int]:
    """(alpha, N) meeting precision epsilon and confidence delta.

    N = ceil((pi/epsilon) sqrt(1+alpha^2)); alpha comes from the asymptotic
    equation, or from the integrated tail when ``refined``.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    alpha = solve_alpha_quadrature(delta) if refined else solve_alpha_asymptotic(delta)
    n = math.pi / epsilon * math.sqrt(1.0 + alpha * alpha)
    if not math.isfinite(n):
        raise ValueError(f"epsilon {epsilon} too small: the window size overflows the float range")
    return alpha, math.ceil(n)


@dataclass(frozen=True)
class QaeOutcomeDistribution:
    """Exact outcome distribution of Kaiser-window amplitude estimation.

    Measurement outcomes live on the 2N+1 point Fourier grid; estimates are
    a_hat = |sin(theta_hat/2)| for grid phase theta_hat.
    """

    a: float
    epsilon: float
    delta: float
    alpha: float
    N: int
    estimates: np.ndarray
    probabilities: np.ndarray


def qae_outcome_distribution(a: float, epsilon: float, delta: float, refined: bool = False) -> QaeOutcomeDistribution:
    if not 0.0 < a < 1.0:
        raise ValueError("amplitude must lie strictly in (0, 1)")
    alpha, n = window_size(epsilon, delta, refined=refined)
    if n > MAX_QAE_WINDOW:
        raise DeskScaleError(f"window half-width N = {n} exceeds the simulation limit {MAX_QAE_WINDOW}")
    kern = kaiser_kernel(n, alpha)
    m_count = 2 * n + 1
    theta = 2.0 * math.asin(a)
    probs = np.zeros(m_count)
    for sgn in (+1.0, -1.0):
        x = kern.coefficients.astype(complex) * np.exp(1j * sgn * theta * kern.offsets())
        spectrum = np.fft.fft(x)  # index j -> sum_m x_m exp(-2pi i j m / M)
        probs += 0.5 * np.abs(spectrum) ** 2 / m_count
    j = np.arange(m_count)
    theta_hat = 2.0 * math.pi * np.where(j <= n, j, j - m_count) / m_count
    estimates = np.abs(np.sin(theta_hat / 2.0))
    return QaeOutcomeDistribution(a, epsilon, delta, alpha, n, estimates, probs)


def amplitude_estimate_sim(a: float, epsilon: float, delta: float, seed: int) -> float:
    """One simulated amplitude-estimation measurement."""
    dist = qae_outcome_distribution(a, epsilon, delta)
    rng = np.random.default_rng(seed)
    idx = rng.choice(dist.estimates.size, p=dist.probabilities / dist.probabilities.sum())
    return float(dist.estimates[idx])


def amplitude_estimate_trials(
    a: float, epsilon: float, delta: float, trials: int, seed: int, refined: bool = False
) -> np.ndarray:
    """Vectorized repeated measurements (one shared outcome distribution)."""
    dist = qae_outcome_distribution(a, epsilon, delta, refined=refined)
    rng = np.random.default_rng(seed)
    idx = rng.choice(dist.estimates.size, size=trials, p=dist.probabilities / dist.probabilities.sum())
    return dist.estimates[idx]
