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

The quadrature is cached on alpha rounded to 12 decimals, so the test
"tail(alpha) <= delta" is a step function on that grid, and a 60-step
bisection of [0.05, 25] on it ends at a value fixed by one grid point: g*,
the smallest whose tail is <= delta.  ``solve_alpha_quadrature`` brackets g*
by Illinois regula falsi on log tail over the integer grid index (Dowell
and Jarratt, BIT 11, 1971), about 10 quadratures where the bisection made
44, then replays the bisection's halvings against g* without a quadrature.
The tail decreases strictly on the grid (tests check it at several roots),
so the replay's alpha is the evaluating bisection's to the bit;
``tests/oracles.py`` keeps that bisection as the reference.

The module runs on numpy alone, and imports it inside the functions that
use it, so the closed-form sizing (``solve_alpha_asymptotic``, and through
it ``resources``) starts without numpy.  The tail quadrature uses
``_simpson``, a copy of scipy's composite Simpson rule for given abscissae,
and the window weights use ``_i0e``, a copy of the Cephes exponentially
scaled Bessel function I0e; both repeat their reference's float operations
in the same order, so the outputs are bit-identical to the scipy routines
(tests check both against scipy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from ..errors import DeskScaleError

if TYPE_CHECKING:
    import numpy as np

ALPHA_LO = 0.5
ALPHA_HI = 25.0
MAX_QAE_WINDOW = 1 << 20  # simulated outcome grids hold 2N+1 points
_GRID = 1e12  # tail_fraction's cache key: alpha in steps of 1e-12

# Chebyshev coefficients of exp(-x) I0(x) from Cephes i0.c: on [0, 8] in
# x/2 - 2, and of exp(-x) sqrt(x) I0(x) on (8, inf) in 32/x - 2
_I0E_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)


def _chbevl(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Clenshaw sum of a Chebyshev series, as Cephes ``chbevl`` orders it."""
    b0, b1, b2 = coeffs[0], 0.0, 0.0
    for c in coeffs[1:]:
        b2 = b1
        b1 = b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0e(x) -> np.ndarray:
    """exp(-|x|) I0(x), elementwise, bit-identical to ``scipy.special.i0e``."""
    import numpy as np

    x = np.abs(np.asarray(x, dtype=float))
    small = x <= 8.0
    out = np.empty_like(x)
    out[small] = _chbevl(x[small] / 2.0 - 2.0, _I0E_A)
    big = x[~small]
    out[~small] = _chbevl(32.0 / big - 2.0, _I0E_B) / np.sqrt(big)
    return out


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on an odd number of given abscissae.

    The float operations and their order are those of
    ``scipy.integrate.simpson(y, x=x)`` for odd ``len(x)``, so the result is
    the same to the bit.
    """
    import numpy as np

    h = np.diff(x).astype(float, copy=False)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (
        y[0:-2:2] * (2.0 - 1.0 / h0divh1) + y[1:-1:2] * (hsum * (hsum / hprod)) + y[2::2] * (2.0 - h0divh1)
    )
    return np.sum(tmp)


def _kernel_sq(u: np.ndarray, alpha: float) -> np.ndarray:
    """Squared unnormalized kernel in the scaled coordinate u = N*dt (no I0)."""
    import numpy as np

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
    import numpy as np

    c = math.pi * alpha
    z1 = first_zero_scaled(alpha)
    grid_head = np.linspace(0.0, z1, 4001)
    head = _simpson(_kernel_sq(grid_head, alpha), grid_head)
    cutoff = z1 + 300.0 * math.pi
    grid_tail = np.linspace(z1, cutoff, 60001)
    tail = _simpson(_kernel_sq(grid_tail, alpha), grid_tail)
    # remainder: mean sin^2 = 1/2 against 1/(u^2 - c^2)
    tail += 0.25 / c * math.log((cutoff + c) / (cutoff - c)) if c > 0 else 0.5 / cutoff
    return tail / (head + tail)


def tail_fraction(alpha: float) -> float:
    """Probability of a phase error beyond the first kernel zero."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _tail_fraction_scaled(round(float(alpha), 12))


def _out_of_range(delta: float, tail: float) -> ValueError:
    return ValueError(
        f"failure probability {delta:g} too small: the Kaiser tail at the largest"
        f" window shape alpha = {ALPHA_HI:g} is {tail:.3g}"
    )


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` as Python floats, bit for bit."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def solve_alpha_asymptotic(delta: float) -> float:
    """Solve ln(1/delta) = 2 pi a - ln(8 ln(2a) sqrt(a)) on the rising branch.

    The right-hand side diverges at both ends of [0.5, 25] and has a single
    minimum near a ~ 0.64; for delta too large to intersect the rising branch
    the minimizer itself is returned (the window cannot do better under this
    asymptotic model).  A delta below the modelled tail at ALPHA_HI raises
    ValueError.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    target = math.log(1.0 / delta)

    def g(a):
        return 2.0 * math.pi * a - math.log(8.0 * math.log(2.0 * a) * math.sqrt(a))

    # the first minimum of g on a 400-point grid, then bisection on the rising branch past it
    grid = _linspace(ALPHA_LO + 1e-6, 2.0, 400)
    vals = [g(a) for a in grid]
    i = min(range(len(vals)), key=vals.__getitem__)
    a_min, g_min = grid[i], vals[i]
    if target <= g_min:
        return a_min
    if g(ALPHA_HI) < target:
        raise _out_of_range(delta, math.exp(-g(ALPHA_HI)))
    lo, hi = a_min, ALPHA_HI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _smallest_grid_alpha(delta: float, lo: float, hi: float, tail_lo: float, tail_hi: float) -> float:
    """The smallest alpha on the 1e-12 grid in (lo, hi] whose tail is <= delta.

    The ends are grid points with tails ``tail_lo`` > delta >= ``tail_hi``.
    Illinois regula falsi on log tail over the integer grid index: the next
    index is the floor of the secant root, kept strictly inside the bracket,
    and an end kept twice running has its value halved.  The search stops
    when the ends are adjacent grid points.
    """
    log_delta = math.log(delta)
    a, b = round(lo * _GRID), round(hi * _GRID)
    fa, fb = math.log(tail_lo) - log_delta, math.log(tail_hi) - log_delta
    kept = 0  # +1 after a moved, -1 after b moved
    while b - a > 1:
        j = min(max(a + int(fa / (fa - fb) * (b - a)), a + 1), b - 1)
        fj = math.log(tail_fraction(j / _GRID)) - log_delta
        if fj <= 0.0:
            b, fb = j, fj
            if kept < 0:
                fa *= 0.5
            kept = -1
        else:
            a, fa = j, fj
            if kept > 0:
                fb *= 0.5
            kept = 1
    return b / _GRID  # the float that round(., 12) gives for grid point b


def solve_alpha_quadrature(delta: float) -> float:
    """Smallest alpha whose numerically integrated tail mass is <= delta.

    The result is that of a 60-step bisection of [0.05, 25] on the test
    tail(mid) <= delta.  The tail is keyed on alpha rounded to 12 decimals
    and strictly decreasing on that grid, so the test is "mid rounds to at
    least g*", where g* is the smallest grid point whose tail is <= delta.
    The tails at both ends are evaluated, g* is bracketed between them by
    ``_smallest_grid_alpha``, and the halvings are replayed against g*
    without a quadrature.  Raises ValueError when even the tail at ALPHA_HI
    exceeds delta.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    lo, hi = 0.05, ALPHA_HI
    tail_lo = tail_fraction(lo)
    if tail_lo <= delta:
        return lo
    tail_hi = tail_fraction(hi)
    if tail_hi > delta:
        raise _out_of_range(delta, tail_hi)
    g_star = _smallest_grid_alpha(delta, lo, hi, tail_lo, tail_hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if round(mid, 12) >= g_star:
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
        import numpy as np

        return np.arange(-self.N, self.N + 1)


def kaiser_kernel(N: int, alpha: float) -> KaiserKernel:
    import numpy as np

    if N < 1:
        raise ValueError("window half-width N must be >= 1")
    m = np.arange(-N, N + 1)
    # I0(pi a sqrt(1-(m/N)^2))/I0(pi a), computed stably via i0e ratios
    arg = math.pi * alpha * np.sqrt(np.clip(1.0 - (m / N) ** 2, 0.0, None))
    top = math.pi * alpha
    w = _i0e(arg) * np.exp(arg - top) / _i0e(top)
    w = w / np.linalg.norm(w)
    return KaiserKernel(N, alpha, w)


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


def qae_outcome_distribution(a: float, epsilon: float, delta: float) -> QaeOutcomeDistribution:
    import numpy as np

    if not 0.0 < a < 1.0:
        raise ValueError("amplitude must lie strictly in (0, 1)")
    alpha, n = window_size(epsilon, delta)
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
    import numpy as np

    dist = qae_outcome_distribution(a, epsilon, delta)
    rng = np.random.default_rng(seed)
    idx = rng.choice(dist.estimates.size, p=dist.probabilities / dist.probabilities.sum())
    return float(dist.estimates[idx])
