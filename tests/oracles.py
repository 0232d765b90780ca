"""Slow reference implementations that the program is checked against.

Path sampler oracles, and the continuum Kaiser phase-error law with the
repeated amplitude-estimation draws that the window sizing is checked with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, simpson
from scipy.special import i0e

from bettiforge.dequant.paths import (
    PATTERN,
    ExactPathSampler,
    MetropolisPathSampler,
    PathSample,
    PathSpace,
)
from bettiforge.qsim.kaiser import _kernel_sq, first_zero_scaled, qae_outcome_distribution


def stationary_log_prob(path: PathSample, t: float, r_t: int) -> float:
    """Log of the unnormalized pattern-measure path weight; -inf for invalid paths."""
    if not path.valid:
        return -math.inf
    return -(t / r_t) * path.energy


def mh_chain(
    decomp,
    t: float,
    r_t: int,
    steps: int,
    seed: int,
    anchor_states=None,
) -> list[PathSample]:
    """Run a Metropolis chain and return one PathSample snapshot per step."""
    if anchor_states is None:
        anchor_states = range(decomp.dim)
    space = PathSpace(decomp, t, r_t, anchor_states)
    sampler = MetropolisPathSampler(ExactPathSampler(space), np.random.default_rng(seed))
    out = []
    for _ in range(steps):
        sampler.step()
        out.append(sampler.sample())
    return out


def scalar_pattern_draw(exact: ExactPathSampler, rng: np.random.Generator) -> list[int]:
    """One anchor and one pattern-measure path, position by position.

    The per-position candidates come from ``np.flatnonzero`` on the dense
    link column and the pick from ``rng.choice``; the candidate weights are
    the sampler's damped pattern messages.
    """
    space = exact.space
    weighted = exact.messages(PATTERN)[0]
    anchor = exact.draw_anchor(rng)
    col = space.anchor_states.index(anchor)
    eig = [anchor] + [0] * (space.length - 2)
    for i in range(1, space.length - 1):
        cands = np.flatnonzero(space.links[i - 1][:, eig[i - 1]])
        weights = weighted[i][cands, col]
        total = float(sum(weights))
        if total <= 0.0:
            raise RuntimeError("dead end during exact sampling (inconsistent messages)")
        eig[i] = int(cands[rng.choice(len(cands), p=weights / total)])
    return eig


# ---------------------------------------------------------------------------
# Kaiser window


def asymptotic_tail_bound(alpha: float) -> float:
    """Analytic large-alpha tail estimate 8 ln(2a) sqrt(a) exp(-2 pi a)."""
    return 8.0 * math.log(2.0 * alpha) * math.sqrt(alpha) * math.exp(-2.0 * math.pi * alpha)


@dataclass(frozen=True)
class PhaseErrorDistribution:
    """Continuum phase-error density on [-pi, pi] with numeric normalization."""

    N: int
    alpha: float
    normalization: float  # integral of the unnormalized (I0-scaled) kernel
    first_zero: float

    def density(self, dtheta) -> np.ndarray:
        u = np.asarray(dtheta, dtype=float) * self.N
        scale = i0e(math.pi * self.alpha) * math.exp(math.pi * self.alpha)
        return _kernel_sq(u, self.alpha) / (scale * scale) / self.normalization

    def tail_mass(self, width: float) -> float:
        if width < 0:
            raise ValueError("width must be nonnegative")
        if width >= math.pi:
            return 0.0
        # ~40 nodes per kernel oscillation keep Simpson exact to ~1e-9
        nodes = max(2001, 40 * self.N) | 1
        grid = np.linspace(width, math.pi, nodes)
        return 2.0 * float(simpson(self.density(grid), x=grid))


def kaiser_phase_distribution(N: int, alpha: float) -> PhaseErrorDistribution:
    """Numerically normalized phase-error distribution for given N, alpha."""
    if N < 1 or alpha <= 0:
        raise ValueError("need N >= 1 and alpha > 0")
    scale = i0e(math.pi * alpha) * math.exp(math.pi * alpha)

    def q(x):
        return _kernel_sq(np.array([x * N]), alpha)[0] / (scale * scale)

    c_over_n = math.pi * alpha / N
    pts = [p for p in (c_over_n, first_zero_scaled(alpha) / N) if p < math.pi]
    z = 2.0 * quad(q, 0.0, math.pi, points=pts, limit=400)[0]
    return PhaseErrorDistribution(N, alpha, z, first_zero_scaled(alpha) / N)


def amplitude_estimate_trials(a: float, epsilon: float, delta: float, trials: int, seed: int) -> np.ndarray:
    """Repeated amplitude-estimation measurements from one outcome distribution."""
    dist = qae_outcome_distribution(a, epsilon, delta)
    rng = np.random.default_rng(seed)
    idx = rng.choice(dist.estimates.size, size=trials, p=dist.probabilities / dist.probabilities.sum())
    return dist.estimates[idx]
