"""Slow reference implementations that the path sampler is checked against."""

from __future__ import annotations

import math

import numpy as np

from bettiforge.dequant.paths import (
    PATTERN,
    ExactPathSampler,
    MetropolisPathSampler,
    PathSample,
    PathSpace,
)


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
