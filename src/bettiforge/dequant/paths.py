"""Closed eigenvector paths for the imaginary-time path integral.

A path visits one eigenvector of each scheduled one-sparse term.  With L =
2 * r_T * D_sched steps per closed loop, positions 0..L-2 are free and the
closing position reuses position 0 (the symmetric ordering makes the first
and last scheduled terms identical).  Position 0 ("the anchor") is pinned to
a computational basis state of the first term, drawn from the weight-k clique
set, which makes the restricted-trace closure exact.

A path is valid when every consecutive overlap (including the closing one)
is nonzero.  Its thermal weight is exp(-(t/r) E) with path energy
E = 2 lambda_0 + sum of the middle eigenvalues, and the estimator weight is

    E_q = (Z / d_k) * W * exp((t/(2r)) E),

where W is the product of the 2 r D - 1 consecutive overlaps and Z the
partition function over valid anchored closed paths, computed exactly by
transfer matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OneSparseDecomposition, OneSparseTerm


def build_schedule(decomp: OneSparseDecomposition, r_t: int) -> tuple[tuple[int, ...], float]:
    """Scheduled term indices (symmetric order, r_t slices) and the scalar shift.

    Identity terms commute with everything, so they are pulled out of the
    path integral as the exact scalar factor exp(-shift * t); ``shift`` is
    the signed identity weight per unit time.  If the decomposition has no
    other diagonal term, the identity stays scheduled so paths can anchor on
    basis states.
    """
    if r_t < 1:
        raise ValueError("need at least one slice")
    diag_kinds = {"reflection", "identity"}
    has_reflection = any(t.kind == "reflection" for t in decomp.terms)
    scheduled: list[int] = []
    shift = 0.0
    for idx, term in enumerate(decomp.terms):
        if term.kind == "identity" and has_reflection:
            shift += float(term.lam[0])
            continue
        scheduled.append(idx)
    if not scheduled:
        raise ValueError("decomposition has no schedulable terms")
    first = decomp.terms[scheduled[0]]
    if first.kind not in diag_kinds:
        raise ValueError("no diagonal term available to anchor the path closure")
    slice_order = scheduled + scheduled[::-1]
    return tuple(slice_order * r_t), shift


def overlap_table(tp: OneSparseTerm, tq: OneSparseTerm) -> np.ndarray:
    """Signed overlaps table[f, e] = <eigenvector f of tq | eigenvector e of tp>.

    Two supports share at most two states, so at most two of the four
    products below are nonzero; their sum is then the same float whichever
    term comes first, and the reverse direction is exactly ``table.T``.
    """
    u1, u2 = tp.sup1[None, :], tp.sup2[None, :]
    v1, v2 = tq.sup1[:, None], tq.sup2[:, None]
    a1, a2 = tp.amp1[None, :], tp.amp2[None, :]
    b1, b2 = tq.amp1[:, None], tq.amp2[:, None]
    table = np.where(u1 == v1, a1 * b1, 0.0)
    table += np.where(u1 == v2, a1 * b2, 0.0)
    table += np.where((u2 >= 0) & (u2 == v1), a2 * b1, 0.0)
    table += np.where((u2 >= 0) & (u2 == v2), a2 * b2, 0.0)
    return table


@dataclass(frozen=True)
class PathSample:
    """Immutable snapshot of one closed anchored path."""

    eig_indices: tuple[int, ...]  # positions 0..L-2; position L-1 reuses 0
    anchor_state: int  # basis index of position 0
    energy: float  # 2 lambda_0 + sum of middle eigenvalues
    w_sign: float
    w_log2: float
    valid: bool

    @property
    def weight(self) -> float:
        return self.w_sign * 2.0**self.w_log2 if self.valid else 0.0


def stationary_log_prob(path: PathSample, t: float, r_t: int) -> float:
    """Log of the unnormalized thermal path weight; -inf for invalid paths."""
    if not path.valid:
        return -math.inf
    return -(t / r_t) * path.energy


class PathSpace:
    """Schedule, overlap tables and thermal bookkeeping for one decomposition.

    ``links[i][f, e]`` is the overlap of eigenvector e at position i with
    eigenvector f at position i + 1; the last link closes the loop onto
    position 0.  Each distinct pair of adjacent terms gets one table, built
    once and shared by every link (and, transposed, by the reverse pair).
    The first scheduled term is diagonal, so the anchor's eigenvector index
    is its basis state.
    """

    def __init__(
        self,
        decomp: OneSparseDecomposition,
        t: float,
        r_t: int,
        anchor_states,
    ):
        if t < 0:
            raise ValueError("imaginary time must be nonnegative")
        self.decomp = decomp
        self.t = float(t)
        self.r_t = int(r_t)
        self.schedule, self.scalar_shift = build_schedule(decomp, r_t)
        self.length = len(self.schedule)  # 2 r D_sched
        self.anchor_states = tuple(int(a) for a in anchor_states)
        if not self.anchor_states:
            raise ValueError("empty anchor set")
        self.terms = decomp.terms
        if not all(0 <= a < decomp.dim for a in self.anchor_states):
            raise ValueError("anchor states must be basis states of the ambient space")
        tables: dict[tuple[int, int], np.ndarray] = {}
        n = self.length - 1
        self.links: list[np.ndarray] = []
        for i in range(n):
            p, q = self.schedule[i], self.schedule[(i + 1) % n]
            key = (min(p, q), max(p, q))
            if key not in tables:
                tables[key] = overlap_table(self.terms[key[0]], self.terms[key[1]])
            self.links.append(tables[key] if p <= q else tables[key].T)

    def linked(self, i: int) -> np.ndarray:
        """Nonzero pattern of link i, C-ordered so products sum in a fixed order."""
        return np.ascontiguousarray(self.links[i] != 0.0)

    def path_overlaps(self, eig: list[int]) -> tuple[float, float, bool]:
        """(sign, log2 magnitude, valid) of the product of consecutive overlaps."""
        sign = 1.0
        log2 = 0.0
        n = self.length - 1
        for i in range(n):
            val = float(self.links[i][eig[(i + 1) % n], eig[i]])
            if val == 0.0:
                return 0.0, -math.inf, False
            if val < 0.0:
                sign = -sign
                val = -val
            log2 += math.log2(val)
        return sign, log2, True

    def path_energy(self, eig: list[int]) -> float:
        sched = self.schedule
        total = 2.0 * float(self.terms[sched[0]].lam[eig[0]])
        for i in range(1, self.length - 1):
            total += float(self.terms[sched[i]].lam[eig[i]])
        return total

    def snapshot(self, eig: list[int]) -> PathSample:
        sign, log2, valid = self.path_overlaps(eig)
        return PathSample(tuple(eig), int(eig[0]), self.path_energy(eig), sign, log2, valid)

    # -- partition function ---------------------------------------------------

    def log_partition(self) -> float:
        """Log of Z = sum of thermal weights over valid anchored closed paths."""
        beta = self.t / self.r_t
        sched = self.schedule
        first = self.terms[sched[0]]
        anchors = np.array(self.anchor_states)
        vec = np.zeros((first.n_eigs, anchors.size))
        vec[anchors, np.arange(anchors.size)] = 1.0
        w1 = np.exp(-2.0 * beta * first.lam[anchors])
        log_scale = 0.0
        for i in range(1, self.length - 1):
            damp = np.exp(-beta * self.terms[sched[i]].lam)
            vec = damp[:, None] * (self.linked(i - 1) @ vec)
            peak = vec.max(initial=0.0)
            if peak <= 0.0:
                return -math.inf
            vec /= peak
            log_scale += math.log(peak)
        close = self.linked(self.length - 2)
        total = 0.0
        for col, a in enumerate(self.anchor_states):
            total += w1[col] * float(close[a, :] @ vec[:, col])
        if total <= 0.0:
            return -math.inf
        return math.log(total) + log_scale

    # -- exhaustive enumeration (toy oracle) ----------------------------------

    def enumerate_paths(self, max_paths: int = 1 << 14) -> list[PathSample]:
        """All valid anchored closed paths (raises if more than max_paths)."""
        n = self.length - 1
        out: list[PathSample] = []
        eig: list[int] = [0] * n

        def rec(pos: int) -> None:
            if len(out) > max_paths:
                raise RuntimeError(f"more than {max_paths} paths; not a toy instance")
            if pos == n:
                if self.links[n - 1][eig[0], eig[n - 1]] != 0.0:
                    out.append(self.snapshot(eig))
                return
            for f in np.flatnonzero(self.links[pos - 1][:, eig[pos - 1]]):
                eig[pos] = int(f)
                rec(pos + 1)

        for a in self.anchor_states:
            eig[0] = a
            rec(1)
        return out


# Move mix of the Metropolis sampler: an independence redraw with probability
# REDRAW_PROB; otherwise a sign flip with probability SIGN_PROB, a block flip
# with BLOCK_PROB, and an anchor move with the rest.
SIGN_PROB = 0.5
BLOCK_PROB = 0.35
REDRAW_PROB = 0.15


class MetropolisPathSampler:
    """Metropolis-Hastings over valid anchored closed paths.

    Local moves (symmetric proposals, acceptance min(1, p_b/p_a)):
      * sign flip: swap one middle eigenvector for its opposite-sign partner;
      * block flip: redraw one middle eigenvector uniformly over its term,
        allowing the chain to change which two-dimensional block it traverses;
      * anchor move: redraw the anchor uniformly over the anchor set, via
        rejection sampling from the weight-k strings (frequency recorded).

    Local moves alone are not irreducible: the anchor is wedged between
    diagonal-term positions that must hold the same basis state, so anchor
    sectors cannot exchange.  A fourth move fixes this: an independence
    redraw proposing a whole path from the exact conditional sampler, with
    acceptance min(1, Z_b / Z_a) in the per-anchor partition functions
    (detailed balance holds exactly for the asymmetric proposal).  The chain
    starts from one exact draw.
    """

    def __init__(self, exact: ExactPathSampler, rng: np.random.Generator):
        self.exact = exact
        self.space = exact.space
        self.rng = rng
        self.accepted = 0
        self.proposed = 0
        self._beta = self.space.t / self.space.r_t
        snap, _ = exact.draw(rng)
        self.eig: list[int] = list(snap.eig_indices)

    def _neighbors_ok(self, pos: int, new_eig: int) -> bool:
        links, eig = self.space.links, self.eig
        n = self.space.length - 1
        before, after = (pos - 1) % n, (pos + 1) % n
        return links[before][new_eig, eig[before]] != 0.0 and links[pos][eig[after], new_eig] != 0.0

    def step(self) -> bool:
        space = self.space
        sched = space.schedule
        self.proposed += 1
        u = self.rng.random()
        if u < REDRAW_PROB:
            return self._redraw_step()
        u = (u - REDRAW_PROB) / (1.0 - REDRAW_PROB)
        if u < SIGN_PROB:
            pos = int(self.rng.integers(1, space.length - 1))
            term = space.terms[sched[pos]]
            partner = int(term.partner[self.eig[pos]])
            if partner < 0:
                return False
            new_eig = partner
            weight = 1.0
        elif u < SIGN_PROB + BLOCK_PROB:
            pos = int(self.rng.integers(1, space.length - 1))
            term = space.terms[sched[pos]]
            new_eig = int(self.rng.integers(term.n_eigs))
            weight = 1.0
        else:
            pos = 0
            new_eig = self.exact.draw_anchor(self.rng)
            weight = 2.0
        if new_eig == self.eig[pos]:
            return False
        if not self._neighbors_ok(pos, new_eig):
            return False
        term = space.terms[sched[pos]]
        d_energy = weight * (float(term.lam[new_eig]) - float(term.lam[self.eig[pos]]))
        log_ratio = -self._beta * d_energy
        if log_ratio >= 0.0 or self.rng.random() < math.exp(log_ratio):
            self.eig[pos] = new_eig
            self.accepted += 1
            return True
        return False

    def _redraw_step(self) -> bool:
        """Independence proposal from the exact conditional path sampler."""
        snap, anchor = self.exact.draw(self.rng)
        log_ratio = self.exact.log_z_anchor(anchor) - self.exact.log_z_anchor(self.eig[0])
        if log_ratio >= 0.0 or self.rng.random() < math.exp(log_ratio):
            self.eig = list(snap.eig_indices)
            self.accepted += 1
            return True
        return False

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    def sample(self) -> PathSample:
        return self.space.snapshot(self.eig)


def mh_chain(
    decomp: OneSparseDecomposition,
    t: float,
    r_t: int,
    steps: int,
    seed: int,
    anchor_states=None,
) -> list[PathSample]:
    """Run a chain and return one PathSample snapshot per step."""
    if anchor_states is None:
        anchor_states = range(decomp.dim)
    space = PathSpace(decomp, t, r_t, anchor_states)
    sampler = MetropolisPathSampler(ExactPathSampler(space), np.random.default_rng(seed))
    out = []
    for _ in range(steps):
        sampler.step()
        out.append(sampler.sample())
    return out


class ExactPathSampler:
    """Exact draws from the conditional thermal path distribution.

    Conditioned on the anchor, the thermal weight factorizes over the loop
    into nearest-neighbor terms, so backward filtering / forward sampling
    draws Pr(path | anchor) exactly: no burn-in, no mixing error.  The
    per-anchor log partition functions Z_a are a byproduct and give the
    importance weight of the Algorithm-style scheme "anchor uniform over the
    weight-k cliques, then path from the thermal conditional".  The messages
    depend only on the path space; each draw takes the caller's generator.
    """

    def __init__(self, space: PathSpace, clique_sampler=None):
        self.space = space
        self.clique_sampler = clique_sampler
        self._prepare_messages()

    def _prepare_messages(self) -> None:
        space = self.space
        beta = space.t / space.r_t
        sched = space.schedule
        last = space.length - 2  # index of the final free position
        self._damps = [np.exp(-beta * space.terms[sched[i]].lam) for i in range(last + 1)]
        # messages[i][f, col] = total thermal weight of completions from
        # position i (eigenvector f of sched[i]) back to anchor column col
        anchors = list(space.anchor_states)
        msgs: list[np.ndarray] = [None] * (last + 1)  # type: ignore[list-item]
        logs = np.zeros(len(anchors))
        m = np.ascontiguousarray(space.linked(last)[anchors, :].T, dtype=float)
        msgs[last] = m
        for i in range(last, 0, -1):
            m = space.linked(i - 1).astype(float).T @ (self._damps[i][:, None] * m)
            peak = m.max(axis=0)
            alive = peak > 0
            scale = np.where(alive, peak, 1.0)
            m = m / scale
            logs += np.where(alive, np.log(scale), -np.inf)
            msgs[i - 1] = m
        self._messages = msgs
        first = space.terms[sched[0]]
        w1 = np.array([math.exp(-2.0 * beta * float(first.lam[a])) for a in anchors])
        starts = np.array([msgs[0][a, col] for col, a in enumerate(anchors)])
        with np.errstate(divide="ignore"):
            self.log_z_per_anchor = np.log(w1 * starts) + logs
        self._anchor_pos = {a: col for col, a in enumerate(anchors)}

    def log_z_anchor(self, state: int) -> float:
        return float(self.log_z_per_anchor[self._anchor_pos[state]])

    def draw_anchor(self, rng: np.random.Generator) -> int:
        """An anchor state, uniform over the anchor set."""
        if self.clique_sampler is not None:
            return self.clique_sampler(rng)
        return self.space.anchor_states[rng.integers(len(self.space.anchor_states))]

    def draw(self, rng: np.random.Generator) -> tuple[PathSample, int]:
        """One exact sample: (path, anchor state)."""
        space = self.space
        anchor = self.draw_anchor(rng)
        col = self._anchor_pos[anchor]
        eig = [anchor] + [0] * (space.length - 2)
        for i in range(1, space.length - 1):
            cands = np.flatnonzero(space.links[i - 1][:, eig[i - 1]])
            weights = self._damps[i][cands] * self._messages[i][cands, col]
            total = float(sum(weights))
            if total <= 0.0:
                raise RuntimeError("dead end during exact sampling (inconsistent messages)")
            eig[i] = int(cands[rng.choice(len(cands), p=weights / total)])
        return space.snapshot(eig), anchor
