"""Closed eigenvector paths for the imaginary-time path integral.

A path visits one eigenvector of each scheduled one-sparse term.  With L =
2 * r_T * D_sched steps per closed loop, positions 0..L-2 are free and the
closing position reuses position 0 (the symmetric ordering makes the first
and last scheduled terms identical).  Position 0 ("the anchor") is pinned to
a computational basis state of the first term, which makes the
restricted-trace closure exact.  The estimator runs paths on the
decomposition built on the weight-k sector (``operators.one_sparse_decompose``
with its states), so every basis state is an anchor, and an anchor's state,
eigenvector and message column are one number.

A path is valid when every consecutive overlap (including the closing one)
is nonzero.  With beta = t/r, W the product of the 2 r D - 1 consecutive
overlaps and path energy E = 2 lambda_0 + sum of the middle eigenvalues, the
path contributes W exp(-beta E / 2) to the Trotterized restricted trace.
The exact sampler draws paths under one of two measures, each normalized
per anchor by transfer-matrix messages:

  * pattern:   Pr(path | a) = [valid] exp(-beta E) / Z_a.  Anchors drawn
    uniformly give the estimator weight E_q = (Z / d_k) W exp(beta E / 2),
    with Z the sum of Z_a.  The Metropolis sampler targets this measure and
    proposes its redraws from it.
  * magnitude: Pr(path | a) = |W| exp(-beta E / 2) / Z^abs_a.  The sample
    value sign(W) |Cl_k| Z^abs_a / d_k depends only on the anchor and the
    sign, so it is bounded by |Cl_k| max_a Z^abs_a / d_k.  The exact
    sampler's estimates use this measure.

Both values are multiplied by the scalar factor exp(-shift t) of the
identity term (see ``build_schedule``).

One transfer pass, ``PathSpace.backward_pass``, computes every partition
function: the per-anchor Z_a and Z^abs_a behind the draws, the pattern
measure's Z (their ``log_sum_exp``) and the signed restricted trace.  Every
reader takes the overlaps from one sparse store, ``PathSpace.columns`` (at
most 4 nonzeros per eigenvector per link): that pass, the draws and the
signs they return, and the per-column dicts that the Metropolis moves and
path snapshots look single overlaps up in.

Paths are drawn in batches, as array operations over the batch, one
position at a time.  The Metropolis chain's redraw and anchor proposals do
not depend on its state, so it takes them from such batches too,
``PROPOSAL_BLOCK`` at a time; its local moves read Python lists built once
per sampler (partners, eigenvalues), since per-call array overhead would
dominate for one eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DeskScaleError
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


def _state_entries(term: OneSparseTerm) -> tuple[np.ndarray, np.ndarray]:
    """Per basis state, its (eigenvector, amplitude) entries in ``term``: two slots, eigenvector -1 if empty.

    The catalog has one eigenvector per basis state; an eigenvector touches
    at most two states, and a state lies in one block of at most two.
    """
    paired = np.flatnonzero(term.sup2 >= 0)
    state = np.concatenate([term.sup1, term.sup2[paired]])
    order = np.argsort(state, kind="stable")
    state = state[order]
    slot = np.arange(state.size) - np.searchsorted(state, state)
    eig, amp = np.full((term.n_eigs, 2), -1), np.zeros((term.n_eigs, 2))
    eig[state, slot] = np.concatenate([np.arange(term.n_eigs), paired])[order]
    amp[state, slot] = np.concatenate([term.amp1, term.amp2[paired]])[order]
    return eig, amp


def _rows(row: np.ndarray, col: np.ndarray, value: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries sorted by row, then column, as (column, value) arrays padded to one width."""
    counts = np.bincount(row, minlength=n)
    slot = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.zeros((n, int(counts.max(initial=0))), dtype=np.int64)
    values = np.zeros(index.shape)
    index[row, slot] = col
    values[row, slot] = value
    return index, values


def overlap_columns(p_entries: tuple, q_entries: tuple) -> tuple[tuple, tuple]:
    """Nonzero overlaps <eigenvector f of term q | eigenvector e of term p>, in both directions.

    Takes each term's ``_state_entries`` and joins them on their shared basis
    states, so an overlap sums at most two products.  Returns the (index,
    overlap) rows of each e (its f's ascending) and of each f (its e's
    ascending), at most 4 entries each, padded with index 0 and overlap 0.0.
    """
    (pe, pa), (qe, qa) = p_entries, q_entries
    e, f = np.repeat(pe, 2, axis=1), np.tile(qe, 2)  # slot pairs (0,0), (0,1), (1,0), (1,1)
    live = (e >= 0) & (f >= 0)
    keys, inverse = np.unique(e[live] * qe.shape[0] + f[live], return_inverse=True)
    value = np.bincount(inverse, weights=(np.repeat(pa, 2, axis=1) * np.tile(qa, 2))[live])
    keys, value = keys[value != 0.0], value[value != 0.0]
    e, f = np.divmod(keys, qe.shape[0])
    back = np.lexsort((e, f))
    return _rows(e, f, value, pe.shape[0]), _rows(f[back], e[back], value[back], qe.shape[0])


# the two path measures (see the module docstring), and the signed path
# weight of the Trotterized trace
PATTERN = "pattern"
MAGNITUDE = "magnitude"
SIGNED = "signed"

DEAD_END = "dead end during exact sampling (inconsistent messages)"

MESSAGE_BUDGET = 1 << 30  # bytes of one measure's messages, (L-2) x dimension^2 floats


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


def log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))), taken from the largest value; -inf when every value is."""
    top = float(values.max())
    if top == -math.inf:
        return -math.inf
    return top + math.log(float(np.exp(values - top).sum()))


class PathSpace:
    """Schedule, overlap columns and thermal bookkeeping for one decomposition.

    Link i joins position i to position i + 1; the last link closes the loop
    onto position 0.  ``columns[i]`` holds link i's ``overlap_columns``:
    row e lists the eigenvectors f at position i + 1 that overlap
    eigenvector e at position i.  Each distinct pair of adjacent terms is
    joined once for both directions, so every link of one direction shares
    one pair of arrays of at most 4 entries per eigenvector.  Every basis
    state of ``decomp`` is an anchor; the first scheduled term is diagonal,
    so an anchor's eigenvector index and message column are its basis state.
    """

    def __init__(self, decomp: OneSparseDecomposition, t: float, r_t: int):
        if t < 0:
            raise ValueError("imaginary time must be nonnegative")
        self.decomp = decomp
        self.t = float(t)
        self.r_t = int(r_t)
        self.schedule, self.scalar_shift = build_schedule(decomp, r_t)
        self.length = len(self.schedule)  # 2 r D_sched
        self.terms = decomp.terms
        # (p, q) -> overlap columns from term p's eigenvectors to term q's
        self._pairs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.columns: list[tuple[np.ndarray, np.ndarray]] = []
        entries = {p: _state_entries(self.terms[p]) for p in set(self.schedule)}
        n = self.length - 1
        for i in range(n):
            p, q = self.schedule[i], self.schedule[(i + 1) % n]
            if (p, q) not in self._pairs:
                self._pairs[p, q], self._pairs[q, p] = overlap_columns(entries[p], entries[q])
            self.columns.append(self._pairs[p, q])
        lam = {p: self.terms[p].lam.tolist() for p in set(self.schedule)}
        self.lam = [lam[p] for p in self.schedule]  # per position, its term's eigenvalues
        self._overlap_maps: list | None = None

    def overlap_maps(self) -> list[dict[tuple[int, int], float]]:
        """Per link, its nonzero overlaps {(e, f): overlap of e with f}, read from the columns.

        Built the first time they are asked for, one dict per direction of
        a term pair, shared like the columns are.
        """
        if self._overlap_maps is None:
            maps = {}
            for index, value in self._pairs.values():
                eig, slot = np.nonzero(value)
                keys = zip(eig.tolist(), index[eig, slot].tolist())
                maps[id(index)] = dict(zip(keys, value[eig, slot].tolist()))
            self._overlap_maps = [maps[id(index)] for index, _ in self.columns]
        return self._overlap_maps

    def path_overlaps(self, eig: list[int]) -> tuple[float, float, bool]:
        """(sign, log2 magnitude, valid) of the product of consecutive overlaps."""
        maps = self.overlap_maps()
        sign = 1.0
        log2 = 0.0
        n = self.length - 1
        for i in range(n):
            val = maps[i].get((eig[i], eig[(i + 1) % n]), 0.0)
            if val == 0.0:
                return 0.0, -math.inf, False
            if val < 0.0:
                sign = -sign
                val = -val
            log2 += math.log2(val)
        return sign, log2, True

    def path_energy(self, eig: list[int]) -> float:
        lam = self.lam
        total = 2.0 * lam[0][eig[0]]
        for i in range(1, self.length - 1):
            total += lam[i][eig[i]]
        return total

    def snapshot(self, eig: list[int]) -> PathSample:
        sign, log2, valid = self.path_overlaps(eig)
        return PathSample(tuple(eig), int(eig[0]), self.path_energy(eig), sign, log2, valid)

    # -- partition function ---------------------------------------------------

    def log_partition(self) -> float:
        """Log of Z, the pattern measure's sum of Z_a over the anchors, read off its backward pass.

        -inf when no anchor has a valid closed path.
        """
        _, _, start, log_scale = self.backward_pass(PATTERN)
        with np.errstate(divide="ignore"):
            return log_sum_exp(np.log(start) + log_scale)

    def backward_pass(self, kind: str) -> tuple[list, list, np.ndarray, np.ndarray]:
        """Backward messages of one path weight, one column per anchor.

        ``kind`` is PATTERN ([valid] exp(-beta E)), MAGNITUDE (|W| exp(-beta
        E / 2)) or SIGNED (W exp(-beta E / 2)).  Returns ``weighted``, where
        ``weighted[i][f, col]`` is the weight of eigenvector f at position i
        (its damping times the completions from there back to anchor col);
        ``coefs``, the weight of each padded candidate of ``columns[i]``;
        and per anchor the start value and log scale: the anchor's summed
        weight is ``start * exp(log_scale)``.  Each
        column of the messages is rescaled by its largest magnitude at every
        position.  Only the two measures are drawn from, so the signed pass
        keeps no messages (``weighted`` is then all None); a measure whose
        messages would pass ``MESSAGE_BUDGET`` raises ``DeskScaleError``
        before any is built, and a damping factor past the float range
        raises ``ValueError``.
        """
        weigh = {
            PATTERN: lambda v: (v != 0.0).astype(float),
            MAGNITUDE: np.abs,
            SIGNED: lambda v: v,
        }[kind]
        rate = self.t / self.r_t if kind == PATTERN else 0.5 * self.t / self.r_t
        sched = self.schedule
        last, dim = self.length - 2, self.decomp.dim
        size = 8 * last * dim * dim
        if kind != SIGNED and size > MESSAGE_BUDGET:
            raise DeskScaleError(f"path messages need {size} bytes ({last} positions x dimension {dim} squared);"
                                 f" the budget is {MESSAGE_BUDGET} bytes")
        with np.errstate(over="ignore"):
            damping = {p: np.exp(-rate * self.terms[p].lam) for p in set(sched[1 : last + 1])}
            closing = np.exp(-2.0 * rate * self.terms[sched[0]].lam)
        if not all(np.isfinite(d).all() for d in (closing, *damping.values())):
            raise ValueError(f"the Trotter step t/slices = {self.t / self.r_t:g} overflows a path damping factor;"
                             " use more --slices")
        # the closing link's row of each anchor: its nonzero columns at the last position, ascending
        index, value = self._pairs[sched[0], sched[last]]
        m = np.zeros((self.terms[sched[last]].n_eigs, dim))
        np.add.at(m, (index, np.arange(dim)[:, None]), value)  # padding adds 0.0
        m = weigh(m)
        coefs = [weigh(value) for _, value in self.columns[:last]]
        log_scale = np.zeros(dim)
        weighted: list = [None] * (last + 1)
        for i in range(last, 0, -1):
            damped = damping[sched[i]][:, None] * m
            if kind != SIGNED:
                weighted[i] = damped
            index = self.columns[i - 1][0]
            m = np.zeros((index.shape[0], dim))
            for j in range(index.shape[1]):
                m += coefs[i - 1][:, j, None] * damped[index[:, j]]
            peak = np.abs(m).max(axis=0)
            scale = np.where(peak > 0, peak, 1.0)
            m /= scale
            log_scale += np.log(scale)
        start = closing * m.diagonal()
        return weighted, coefs, start, log_scale

    def restricted_trace(self) -> float:
        """Trotterized restricted trace: the sum of W exp(-beta E / 2) exp(-shift t)."""
        _, _, start, log_scale = self.backward_pass(SIGNED)
        top = float(log_scale.max())
        return math.exp(top - self.scalar_shift * self.t) * float(start @ np.exp(log_scale - top))


# Move mix of the Metropolis sampler: an independence redraw with probability
# REDRAW_PROB; otherwise a sign flip with probability SIGN_PROB, a block flip
# with BLOCK_PROB, and an anchor move with the rest.
SIGN_PROB = 0.5
BLOCK_PROB = 0.35
REDRAW_PROB = 0.15

PROPOSAL_BLOCK = 64  # redraw or anchor proposals drawn per refill


class MetropolisPathSampler:
    """Metropolis-Hastings over valid anchored closed paths, pattern measure.

    Local moves (symmetric proposals, acceptance min(1, p_b/p_a)):
      * sign flip: swap one middle eigenvector for its opposite-sign partner;
      * block flip: redraw one middle eigenvector uniformly over its term,
        allowing the chain to change which two-dimensional block it traverses;
      * anchor move: propose an anchor uniform over the anchors.

    Local moves alone are not irreducible: the anchor is wedged between
    diagonal-term positions that must hold the same basis state, so anchor
    sectors cannot exchange.  A fourth move fixes this: an independence
    redraw proposing a whole path from the exact pattern-measure sampler,
    with acceptance min(1, Z_b / Z_a) in the per-anchor partition functions
    (detailed balance holds exactly for the asymmetric proposal).

    Neither the redraw nor the anchor proposal depends on the chain's state
    (an independence proposal), so both come from lists that refill
    ``PROPOSAL_BLOCK`` at a time from the chain's generator: a block of
    anchors (``draw_anchor_columns``), then for redraws one batched ``draw``
    of a path from each.  The chain starts from its first redraw proposal.
    The redraw's acceptance reads ``log_z(PATTERN)`` as a list indexed by
    anchor.
    """

    def __init__(self, exact: ExactPathSampler, rng: np.random.Generator):
        self.exact = exact
        self.space = exact.space
        self.rng = rng
        self.accepted = 0
        self.proposed = 0
        self._beta = self.space.t / self.space.r_t
        self._maps = self.space.overlap_maps()
        # per position, its term's partners and catalog size (``space.lam`` has its eigenvalues)
        sched, terms = self.space.schedule, self.space.terms
        partner = {p: terms[p].partner.tolist() for p in set(sched)}
        self._partner = [partner[p] for p in sched]
        self._n_eigs = [terms[p].n_eigs for p in sched]
        # pending proposals, the next one last
        self._redraws: list[list[int]] = []
        self._anchor_moves: list[int] = []
        self._log_z = exact.log_z(PATTERN).tolist()  # builds the messages apart from the first draw
        self.eig: list[int] = self._next_redraw()

    def _next_redraw(self) -> list[int]:
        if not self._redraws:
            cols = self.exact.draw_anchor_columns(self.rng, PROPOSAL_BLOCK)
            self._redraws = self.exact.draw([self.rng], cols, PATTERN).tolist()[::-1]
        return self._redraws.pop()

    def _next_anchor(self) -> int:
        if not self._anchor_moves:
            self._anchor_moves = self.exact.draw_anchor_columns(self.rng, PROPOSAL_BLOCK).tolist()[::-1]
        return self._anchor_moves.pop()

    def _neighbors_ok(self, pos: int, new_eig: int) -> bool:
        maps, eig = self._maps, self.eig
        n = self.space.length - 1
        before, after = (pos - 1) % n, (pos + 1) % n
        return (eig[before], new_eig) in maps[before] and (new_eig, eig[after]) in maps[pos]

    def step(self) -> bool:
        self.proposed += 1
        u = self.rng.random()
        if u < REDRAW_PROB:
            return self._redraw_step()
        u = (u - REDRAW_PROB) / (1.0 - REDRAW_PROB)
        if u < SIGN_PROB + BLOCK_PROB and self.space.length < 3:
            return False  # a loop of two positions has no middle one to move
        if u < SIGN_PROB:
            pos = int(self.rng.integers(1, self.space.length - 1))
            new_eig = self._partner[pos][self.eig[pos]]
            if new_eig < 0:
                return False
            weight = 1.0
        elif u < SIGN_PROB + BLOCK_PROB:
            pos = int(self.rng.integers(1, self.space.length - 1))
            new_eig = int(self.rng.integers(self._n_eigs[pos]))
            weight = 1.0
        else:
            pos = 0
            new_eig = self._next_anchor()
            weight = 2.0
        if new_eig == self.eig[pos]:
            return False
        if not self._neighbors_ok(pos, new_eig):
            return False
        lam = self.space.lam[pos]
        log_ratio = -self._beta * (weight * (lam[new_eig] - lam[self.eig[pos]]))
        if log_ratio >= 0.0 or self.rng.random() < math.exp(log_ratio):
            self.eig[pos] = new_eig
            self.accepted += 1
            return True
        return False

    def _redraw_step(self) -> bool:
        """Independence proposal from the exact pattern-measure sampler."""
        eig = self._next_redraw()
        log_ratio = self._log_z[eig[0]] - self._log_z[self.eig[0]]
        if log_ratio >= 0.0 or self.rng.random() < math.exp(log_ratio):
            self.eig = eig
            self.accepted += 1
            return True
        return False

    def sample(self) -> PathSample:
        return self.space.snapshot(self.eig)


class ExactPathSampler:
    """Exact draws from the conditional path law of either measure.

    Conditioned on the anchor, a path's weight factorizes over the loop into
    nearest-neighbor terms, so backward filtering / forward sampling draws
    Pr(path | anchor) exactly: no burn-in, no mixing error.  The messages
    come from the space's one transfer pass, ``backward_pass``, and the
    per-anchor log partition functions are a byproduct: ``log_z(PATTERN)``
    gives log Z_a and ``log_z(MAGNITUDE)`` log Z^abs_a.  The messages of a
    measure are built the first time it is used; each draw takes the
    caller's generators.  Exact runs and the Metropolis chain's proposals
    both draw through ``draw_anchor_columns`` and ``draw``.
    """

    def __init__(self, space: PathSpace, clique_sampler=None):
        self.space = space
        self.clique_sampler = clique_sampler
        # measure -> (weighted messages, log Z per anchor, per-link weight
        # of each padded candidate of ``space.columns``)
        self._messages: dict[str, tuple[list, np.ndarray, list]] = {}

    def _prepare_messages(self, measure: str) -> None:
        if measure not in (PATTERN, MAGNITUDE):
            raise ValueError(f"unknown path measure {measure!r}")
        weighted, coefs, start, log_scale = self.space.backward_pass(measure)
        with np.errstate(divide="ignore"):
            self._messages[measure] = (weighted, np.log(start) + log_scale, coefs)

    def messages(self, measure: str) -> tuple[list, np.ndarray, list]:
        """(weighted messages, log Z per anchor, candidate weights) of ``measure``.

        Built the first time the measure is used.
        """
        if measure not in self._messages:
            self._prepare_messages(measure)
        return self._messages[measure]

    def log_z(self, measure: str) -> np.ndarray:
        """Log partition function of each anchor under ``measure``."""
        return self.messages(measure)[1]

    def draw_anchor_columns(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` anchors, uniform over the basis states.

        Drawn in blocks by the clique sampler, whose sector positions are
        the anchors, or without one as ``count`` uniform integers.
        """
        if self.clique_sampler is None:
            return rng.integers(self.space.decomp.dim, size=count)
        return self.clique_sampler(rng, count)

    def draw(self, rngs, cols, measure: str, signed: bool = False) -> np.ndarray:
        """One path per anchor of ``cols``: a (len(cols), L-1) array of eigenvector indices.

        Each position takes one uniform per path, searched against the
        normalized cumulative candidate weights exactly as
        ``rng.choice(len(c), p=w / total)`` searches them, so each path
        consumes the same uniforms and picks the same eigenvectors as that
        scalar draw.  A path's picks depend only on its own uniforms, so a
        batch picks what one-path batches on the same uniforms would.

        ``rngs`` is a sequence of Generators that splits ``cols`` into equal
        consecutive shares, one per chain: at each position each generator
        hands over the uniforms of its share, in order, so one call draws
        every chain's paths on the chains' own streams.

        With ``signed``, returns instead the sign of each path's overlap
        product: the parity of the negative overlaps in the slots it picked,
        and of its closing overlap.  Only what the signs need is kept: each
        path's anchor, current eigenvector and parity.
        """
        weighted, _, coefs = self.messages(measure)
        space = self.space
        cols = np.asarray(cols, dtype=np.int64)
        share, rest = divmod(cols.size, len(rngs))
        if rest:
            raise ValueError("the generators must split the anchor columns into equal shares")
        first = last = cols
        eig = [first]
        negative = np.zeros(cols.size, dtype=bool)
        for i in range(1, space.length - 1):
            index, value = space.columns[i - 1]
            # each candidate's message entry in its path's column, read
            # through one flat index so that no broadcast index is built
            at = index[last]
            at *= space.decomp.dim
            at += cols[:, None]
            weights = weighted[i].take(at)
            del at
            weights *= coefs[i - 1][last]
            cdf, live = _cdf(weights)
            if not live.all():
                raise RuntimeError(DEAD_END)
            u = np.concatenate([g.random(share) for g in rngs])
            pick = np.count_nonzero(cdf <= u[:, None], axis=1)
            del weights, cdf  # freed before the next position's are built
            negative ^= value[last, pick] < 0.0
            last = index[last, pick]
            if not signed:
                eig.append(last)
        if not signed:
            return np.column_stack(eig)
        index, value = space.columns[space.length - 2]
        closing = np.where(index[last] == first[:, None], value[last], 0.0).sum(axis=1)
        return np.where(negative ^ (closing < 0.0), -1.0, 1.0)


def _cdf(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's normalized cumulative weights, as ``rng.choice`` forms them, and whether its total is positive.

    The total and the running sums are taken left to right, as ``np.cumsum``
    takes them; rows whose total is not positive hold no meaningful cdf.
    Works in place, so a batch needs no copy: ``weights`` becomes the cdf.
    """
    total = weights[:, 0].copy()
    for j in range(1, weights.shape[1]):
        total += weights[:, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.divide(weights, total[:, None], out=weights)
        for j in range(1, cdf.shape[1]):
            cdf[:, j] += cdf[:, j - 1]
        cdf /= cdf[:, -1:]
    return cdf, total > 0.0
