"""Penalized squared Dirac operator and its one-sparse unitary decomposition.

The problem is posed on the bit strings of Hamming weight k-1, k, k+1 (never
the empty set), where the clique projector P keeps the clique states and
the complement is penalized:

    H = B_G^2 + gamma_pen (1 - P),   B_G = P B P the restricted Dirac operator.

Every term of H maps clique states to clique states, so an anchored path
never leaves them: the operator is B_G^2 on the clique states alone, sorted
by mask (``homology.dirac_square``), and the complement enters the
decomposition only as one more distinct diagonal value, the ghost value
gamma_pen.  It is there when those weights hold a non-clique state, that is
when the binomials C(n, s), s = max(k-1, 1) .. k+1, sum past the Dirac
dimension.  B_G^2 = blockdiag(d d^T, L_k, d^T d) keeps each weight too, so
``one_sparse_decompose`` can build every term on the weight-k clique states
alone: the sector the paths run on, whose every basis state is an anchor.
B_G^2 has the nonzero spectrum of its weight-k block, the Laplacian L_k, so gamma_min
and the top are read off that block (``homology.laplacian_spectrum``, the
summary of ``homology.spectrum``): L_k is scattered once per operator.
gamma_pen is gamma_min, or 1 when L_k has no nonzero mode.  The weight-k kernel has dimension beta_{k-1}, and
every nonzero eigenvalue is at least gamma_min.  Limits: the dense cap of
``homology``, ``graphs.MAX_VERTICES`` and the message budget of ``paths``;
past each a ``DeskScaleError`` names the size.

The decomposition H = sum_p c_p H_p uses terms of two shapes, both one-sparse
Hermitian with eigenvalues +-c_p on their support:

  * diagonal reflections, one per distinct diagonal value (plus one identity
    term), obtained from indicator = (I - reflection)/2.  On the clique
    states the ghost value's reflection is the scalar -gamma_pen/2, which the
    identity term cancels: it shapes the schedule, not the Trotterized trace;
  * off-diagonal matchings: the off-diagonal nonzeros are split by entry
    magnitude and edge-colored first fit, each state holding the colors
    already at it as the bits of one integer, so each term is a partial
    matching with entries of a single magnitude.

Matching terms act as zero outside their support ("involution on support");
their eigenvector catalogs below list those fixed basis states with
eigenvalue 0.  Diagonal terms are listed first so a computational basis
state is an exact eigenstate of the first scheduled term, which makes the
trace closure of the path integral exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graphs import Graph, build_clique_complex
from ..homology import check_desk_scale, dirac_square, laplacian_spectrum

DECOMPOSE_TOL = 1e-12  # symmetry, identity-term and off-diagonal cutoff of one_sparse_decompose


@dataclass(frozen=True)
class CliqueBasis:
    states: np.ndarray  # the Dirac basis as ascending uint64 clique masks
    weight_k_clique_indices: np.ndarray  # indices into states


@dataclass(frozen=True)
class PenalizedOperator:
    basis: CliqueBasis
    matrix: np.ndarray  # B_G^2 on the basis
    gamma_pen: float  # gamma_min, or 1 when B_G^2 has no nonzero mode
    gamma_min: float  # smallest nonzero eigenvalue of B_G^2
    gamma_max: float  # largest eigenvalue of the penalized operator
    d_k: int  # C(n, k), the normalization of the estimator
    ghost: float | None  # gamma_pen when the window holds a non-clique state, else None


def penalized_operator(g: Graph, k: int) -> PenalizedOperator:
    """B_G^2 on the mask-sorted clique states (``homology.dirac_square``), and the penalty.

    gamma_min, gamma_pen and gamma_max are read off its weight-k block L_k
    (see the module docstring).  With no nonzero mode every clique state is
    in the kernel, and any positive penalty keeps the weight-k kernel.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"weight k={k} outside 1..{g.n}")
    cx = build_clique_complex(g, k)
    if cx.count(k) == 0:
        raise ValueError(f"graph has no {k}-cliques")
    check_desk_scale(cx.count(k), f"spectrum(k={k})")  # the weight-k block is eigensolved
    states, square = dirac_square(cx, k)
    matrix = square.astype(np.float64)
    wk = np.flatnonzero(np.bitwise_count(states) == k)
    summary = laplacian_spectrum(matrix[np.ix_(wk, wk)])
    pen = summary.gap if summary.gap > 0 else 1.0
    window = sum(math.comb(g.n, s) for s in range(max(k - 1, 1), k + 2))
    ghost = pen if window > states.size else None
    gamma_max = summary.top if ghost is None else max(summary.top, pen)
    return PenalizedOperator(CliqueBasis(states, wk), matrix, pen, summary.gap, gamma_max, math.comb(g.n, k), ghost)


# ---------------------------------------------------------------------------
# one-sparse decomposition


@dataclass(frozen=True)
class OneSparseTerm:
    """One term c * H with H a one-sparse Hermitian involution on its support.

    The eigenvector catalog is flattened into parallel arrays: eigenvector e
    has eigenvalue lam[e] and support states sup1[e] (and sup2[e] unless -1)
    with amplitudes amp1[e], amp2[e].  ``partner[e]`` is the opposite-sign
    eigenvector of the same two-dimensional block (-1 for singletons).
    """

    coeff: float
    kind: str  # "identity", "reflection", or "matching"
    lam: np.ndarray
    sup1: np.ndarray
    sup2: np.ndarray
    amp1: np.ndarray
    amp2: np.ndarray
    partner: np.ndarray

    @property
    def n_eigs(self) -> int:
        return int(self.lam.size)


def _diag_term(coeff: float, values: np.ndarray, kind: str) -> OneSparseTerm:
    dim = values.size
    lam = values.astype(float)
    sup1 = np.arange(dim, dtype=np.int64)
    sup2 = np.full(dim, -1, dtype=np.int64)
    amp1 = np.ones(dim)
    amp2 = np.zeros(dim)
    partner = np.full(dim, -1, dtype=np.int64)
    return OneSparseTerm(coeff, kind, lam, sup1, sup2, amp1, amp2, partner)


def _matching_term(coeff: float, pairs: list[tuple[int, int, float]], dim: int) -> OneSparseTerm:
    """Pairs (u, v, sign) all of magnitude ``coeff``, perhaps none; other states are fixed.

    Pair j gives eigenvectors 2j and 2j + 1, (|u> +- |v>)/sqrt(2) with
    eigenvalues +-sign coeff, each the other's partner; the fixed states
    follow in ascending order.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    paired = 2 * len(pairs)
    pair = np.array(pairs, dtype=float).reshape(-1, 3).repeat(2, axis=0)  # rows (u, v, sign), each pair twice
    ends = pair[:, :2].astype(np.int64)
    plus_minus = np.array([1.0, -1.0] * len(pairs))
    lam, amp1, amp2 = np.zeros(dim), np.ones(dim), np.zeros(dim)
    sup1, sup2, partner = np.empty(dim, dtype=np.int64), np.empty(dim, dtype=np.int64), np.empty(dim, dtype=np.int64)
    lam[:paired] = plus_minus * pair[:, 2] * coeff
    amp1[:paired] = inv_sqrt2
    amp2[:paired] = plus_minus * inv_sqrt2
    sup1[:paired] = ends[:, 0]
    sup2[:paired] = ends[:, 1]
    sup2[paired:] = -1
    partner[:paired] = np.arange(paired) ^ 1
    partner[paired:] = -1
    covered = np.zeros(dim, dtype=bool)
    covered[ends] = True
    sup1[paired:] = (~covered).nonzero()[0]
    return OneSparseTerm(coeff, "matching", lam, sup1, sup2, amp1, amp2, partner)


@dataclass(frozen=True)
class OneSparseDecomposition:
    dim: int
    terms: tuple[OneSparseTerm, ...]

    @property
    def D(self) -> int:
        return len(self.terms)

    @property
    def coeff_sum(self) -> float:
        return float(sum(t.coeff for t in self.terms))


def one_sparse_decompose(mat: np.ndarray, ghost: float | None = None, states=None) -> OneSparseDecomposition:
    """Exact decomposition of a real symmetric matrix into weighted involutions.

    ``ghost`` is one more diagonal value, held by states outside the matrix.
    With ``states``, ascending basis indices, each term's eigenvectors are
    built on those states alone, renumbered in order.  The distinct values
    and the colors are still read off the whole matrix, so D, the kinds,
    the coefficients and the term order do not change; a color with no pair
    among the states fixes every one of them.  A pair with one end inside
    and one outside raises ``ValueError``: such a term does not leave the
    states invariant.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    # the matrix is read through its nonzeros; every pair with a nonzero side
    # is listed, so the symmetry check is the dense one
    iu, ju = np.nonzero(mat)
    entries = mat[iu, ju]
    if np.abs(entries - mat[ju, iu]).max(initial=0.0) > DECOMPOSE_TOL:
        raise ValueError("matrix is not symmetric")
    states = np.arange(mat.shape[0]) if states is None else np.asarray(states, dtype=np.int64)
    dim = states.size
    new_state = np.full(mat.shape[0], -1, dtype=np.int64)
    new_state[states] = np.arange(dim)
    terms: list[OneSparseTerm] = []

    # diagonal part: one reflection per distinct value plus one identity term;
    # indicator(S) = (1 + reflection(S))/2 makes the split exact.  Values are
    # grouped by exact float equality, which is safe because the operator
    # entries are integer sums plus a single repeated penalty float.
    diag = mat.diagonal()
    distinct = sorted({float(v) for v in diag if v != 0.0} | ({float(ghost)} if ghost else set()))
    ident = sum(distinct) / 2.0
    for v in distinct:
        values = np.where(diag[states] == v, v / 2.0, -v / 2.0)
        terms.append(_diag_term(abs(v) / 2.0, values, "reflection"))

    # off-diagonal part: split by magnitude, then greedy edge coloring of the
    # upper-triangle edges in row-major (u, v) order.  used[x] holds the colors
    # already at state x as bits; an edge takes the lowest color free at both
    # ends, and its pair is kept, renumbered, when both ends are among the states
    upper = (ju > iu) & (np.abs(entries) > DECOMPOSE_TOL)
    iu, ju, entries = iu[upper], ju[upper], entries[upper]
    new_u, new_v = new_state[iu], new_state[ju]
    if np.any((new_u < 0) != (new_v < 0)):
        raise ValueError("a matching eigenvector straddles the restricted states")
    by_mag: dict[float, list[tuple[int, int, int, int, float]]] = {}
    for u, v, su, sv, mag, sgn in zip(iu.tolist(), ju.tolist(), new_u.tolist(), new_v.tolist(),
                                      np.abs(entries).tolist(), np.copysign(1.0, entries).tolist()):
        by_mag.setdefault(mag, []).append((u, v, su, sv, sgn))
    for mag in sorted(by_mag):
        colors: list[list[tuple[int, int, float]]] = []
        used = [0] * mat.shape[0]
        for u, v, su, sv, sgn in by_mag[mag]:
            free = ~(used[u] | used[v])
            bit = free & -free
            color = bit.bit_length() - 1
            if color == len(colors):
                colors.append([])
            if su >= 0:
                colors[color].append((su, sv, sgn))
            used[u] |= bit
            used[v] |= bit
        for matching in colors:
            terms.append(_matching_term(mag, matching, dim))
    # the zero matrix with no ghost value keeps its zero identity term, so a path has a term
    if abs(ident) > DECOMPOSE_TOL or not terms:
        terms.append(_diag_term(abs(ident), np.full(dim, ident), "identity"))
    # diagonal terms first so the path anchor is a computational basis state
    terms.sort(key=lambda t: {"reflection": 0, "identity": 1, "matching": 2}[t.kind])
    return OneSparseDecomposition(dim, tuple(terms))
