"""Exact boundary operators, Laplacians, Dirac operators, Betti numbers, spectra.

Index convention (used across the whole package): operations take the Hamming
weight k of the basis states, i.e. the CLIQUE SIZE, and quantities like
``betti_exact(g, k)`` return the Betti number of simplex dimension k-1.  So
``betti_exact(g, 2)`` is beta_1, computed on the vertex/edge/triangle bases.

Every boundary map has one representation, its face table, and one owner,
the graph's clique complex, which builds it (``CliqueComplex.faces``) and its
transpose, the coboundary (``cofaces``), once.  The Laplacian and the
squared Dirac operator (``dirac_square``), the Gram blocks of the boundary
maps, are scattered from them as sign products, and so are the blocks of the
Dirac operator, which with ``dirac_basis`` serves the walk (``qsim.walkenc``)
alone; only the rank's torsion fallback builds a dense boundary matrix.  The
Dirac spectrum is +-sqrt of the Laplacian's, which ``laplacian_spectrum``
summarizes for ``spectrum`` and for the weight-k block of ``dirac_square``.

Betti numbers come from exact ranks, not from floating point: sparse column
reduction of the coboundaries over F_p for two primes, with the columns that
would reduce to zero cleared, and dense Bareiss elimination of a map when
the primes disagree on it (see ``betti_exact`` and ``exactrank``).  One
reduction modulo the product of the primes serves both unless it meets a
lead that is not a unit; then each prime is reduced on its own.  Spectra
come from a dense symmetric eigensolver and are cross-checked against the
exact ranks in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DeskScaleError
from .exactrank import RANK_PRIMES, cleared_ranks, integer_rank
from .graphs import CliqueComplex, Graph, build_clique_complex

# eigenvalue |lambda| < ZERO_TOL * max(1, gamma_max) counts as zero; the
# complexes here have integer spectra, so the separation is enormous
ZERO_TOL = 1e-8

# dense eigensolves and the dense Bareiss fallback are capped at this many
# basis elements
MAX_DENSE_DIM = 4096


def check_desk_scale(dim: int, what: str) -> None:
    if dim > MAX_DENSE_DIM:
        raise DeskScaleError(f"{what} needs dimension {dim}; desk-scale cap is {MAX_DENSE_DIM}")


@dataclass(frozen=True)
class BoundaryMatrix:
    """Signed boundary operator from size-(k+1) cliques to size-k cliques."""

    k: int
    row_basis: tuple[int, ...]
    col_basis: tuple[int, ...]
    matrix: np.ndarray  # int64, shape (len(row_basis), len(col_basis))


@dataclass(frozen=True)
class DiracOperator:
    """Symmetric block tridiagonal operator over three consecutive clique bases."""

    k: int
    block_sizes: tuple[int, int, int]  # |Cl_{k-1}|, |Cl_k|, |Cl_{k+1}|
    matrix: np.ndarray  # int64, square of size sum(block_sizes)


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted Laplacian spectrum with nullity, gap, top eigenvalue and kappa."""

    eigenvalues: np.ndarray
    nullity: int
    gap: float
    top: float
    kappa: float


def _parity_sign(pos: np.ndarray) -> np.ndarray:
    return np.where(pos & 1, -1, 1)


def _scatter(block: np.ndarray, faces: np.ndarray) -> None:
    """Write the boundary map with face table ``faces`` into the zero ``block``."""
    block[faces, np.arange(faces.shape[0])[:, None]] = _parity_sign(np.arange(faces.shape[1]))


def boundary_matrix(cx: CliqueComplex, k: int) -> BoundaryMatrix:
    """Dense matrix of the boundary map from size-(k+1) cliques onto size-k cliques.

    Column x (a size-(k+1) clique) carries entry (-1)^i in the row of the
    subset obtained by clearing the i-th one of x (bit positions in ascending
    order, i counted from 0); the rows come from ``cx.faces``.  Only the
    torsion fallback of ``betti_exact`` and the tests build it.
    """
    faces = cx.faces(k)
    rows = cx.basis(k)
    cols = cx.basis(k + 1)
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    _scatter(mat, faces)
    return BoundaryMatrix(k, rows, cols, mat)


def _gram(cx: CliqueComplex, k: int, sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gram blocks of the boundary maps on the cliques of ``sizes``: (ascending uint64 masks, int64 matrix).

    Size s gets the up term d_s d_s^T if s <= k and the down term d_{s-1}^T
    d_{s-1} if s >= max(k, 2) (no d_0: regular homology).  The up term is the
    (s+1)^2 sign products of each (s+1)-clique's faces, the down term the sign
    products of every ordered pair of s-cliques that share a face (each clique
    paired with itself included), read off the coboundary of d_{s-1}.
    """
    bases = [np.array(cx.basis(s), dtype=np.uint64) for s in sizes]
    masks = np.sort(np.concatenate(bases))
    dim = masks.size
    gram = np.zeros(dim * dim, dtype=np.int64)
    for s, basis in zip(sizes, bases):
        at = np.searchsorted(masks, basis)  # each s-clique's row
        if s <= k and cx.count(s + 1):
            faces = at[cx.faces(s)]
            pos = np.arange(s + 1)
            sign = np.tile(_parity_sign(pos[:, None] + pos[None, :]).ravel(), faces.shape[0])
            np.add.at(gram, (faces[:, :, None] * dim + faces[:, None, :]).ravel(), sign)
        if s >= max(k, 2):
            cob = cx.cofaces(s - 1)
            # every ordered pair (a, b) of entries in one column of the
            # coboundary: entry a repeats once per entry of its column, and b runs over it
            deg = np.diff(cob.indptr)
            per_entry = np.repeat(deg, deg)
            left = np.repeat(np.arange(cob.rows.size), per_entry)
            run = np.cumsum(per_entry) - per_entry  # where the run of each a starts
            right = np.repeat(np.repeat(cob.indptr[:-1], deg) - run, per_entry) + np.arange(left.size)
            rows = at[cob.rows]
            np.add.at(gram, rows[left] * dim + rows[right], _parity_sign(cob.pos[left] + cob.pos[right]))
    return masks, gram.reshape(dim, dim)


def laplacian(cx: CliqueComplex, k: int) -> np.ndarray:
    """Combinatorial Laplacian of dimension k-1, d_{k-1}^T d_{k-1} + d_k d_k^T, as an integer matrix over Cl_k."""
    return _gram(cx, k, (k,))[1]


def dirac_square(cx: CliqueComplex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``dirac(cx, k)`` squared, blockdiag(d d^T, L_k, d^T d), by ascending mask: (uint64 masks, int64 matrix)."""
    sizes = tuple(s for s in (k - 1, k, k + 1) if s >= 1)
    check_desk_scale(sum(cx.count(s) for s in sizes), f"dirac(k={k})")
    return _gram(cx, k, sizes)


def dirac(cx: CliqueComplex, k: int) -> DiracOperator:
    """Block Dirac operator over Cl_{k-1} + Cl_k + Cl_{k+1}.

    Off-diagonal blocks are the boundary maps, scattered from the face
    tables; squaring block-diagonalizes into Laplacian-type blocks, with the
    k-1 dimensional Laplacian in the middle.
    """
    sizes = (cx.count(k - 1) if k >= 2 else 0, cx.count(k), cx.count(k + 1))
    total = sum(sizes)
    check_desk_scale(total, f"dirac(k={k})")
    mat = np.zeros((total, total), dtype=np.int64)
    a, b, c = sizes
    if k >= 2 and a and b:
        _scatter(mat[0:a, a : a + b], cx.faces(k - 1))  # Cl_k -> Cl_{k-1}
    if b and c:
        _scatter(mat[a : a + b, a + b :], cx.faces(k))  # Cl_{k+1} -> Cl_k
    mat += mat.T  # the lower blocks are the transposes; the diagonal is zero
    return DiracOperator(k, sizes, mat)


def dirac_basis(cx: CliqueComplex, k: int) -> np.ndarray:
    """The rows of ``dirac(cx, k)`` as uint64 clique masks: Cl_{k-1} (none at k = 1), Cl_k, Cl_{k+1}."""
    return np.array([x for size in (k - 1, k, k + 1) if size >= 1 for x in cx.basis(size)], dtype=np.uint64)


def check_weight(k: int) -> None:
    """Reject a Hamming weight below 1: the chain groups start at single vertices."""
    if k < 1:
        raise ValueError("k must be >= 1 (Hamming weight of the basis states)")


def _exact_rank(cx: CliqueComplex, k: int, ranks: set[int]) -> int:
    """Rank over Q of d_k, given its ranks over the primes of ``RANK_PRIMES``."""
    if len(ranks) == 1:
        return ranks.pop()
    # one prime divides a torsion coefficient, so only the integer rank is exact
    check_desk_scale(max(cx.count(k), cx.count(k + 1)), f"betti_exact torsion fallback (k={k})")
    return integer_rank(boundary_matrix(cx, k).matrix)


def betti_exact(g: Graph, k: int) -> int:
    """Betti number of dimension k-1 of the clique complex, via exact ranks.

    beta = |Cl_k| - rank(d_{k-1}) - rank(d_k), each rank the common rank over
    F_p for both primes of ``RANK_PRIMES``, or the Bareiss rank over Q when
    the two disagree.  The result is wrong only if both primes divide a
    torsion coefficient of the homology.  Both maps are ranked through their
    coboundaries, the pivots of d_{k-1}^T clearing columns of d_k^T
    (``exactrank.cleared_ranks``).  One reduction modulo the product of the
    primes gives both primes' ranks; when it meets a lead that is not a unit,
    a sign of torsion, each prime is reduced separately.  No dense matrix is
    built unless the primes disagree, so only that fallback is under the
    dense cap.
    """
    check_weight(k)
    cx = build_clique_complex(g, k)
    down = cx.cofaces(k - 1) if k >= 2 else None
    up = cx.cofaces(k)
    both = cleared_ranks(down, up, math.prod(RANK_PRIMES))
    ranks = [both] if both is not None else [cleared_ranks(down, up, p) for p in RANK_PRIMES]
    rank_down = _exact_rank(cx, k - 1, {r for r, _ in ranks}) if k >= 2 else 0
    return cx.count(k) - rank_down - _exact_rank(cx, k, {r for _, r in ranks})


def spectrum(g: Graph, k: int) -> SpectralSummary:
    """Dense symmetric eigensolve of the (k-1)-Laplacian over Cl_k (see ``laplacian_spectrum``)."""
    check_weight(k)
    cx = build_clique_complex(g, k)
    dim = cx.count(k)
    if dim == 0:
        raise ValueError(f"graph has no {k}-cliques; spectrum undefined")
    check_desk_scale(dim, f"spectrum(k={k})")
    # the int64 Laplacian is dropped as soon as its float copy exists
    return laplacian_spectrum(laplacian(cx, k).astype(np.float64))


def laplacian_spectrum(lap: np.ndarray) -> SpectralSummary:
    """Spectral summary of an integer Laplacian, given as float64.

    ``gap`` is the smallest eigenvalue above the zero tolerance (0.0 when the
    whole spectrum is zero), ``kappa`` = top/gap (NaN when gap is 0).  The
    restricted Dirac operator's gap is sqrt(gap) and its spectrum is +-sqrt
    of this one (see ``qsim.filters``), so the filter and the pipeline read
    their spectral numbers from here, and the dequantizer reads its gammas
    off the weight-k block of ``dirac_square``.
    """
    evals = np.linalg.eigvalsh(lap)
    evals.sort()
    top = float(evals[-1])
    tol = ZERO_TOL * max(1.0, top)
    nullity = int(np.count_nonzero(evals < tol))
    nonzero = evals[evals >= tol]
    gap = float(nonzero[0]) if nonzero.size else 0.0
    kappa = top / gap if gap > 0 else math.nan
    return SpectralSummary(evals, nullity, gap, top, kappa)
