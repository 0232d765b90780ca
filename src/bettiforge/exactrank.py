"""Exact ranks of integer matrices: sparse modular reduction and Bareiss.

Ranks of boundary matrices must be exact, not numerical: Betti numbers are
differences of ranks and an off-by-one from float round-off would be silent.

``cleared_ranks`` ranks two consecutive boundary maps d_{k-1}, d_k over F_p
through their transposes, the coboundaries (``coboundary``).  Each is reduced
column by column on its lowest nonzero row, as in persistent cohomology
(de Silva, Morozov & Vejdemo-Johansson, "Dualities in persistent
(co)homology"; Bauer, "Ripser").  Each pivot row of the reduced d_{k-1}^T
names a column of d_k^T that would reduce to zero, so that column is skipped
(clearing).  Reducing d_k itself would walk its |Cl_{k+1}| columns, the
largest chain group here, most of them down to zero; d_k^T has |Cl_k|
columns, and clearing leaves only beta + rank(d_k) of them.

The rank mod p is at most the rank over Q, and the two are equal unless p
divides an invariant factor of the matrix, that is a torsion coefficient of
the homology beside it.  Callers rank with both ``RANK_PRIMES`` and take the
common value; when the two disagree on a map one of them met torsion and the
exact Bareiss rank of that map decides.  The common value is wrong only if
both primes divide the torsion.

``integer_rank`` is fraction-free (Bareiss) Gaussian elimination on a dense
matrix.  It keeps all intermediate entries as integer minors, so the
divisions are exact.  A vectorized int64 path covers the desk-scale matrices
here; if entry growth ever threatens 64-bit overflow the computation restarts
with Python big integers.  It is the fallback under torsion and the oracle
the tests compare the modular ranks against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |piv*x| + |y*z| stays below 2**63 when every entry magnitude is below this
_INT64_SAFE = 2**30

# two primes below 2**31, so every product of two residues is a small Python int
RANK_PRIMES = (2147483647, 2147483629)


@dataclass(frozen=True)
class Coboundary:
    """Transpose of a face table, in compressed sparse column form.

    Column r (a face) has entry (-1)^pos[t] in row rows[t] (a clique that has
    r as its pos[t]-th face) for t in indptr[r] .. indptr[r+1]-1, with the
    rows ascending within each column.
    """

    indptr: np.ndarray  # (n_faces + 1,)
    rows: np.ndarray
    pos: np.ndarray


def coboundary(faces: np.ndarray, n_faces: int) -> Coboundary:
    """Coboundary of a boundary map given by its face table.

    Column j of the boundary map has entry (-1)^i in row ``faces[j, i]``; the
    coboundary is its transpose.  One stable sort of the flattened table
    groups the entries by face and keeps the cliques ascending in each group.
    """
    order = np.argsort(faces, axis=None, kind="stable")
    indptr = np.zeros(n_faces + 1, dtype=np.intp)
    np.cumsum(np.bincount(faces.ravel(), minlength=n_faces), out=indptr[1:])
    rows, pos = np.divmod(order, faces.shape[1])
    return Coboundary(indptr, rows, pos)


def reduce_columns(cob: Coboundary, p: int, skip=()) -> dict[int, int]:
    """Reduce the columns of a coboundary over F_p; returns {pivot row: column}.

    Columns are reduced in ascending order against the columns already
    reduced, always on their lowest (largest) nonzero row; a column left
    nonzero holds a new pivot, so the rank is the number of pivots.  Columns
    in ``skip`` are not reduced at all.
    """
    pivots: dict[int, dict[int, int]] = {}  # pivot row -> column scaled to 1 there
    owner: dict[int, int] = {}
    rows = cob.rows.tolist()
    values = np.where(cob.pos & 1, p - 1, 1).tolist()
    ptr = cob.indptr.tolist()
    for c in range(len(ptr) - 1):
        if c in skip:
            continue
        col = dict(zip(rows[ptr[c] : ptr[c + 1]], values[ptr[c] : ptr[c + 1]]))
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                scale = pow(col[low], -1, p)
                pivots[low] = {row: value * scale % p for row, value in col.items()}
                owner[low] = c
                break
            factor = col[low]
            for row, value in other.items():
                # p is prime, so an entry cancels only in a row col already has
                entry = (col.get(row, 0) - factor * value) % p
                if entry:
                    col[row] = entry
                else:
                    del col[row]
    return owner


def cleared_ranks(down: Coboundary | None, up: Coboundary, p: int) -> tuple[int, int]:
    """Ranks over F_p of two consecutive boundary maps, from their coboundaries.

    ``down`` is the coboundary of d_{k-1} (None for k = 1, whose rank is 0)
    and ``up`` that of d_k.  The reduced column of ``down`` with pivot row j
    is a coboundary whose lowest row is j, and ``up`` maps it to zero (the
    coboundary squares to zero).  So column j of ``up`` is a combination of
    the columns before it and would reduce to zero: it is skipped (clearing).
    This holds over any field, since the columns go in ascending order.
    """
    low = reduce_columns(down, p) if down is not None else {}
    return len(low), len(reduce_columns(up, p, skip=low))


def integer_rank(matrix) -> int:
    """Exact rank (over Q) of an integer matrix."""
    a = np.array(matrix, dtype=np.int64, copy=True)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if a.size == 0:
        return 0
    try:
        return _bareiss_rank(a)
    except OverflowError:
        big = np.array(matrix, dtype=object, copy=True)
        return _bareiss_rank(big)


def _bareiss_rank(a: np.ndarray) -> int:
    rows, cols = a.shape
    guarded = a.dtype == np.int64
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivots = np.nonzero(a[r:, c])[0]
        if pivots.size == 0:
            continue
        i = r + int(pivots[0])
        if i != r:
            a[[r, i], :] = a[[i, r], :]
        piv = a[r, c]
        if r + 1 < rows:
            if guarded:
                mx = int(np.abs(a[r:, c:]).max())
                if mx > _INT64_SAFE:
                    raise OverflowError("int64 Bareiss guard tripped")
            block = a[r + 1 :, c + 1 :]
            block *= piv
            block -= np.outer(a[r + 1 :, c], a[r, c + 1 :])
            # Bareiss divisions are exact, so floor division is the true quotient
            block //= prev
            a[r + 1 :, c] = 0
        prev = piv
        r += 1
    return r
