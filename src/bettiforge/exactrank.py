"""Exact ranks of integer matrices: sparse modular reduction and Bareiss.

Ranks of boundary matrices must be exact, not numerical: Betti numbers are
differences of ranks and an off-by-one from float round-off would be silent.

``cleared_ranks`` ranks two consecutive boundary maps d_{k-1}, d_k modulo an
integer through their transposes, the coboundaries (``coboundary``).  Each is
reduced column by column on its lowest nonzero row, as in persistent
cohomology (de Silva, Morozov & Vejdemo-Johansson, "Dualities in persistent
(co)homology"; Bauer, "Ripser").  Each pivot row of the reduced d_{k-1}^T
names a column of d_k^T that would reduce to zero, so that column is skipped
(clearing).  Reducing d_k itself would walk its |Cl_{k+1}| columns, the
largest chain group here, most of them down to zero; d_k^T has |Cl_k|
columns, and clearing leaves only beta + rank(d_k) of them.  A column whose
lowest row is still free becomes a pivot as it stands, unreduced (Ripser's
emergent pairs), and a pivot is never rescaled: the inverse of its lead is
kept instead.

The rank mod p is at most the rank over Q, and the two are equal unless p
divides an invariant factor of the matrix, that is a torsion coefficient of
the homology beside it.  Callers rank with both ``RANK_PRIMES`` and take the
common value; when the two disagree on a map one of them met torsion and the
exact Bareiss rank of that map decides.  The common value is wrong only if
both primes divide the torsion.  One reduction modulo p1*p2 serves both
primes, since Z/(p1 p2) is F_p1 x F_p2 (the multi-modular method of Dumas,
Saunders & Villard, J. Symb. Comput. 32, 2001): while every lead is a unit
it is both fields' reductions at once.  A lead that is not a unit means the
primes part ways; then each prime is reduced on its own, with the same
function.

``integer_rank`` is fraction-free (Bareiss) Gaussian elimination on a dense
matrix.  It keeps all intermediate entries as integer minors, so the
divisions are exact.  A vectorized int64 path covers the desk-scale matrices
here; if entry growth ever threatens 64-bit overflow the computation restarts
with Python big integers.  It is the fallback under torsion and the oracle
the tests compare the modular ranks against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# |piv*x| + |y*z| stays below 2**63 when every entry magnitude is below this
_INT64_SAFE = 2**30

# two primes below 2**31; one reduction modulo their product ranks over both
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


def reduce_columns(cob: Coboundary, modulus: int, skip=()) -> dict[int, int] | None:
    """Reduce the columns of a coboundary mod ``modulus``; returns {pivot row: column}.

    Columns are reduced in ascending order against the columns already
    reduced, always on their lowest (largest) nonzero row; a column left
    nonzero holds a new pivot, so the rank is the number of pivots.  Columns
    in ``skip`` are not reduced at all.

    For a prime p this is the reduction over F_p.  For a product N of
    distinct primes, Z/N is the product of their fields (CRT), so while every
    lead met is a unit mod N the one pass is each prime's reduction at once:
    a unit lead is nonzero mod every prime, so each prime sees the same
    lowest row, and the pivots equal each prime's.  A lead that is not a unit
    mod N (never for a prime) means some prime would have seen a lower row;
    the reduction stops there and returns None.

    A pivot column is kept as it stands, with the inverse of its lead.  A
    column whose lowest row has no pivot yet becomes one straight from the
    coboundary, unreduced: its lead is -1 or 1, its own inverse.
    """
    rows = cob.rows.tolist()
    # entries stay the integers +-1 until a reduction touches them, so no
    # residue of the modulus is ever held in int64, however large it is
    values = np.where(cob.pos & 1, -1, 1).tolist()
    ptr = cob.indptr.tolist()
    pivots: dict[int, tuple[list[int], list[int], int]] = {}  # pivot row -> rows, values, 1/lead
    owner: dict[int, int] = {}
    for c in range(len(ptr) - 1):
        start, stop = ptr[c], ptr[c + 1]
        if start == stop or c in skip:
            continue
        low = rows[stop - 1]
        if low not in pivots:
            pivots[low] = (rows[start:stop], values[start:stop], values[stop - 1])
            owner[low] = c
            continue
        col = dict(zip(rows[start:stop], values[start:stop]))
        while col:
            low = max(col)
            lead = col[low]
            if math.gcd(lead, modulus) != 1:
                return None
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = (list(col), list(col.values()), pow(lead, -1, modulus))
                owner[low] = c
                break
            pivot_rows, pivot_values, inverse = pivot
            factor = modulus - lead * inverse % modulus
            for row, value in zip(pivot_rows, pivot_values):
                # factor is a unit, so an entry cancels only in a row col already has
                entry = (col.get(row, 0) + factor * value) % modulus
                if entry:
                    col[row] = entry
                else:
                    del col[row]
    return owner


def cleared_ranks(down: Coboundary | None, up: Coboundary, modulus: int) -> tuple[int, int] | None:
    """Ranks mod ``modulus`` of two consecutive boundary maps, from their coboundaries.

    ``down`` is the coboundary of d_{k-1} (None for k = 1, whose rank is 0)
    and ``up`` that of d_k.  The reduced column of ``down`` with pivot row j
    is a coboundary whose lowest row is j, and ``up`` maps it to zero (the
    coboundary squares to zero).  So column j of ``up`` is a combination of
    the columns before it and would reduce to zero: it is skipped (clearing).
    This holds over any field, since the columns go in ascending order.  With
    a product of primes as ``modulus`` the ranks hold for each of them, and
    None means a non-unit lead stopped a reduction (``reduce_columns``).
    """
    low = reduce_columns(down, modulus) if down is not None else {}
    if low is None:
        return None
    high = reduce_columns(up, modulus, skip=low)
    return None if high is None else (len(low), len(high))


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
