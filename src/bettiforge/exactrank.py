"""Exact ranks of integer matrices: sparse modular reduction and Bareiss.

Ranks of boundary matrices must be exact, not numerical: Betti numbers are
differences of ranks and an off-by-one from float round-off would be silent.

``modular_rank`` ranks a boundary map over F_p by reducing its sparse columns
on their lowest nonzero row, as in persistent homology (Bauer, Kerber &
Reininghaus, "Clear and Compress"; Bauer, "Ripser").  The rank mod p is at
most the rank over Q, and the two are equal unless p divides an invariant
factor of the matrix, that is a torsion coefficient of the homology beside
it.  Callers rank with both ``RANK_PRIMES`` and take the common value; when
the two disagree one of them met torsion and the exact Bareiss rank decides.
The common value is wrong only if both primes divide the torsion.

``integer_rank`` is fraction-free (Bareiss) Gaussian elimination on a dense
matrix.  It keeps all intermediate entries as integer minors, so the
divisions are exact.  A vectorized int64 path covers the desk-scale matrices
here; if entry growth ever threatens 64-bit overflow the computation restarts
with Python big integers.  It is the fallback under torsion and the oracle
the tests compare the modular ranks against.
"""

from __future__ import annotations

import numpy as np

# |piv*x| + |y*z| stays below 2**63 when every entry magnitude is below this
_INT64_SAFE = 2**30

# two primes below 2**31, so every product of two residues is a small Python int
RANK_PRIMES = (2147483647, 2147483629)


def modular_rank(faces: np.ndarray, p: int) -> int:
    """Rank over F_p of a boundary map given by its face table.

    Column j has entry (-1)^i in row ``faces[j, i]``, and its rows are
    distinct.  Each column is reduced against the columns already reduced,
    always on its lowest (largest) nonzero row; a column left nonzero holds a
    new pivot, so the rank is the number of pivots.
    """
    pivots: dict[int, dict[int, int]] = {}  # pivot row -> column scaled to 1 there
    minus_one = p - 1
    for face in faces.tolist():
        col = {row: minus_one if i & 1 else 1 for i, row in enumerate(face)}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                scale = pow(col[low], -1, p)
                pivots[low] = {row: value * scale % p for row, value in col.items()}
                break
            factor = col[low]
            for row, value in other.items():
                # p is prime, so an entry cancels only in a row col already has
                entry = (col.get(row, 0) - factor * value) % p
                if entry:
                    col[row] = entry
                else:
                    del col[row]
    return len(pivots)


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
