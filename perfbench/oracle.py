"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls the code paths being checked: cliques, boundary matrices,
ranks and spectra are rebuilt with plain Python sets and NumPy floats, the
threshold-preparation failure law is summed by a different decomposition,
and the Kaiser tail is integrated by Gauss-Legendre quadrature.  The PIMC
reference takes the program's penalized operator and decomposition as
inputs, but only after checking them (terms sum to the operator, kernel
dimension equals the Betti number from the float ranks), and never touches
the path sampler.
"""

from __future__ import annotations

import math

import numpy as np

# --------------------------------------------------------------------------
# clique complexes


def clique_levels(n: int, edges, top: int) -> dict[int, list[tuple[int, ...]]]:
    """Cliques of sizes 1..top as sorted vertex tuples, grown level by level."""
    nbrs = [set() for _ in range(n)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    levels = {1: [(v,) for v in range(n)]}
    for s in range(2, top + 1):
        grown = []
        for c in levels[s - 1]:
            common = set.intersection(*(nbrs[v] for v in c))
            grown.extend(c + (w,) for w in sorted(common) if w > c[-1])
        levels[s] = grown
    return levels


def boundary(rows: list[tuple[int, ...]], cols: list[tuple[int, ...]]) -> np.ndarray:
    """Signed boundary from size-(s+1) cliques (cols) onto size-s cliques (rows)."""
    index = {c: i for i, c in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)))
    for j, c in enumerate(cols):
        for i in range(len(c)):
            mat[index[c[:i] + c[i + 1 :]], j] = -1.0 if i & 1 else 1.0
    return mat


def float_rank(mat: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(mat)) if mat.size else 0


def homology_summary(n: int, edges, k: int) -> dict:
    """beta_{k-1}, |Cl_k|, Laplacian gap and top eigenvalue, all in floats."""
    levels = clique_levels(n, edges, k + 1)
    cl = {s: levels.get(s, []) for s in (k - 1, k, k + 1)}
    up = boundary(cl[k], cl[k + 1])
    lap = up @ up.T
    rank = float_rank(up)
    if k >= 2:
        down = boundary(cl[k - 1], cl[k])
        lap = lap + down.T @ down
        rank += float_rank(down)
    evals = np.linalg.eigvalsh(lap) if lap.size else np.zeros(0)
    top = float(evals[-1]) if evals.size else 0.0
    nonzero = evals[evals > 1e-8 * max(1.0, top)]
    return {
        "cl_k": len(cl[k]),
        "betti": len(cl[k]) - rank,
        "nullity": int(evals.size - nonzero.size),
        "gap": float(nonzero[0]) if nonzero.size else 0.0,
        "gamma_max": top,
    }


def dirac_eigs(n: int, edges, k: int) -> np.ndarray:
    """Spectrum of the block Dirac operator over Cl_{k-1} + Cl_k + Cl_{k+1}."""
    levels = clique_levels(n, edges, k + 1)
    blocks = [levels[s] if s >= 1 else [] for s in (k - 1, k, k + 1)]
    sizes = [len(b) for b in blocks]
    dim = sum(sizes)
    mat = np.zeros((dim, dim))
    a, b = sizes[0], sizes[1]
    if a and b:
        d = boundary(blocks[0], blocks[1])
        mat[:a, a : a + b] = d
        mat[a : a + b, :a] = d.T
    if b and sizes[2]:
        d = boundary(blocks[1], blocks[2])
        mat[a : a + b, a + b :] = d
        mat[a + b :, a : a + b] = d.T
    return np.linalg.eigvalsh(mat)


def single_reflection(n: int, edges, k: int) -> bool:
    """True when the penalized operator's diagonal has one distinct nonzero value.

    Its one-sparse decomposition then has a single reflection term, the shape
    that the exact sampler's transposed closing adjacency gets wrong.  Clique
    states carry their clique-neighbour count on the diagonal of B_G^2, and
    non-clique states carry the penalty gamma_min, the smallest nonzero
    eigenvalue of the squared Dirac operator.
    """
    levels = clique_levels(n, edges, k + 1)
    lo = max(k - 1, 1)
    clique_set = {c for s in range(lo, k + 2) for c in levels.get(s, [])}
    values = set()
    for c in clique_set:
        members = set(c)
        count = 0
        for v in range(n):
            other = tuple(sorted(members ^ {v}))
            if lo <= len(other) <= k + 1 and other in clique_set:
                count += 1
        values.add(count)
    total = sum(math.comb(n, s) for s in range(lo, k + 2))
    if len(clique_set) < total:
        evals = dirac_eigs(n, edges, k) ** 2
        nonzero = evals[evals > 1e-8 * max(1.0, float(evals.max(initial=0.0)))]
        values.add(round(float(nonzero.min()), 9) if nonzero.size else 0)
    values.discard(0)
    return len(values) <= 1


# --------------------------------------------------------------------------
# path-integral Monte Carlo reference


def _catalog(term, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense eigenvector columns and eigenvalues of one decomposition term."""
    cols = np.zeros((dim, term.lam.size))
    for e in range(term.lam.size):
        cols[int(term.sup1[e]), e] += float(term.amp1[e])
        if int(term.sup2[e]) >= 0:
            cols[int(term.sup2[e]), e] += float(term.amp2[e])
    return cols, np.asarray(term.lam, dtype=float)


def pimc_reference(op, decomp, t: float, r_t: int, betti: int) -> dict:
    """Trotterized restricted trace over C(n,k), with exact per-sample variances.

    Checks first that the decomposition terms sum to the operator, that each
    term's eigenvector catalog is orthonormal, and that the operator's
    weight-k kernel has dimension ``betti``.  The mean is the restricted trace
    of the dense symmetric Trotter product of all terms.  The variances sum
    over every anchored closed path by transfer matrices: the exact sampler
    draws the anchor uniformly and the path from its thermal conditional, the
    Metropolis chain targets the thermal law over all anchors.
    """
    h = np.asarray(op.matrix, dtype=float)
    dim = h.shape[0]
    anchors = np.asarray(op.basis.weight_k_clique_indices, dtype=np.int64)
    cats = [_catalog(term, dim) for term in decomp.terms]
    total = sum(cols @ np.diag(lam) @ cols.T for cols, lam in cats)
    scale = max(1.0, float(np.abs(h).max()))
    if np.abs(total - h).max() > 1e-9 * scale:
        raise ValueError("decomposition terms do not sum to the operator")
    for cols, _ in cats:
        if cols.shape[0] != cols.shape[1] or np.abs(cols.T @ cols - np.eye(dim)).max() > 1e-9:
            raise ValueError("a term's eigenvector catalog is not an orthonormal basis")
    sub = h[np.ix_(anchors, anchors)]
    sub_evals = np.linalg.eigvalsh(sub)
    kernel = int(np.count_nonzero(np.abs(sub_evals) < 1e-8 * max(1.0, float(sub_evals.max()))))
    if kernel != betti:
        raise ValueError(f"weight-k kernel dimension {kernel} differs from the Betti number {betti}")

    tau = t / (2.0 * r_t)
    exps = []
    for cols, lam in cats:
        w, v = np.linalg.eigh(cols @ np.diag(lam) @ cols.T)
        exps.append(v @ np.diag(np.exp(-tau * w)) @ v.T)
    order = list(range(len(cats)))
    prod = np.eye(dim)
    for idx in (order + order[::-1]) * r_t:
        prod = exps[idx] @ prod
    d_k = int(op.d_k)
    mean = float(np.trace(prod[np.ix_(anchors, anchors)])) / d_k

    # the path space: identity terms leave the schedule as a scalar factor
    kinds = [term.kind for term in decomp.terms]
    shift = 0.0
    sched = []
    for idx, kind in enumerate(kinds):
        if kind == "identity" and "reflection" in kinds:
            shift += float(decomp.terms[idx].lam[0])
        else:
            sched.append(idx)
    positions = (sched + sched[::-1]) * r_t
    length = len(positions)
    beta = t / r_t
    first_cols, first_lam = cats[positions[0]]
    anchor_eigs = np.array([int(np.argmax(np.abs(first_cols[a, :]))) for a in anchors])
    # weighted (Z) and squared-overlap (S) transfer over positions 1..L-2
    start = np.zeros((first_lam.size, anchors.size))
    start[anchor_eigs, np.arange(anchors.size)] = 1.0
    z_vec, s_vec, m_vec = start.copy(), start.copy(), start.copy()
    z_log = np.zeros(anchors.size)
    s_log = np.zeros(anchors.size)
    m_log = np.zeros(anchors.size)
    for i in range(1, length - 1):
        prev_cols, _ = cats[positions[i - 1]]
        cols, lam = cats[positions[i]]
        ov = prev_cols.T @ cols
        adj = (np.abs(ov) > 1e-12).astype(float)
        z_vec = np.exp(-beta * lam)[:, None] * (adj.T @ z_vec)
        s_vec = (ov * ov).T @ s_vec
        m_vec = np.exp(-0.5 * beta * lam)[:, None] * (ov.T @ m_vec)
        for vec, logs in ((z_vec, z_log), (s_vec, s_log), (m_vec, m_log)):
            peak = np.abs(vec).max(axis=0)
            peak = np.where(peak > 0, peak, 1.0)
            vec /= peak
            logs += np.log(peak)
    last_cols, _ = cats[positions[length - 2]]
    close = last_cols.T @ first_cols[:, anchor_eigs]  # (eigs at L-2) x anchors
    w0 = first_lam[anchor_eigs]
    z_a = np.exp(-2.0 * beta * w0 + z_log) * ((np.abs(close) > 1e-12) * z_vec).sum(axis=0)
    s_a = np.exp(s_log) * (close * close * s_vec).sum(axis=0)
    m_a = np.exp(-beta * w0 + m_log) * (close * m_vec).sum(axis=0)
    path_mean = math.exp(-shift * t) * float(m_a.sum()) / d_k
    if abs(path_mean - mean) > 1e-9 * max(1.0, abs(mean)):
        raise ValueError(f"path sum {path_mean} differs from the Trotter product {mean}")
    c2 = math.exp(-2.0 * shift * t) / d_k**2
    second_exact = c2 * anchors.size * float((z_a * s_a).sum())
    second_mh = c2 * float(z_a.sum()) * float(s_a.sum())
    return {
        "mean": mean,
        "var_exact": max(second_exact - mean * mean, 0.0),
        "var_mh": max(second_mh - mean * mean, 0.0),
        "z_mean_over_max": float(z_a.mean() / z_a.max()),
    }


# Chebyshev: |mean of N - mu| >= K sigma / sqrt(N) has probability <= 1/K^2
CHEBYSHEV_K = 20.0
# Metropolis kernel: independence redraws from the exact conditional are
# proposed on this share of steps
MH_REDRAW_PROB = 0.15


def pimc_band(ref: dict, sampler: str, samples: int, chains: int, thin: int) -> float:
    """Half-width of the Chebyshev band around the reference mean.

    For Metropolis jobs the sample count is cut to an effective count: the
    redraw move is an independence sampler whose spectral gap is at least
    min_a Z / (|Cl| Z_a) = mean(Z_a) / max(Z_a), so the chain's second
    eigenvalue is at most rho = 1 - MH_REDRAW_PROB * that gap, and thinned
    samples have integrated autocorrelation at most (1 + rho^thin) / (1 - rho^thin).
    """
    n = -(-samples // chains) * chains
    if sampler == "exact":
        var, n_eff = ref["var_exact"], float(n)
    else:
        rho = (1.0 - MH_REDRAW_PROB * ref["z_mean_over_max"]) ** thin
        var, n_eff = ref["var_mh"], n * (1.0 - rho) / (1.0 + rho)
    return CHEBYSHEV_K * math.sqrt(var / n_eff)


# --------------------------------------------------------------------------
# threshold preparation and Kaiser window


def tie_failure_prob(n: int, k: int, c: int) -> float:
    """P(k-th and (k+1)-th largest of n iid uniform seeds on [0, f) are equal).

    Sums over the tied value v, the number a < k of seeds above it and the
    number b >= k + 1 - a of seeds equal to it, in exact integers.
    """
    f = 1
    while f < c * n:
        f *= 2
    total = 0
    for v in range(f):
        above = f - 1 - v
        for a in range(k):
            for b in range(k + 1 - a, n - a + 1):
                total += math.comb(n, a) * math.comb(n - a, b) * above**a * v ** (n - a - b)
    return total / f**n


_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _kernel_sq(u: np.ndarray, c: float) -> np.ndarray:
    x = u * u - c * c
    out = np.ones_like(u)
    pos = x > 1e-12
    neg = x < -1e-12
    out[pos] = np.sin(np.sqrt(x[pos])) / np.sqrt(x[pos])
    out[neg] = np.sinh(np.sqrt(-x[neg])) / np.sqrt(-x[neg])
    return out * out


def _gauss(edges: np.ndarray, c: float) -> float:
    lo, hi = edges[:-1, None], edges[1:, None]
    u = 0.5 * (hi - lo) * _GL_X[None, :] + 0.5 * (hi + lo)
    return float((0.5 * (hi - lo) * _GL_W[None, :] * _kernel_sq(u, c)).sum())


def kaiser_tail(alpha: float, lobes: int = 4000) -> float:
    """Mass of the squared Kaiser kernel beyond its first zero.

    Integrates lobe by lobe between consecutive zeros u_j = sqrt(c^2 + (j pi)^2),
    c = pi alpha, and closes the far tail with its lobe-averaged value.
    """
    c = math.pi * alpha
    zeros = np.sqrt(c * c + (np.arange(1, lobes + 1) * math.pi) ** 2)
    head_edges = np.linspace(0.0, c, 9)
    head = _gauss(head_edges, c) + _gauss(np.linspace(c, zeros[0], 9), c)
    tail = _gauss(zeros, c)
    far = zeros[-1]
    tail += 0.25 / c * math.log((far + c) / (far - c))
    return tail / (head + tail)
