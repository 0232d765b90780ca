"""Slow reference implementations that the program is checked against.

Homology oracles: clique lists by subset filtering, the face-row modular rank
of a boundary map, the Laplacian eigenvalue count below a threshold and the
Kunneth formula for joins.  Cost-model oracles: the ancilla-lean Dicke
preparation and the total for an absolute Betti accuracy.  Simulator
oracles: the Dicke tie law summed over every seed value, the unrestricted
hopping Hamiltonian, the dense block encoding V
(Kronecker PREP around a block-diagonal SELECT), its projected block, the
dense walk and its eigenphases, the filter half-width, and the filtered
amplitude and Dirac gap from the eigendecomposition of the dense restricted
Dirac operator.  Dequantizer oracles: the operator on the whole weight
window of 2^n bit strings and its terms restricted to the clique states,
the dense matrices of the one-sparse terms, the matching terms by element
loops and the greedy coloring's bound on the term count, the dense Trotter
product, the dense overlap tables of every link, exhaustive path
enumeration and the checks built on it, the dense forward and backward
transfer passes, the slice count and variance bounds, and the exact
estimator drawing its chains' paths one chain at a time.  Then
the continuum Kaiser phase-error law with the repeated amplitude-estimation
draws that the window sizing is checked with, and the evaluating bisection
that the refined window shape replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.integrate import quad, simpson
from scipy.special import i0e

from bettiforge.dequant.estimator import (
    NO_CLOSED_PATH,
    DequantResult,
    PIMCConfig,
    _batch_stderr,
    estimate_normalized_betti,
    integrated_autocorr_time,
    make_clique_sampler,
)
from bettiforge.dequant.operators import (
    OneSparseDecomposition,
    OneSparseTerm,
    PenalizedOperator,
    one_sparse_decompose,
    penalized_operator,
)
from bettiforge.dequant.paths import (
    MAGNITUDE,
    PATTERN,
    SIGNED,
    ExactPathSampler,
    MetropolisPathSampler,
    PathSample,
    PathSpace,
    build_schedule,
)
from bettiforge.graphs import Graph, build_clique_complex, is_clique
from bettiforge.homology import ZERO_TOL, DiracOperator, dirac, dirac_basis, spectrum
from bettiforge.qsim.dicke import seed_modulus
from bettiforge.qsim.filters import chebyshev_filter_response
from bettiforge.qsim.kaiser import ALPHA_HI, _kernel_sq, first_zero_scaled, qae_outcome_distribution, tail_fraction
from bettiforge.qsim.walkenc import REAL_AXIS_TOL, _check_qubits, _uniform_prep
from bettiforge.resources import ResourceEstimate, ResourceParams, _ceil_log2, total_toffoli

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# homology


def bit_indices(mask: int) -> list[int]:
    """Vertices of a bit mask in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def brute_force_cliques(g: Graph, s: int) -> list[int]:
    """Subset-filter oracle for enumerate_cliques (n <= 12 scale)."""
    masks = []
    for combo in combinations(range(g.n), s):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if is_clique(g, mask):
            masks.append(mask)
    masks.sort()
    return masks


def modular_rank(faces: np.ndarray, p: int) -> int:
    """Rank over F_p of a boundary map, reducing its face-table columns.

    Column j has entry (-1)^i in row ``faces[j, i]``, and its rows are
    distinct.  Each column is reduced against the columns already reduced,
    always on its lowest (largest) nonzero row; a column left nonzero holds a
    new pivot, so the rank is the number of pivots.  No clearing: every
    column of the boundary map itself is walked down to a pivot or to zero.
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
                entry = (col.get(row, 0) - factor * value) % p
                if entry:
                    col[row] = entry
                else:
                    del col[row]
    return len(pivots)


def betti_delta_approx(g: Graph, k: int, delta: float) -> int:
    """Count of Laplacian eigenvalues <= delta (Rayleigh-quotient relaxation).

    Monotone nondecreasing in delta; at delta = 0 it reproduces the exact
    Betti number (zero modes are counted with the spectral zero tolerance).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    evals = spectrum(g, k).eigenvalues
    tol = ZERO_TOL * max(1.0, float(evals[-1]))
    return int(np.count_nonzero(evals <= delta + tol))


def reduced_from_regular(betti: list[int]) -> list[int]:
    """Convert a regular Betti sequence (beta_0, beta_1, ...) to reduced form.

    The only change is degree 0: reduced beta_0 = beta_0 - 1.
    """
    if not betti:
        return []
    out = list(betti)
    out[0] = out[0] - 1
    return out


def kunneth_convolve(reduced_x: list[int], reduced_y: list[int]) -> list[int]:
    """Reduced Betti numbers of a join from those of the factors.

    out[k] = sum over i+j = k-1 of x[i]*y[j]; inputs and output are reduced
    Betti sequences indexed by simplex dimension starting at 0.
    """
    if not reduced_x or not reduced_y:
        return []
    out = [0] * (len(reduced_x) + len(reduced_y))
    for i, xi in enumerate(reduced_x):
        if xi == 0:
            continue
        for j, yj in enumerate(reduced_y):
            out[i + j + 1] += xi * yj
    return out


# ---------------------------------------------------------------------------
# cost model


def dicke_alt_cost(n: int, k: int) -> tuple[int, float]:
    """Ancilla-lean alternative preparation: (Toffoli count, success probability).

    Cost (k+2) n + k (4 ceil(log2 n) - 1) + ceil(log2 k); success probability
    k! C(n,k) / n^k (the birthday-collision factor).
    """
    if k > n:
        raise ValueError("weight k cannot exceed n")
    cost = (k + 2) * n + k * (4 * _ceil_log2(n) - 1) + _ceil_log2(max(k, 1))
    success = math.factorial(k) * math.comb(n, k) / n**k
    return cost, success


def total_toffoli_abs(
    params: ResourceParams, alpha_abs: float, refined_kaiser: bool = False
) -> ResourceEstimate:
    """Total for an absolute accuracy target alpha_abs in the Betti number.

    Substitutes r = alpha_abs / beta (so alpha_abs = r * beta reproduces
    total_toffoli exactly); the budget shares follow r.
    """
    if not alpha_abs > 0:
        raise ValueError("absolute accuracy must be positive")
    return total_toffoli(replace(params, r=alpha_abs / params.betti), refined_kaiser=refined_kaiser)


# ---------------------------------------------------------------------------
# threshold preparation


def failure_prob_by_values(n: int, k: int, c: int) -> Fraction:
    """The tie law of ``dicke.exact_failure_prob`` summed over all f seed values v.

    Each term is f^n P(A <= k-1) - f^n P(A+B <= k) + f^n P(A = k, B = 0) with
    A seeds above v and B at v, accumulated as integers; O(f k) big-integer
    terms, so f up to about 2^16.
    """
    f = seed_modulus(n, c)
    binom = [math.comb(n, a) for a in range(k + 1)]
    total = 0
    for v in range(f):
        above = f - 1 - v
        total += sum(binom[a] * above**a * (v + 1) ** (n - a) for a in range(k))
        total -= sum(binom[a] * (above + 1) ** a * v ** (n - a) for a in range(k + 1))
        total += binom[k] * above**k * v ** (n - k)
    return Fraction(total, f**n)


# ---------------------------------------------------------------------------
# block encoding and filter


def hopping_term(n: int, j: int) -> np.ndarray:
    """Matrix of (Z_0 .. Z_{j-1}) X_j on the 2^n computational basis."""
    dim = 1 << n
    mat = np.zeros((dim, dim))
    low = (1 << j) - 1
    for x in range(dim):
        sign = -1.0 if (x & low).bit_count() & 1 else 1.0
        mat[x ^ (1 << j), x] = sign
    return mat


def full_dirac(n: int) -> np.ndarray:
    """Unrestricted hopping Hamiltonian sum_j (Z-string X_j) on 2^n states."""
    _check_qubits(n)
    out = np.zeros((1 << n, 1 << n))
    for j in range(n):
        out += hopping_term(n, j)
    return out


@lru_cache(maxsize=None)
def dense_encoding(n: int) -> np.ndarray:
    """Dense V = (prep^T x I) SELECT (prep x I): block-diagonal SELECT, Kronecker PREP.

    V does not depend on the graph, only on n; the cache keeps one per n.
    """
    dim = 1 << n
    prep = _uniform_prep(n)
    select = np.zeros((n * dim, n * dim))
    for j in range(n):
        select[j * dim : (j + 1) * dim, j * dim : (j + 1) * dim] = hopping_term(n, j)
    prep_full = np.kron(prep, np.eye(dim))
    v = prep_full.T @ select @ prep_full
    v.flags.writeable = False
    return v


def dense_projector(g: Graph, k: int) -> np.ndarray:
    """Diagonal 0/1 projector onto clique states of weight max(k-1, 1)..k+1, one subset test each."""
    flags = np.zeros(1 << g.n)
    for x in range(1 << g.n):
        if max(k - 1, 1) <= x.bit_count() <= k + 1 and is_clique(g, x):
            flags[x] = 1.0
    return flags


def projected_block(g: Graph, k: int) -> np.ndarray:
    """(<0| x P) V (|0> x P) on the system space: equals P B P / lambda."""
    dim = 1 << g.n
    block = dense_encoding(g.n)[0:dim, 0:dim]
    p = dense_projector(g, k)
    return p[:, None] * block * p[None, :]


def dense_walk(g: Graph, k: int) -> np.ndarray:
    """Dense complex qubiterate W = R V with R = i (2 |0><0| x P - I)."""
    dim = 1 << g.n
    refl = -np.ones(g.n * dim)
    refl[0:dim] += 2.0 * dense_projector(g, k)
    return (1j * refl)[:, None] * dense_encoding(g.n)


def dense_walk_spectrum(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Restricted Dirac eigenvalues and sorted walk phases from the dense V and W.

    W is compressed onto the span of the embedded eigenvectors and their
    images under V; eigenvalues within ``REAL_AXIS_TOL`` of the real axis are
    put on it before their phase is taken.
    """
    dim = 1 << g.n
    v = dense_encoding(g.n)
    cx = build_clique_complex(g, k)
    evals, evecs = np.linalg.eigh(dirac(cx, k).matrix.astype(np.float64))
    states = [x for size in (k - 1, k, k + 1) if size >= 1 for x in cx.basis(size)]
    embedded = np.zeros((g.n * dim, evals.size))
    for col in range(evals.size):
        for amp, state in zip(evecs[:, col], states):
            embedded[state, col] = amp
    u, s, _ = np.linalg.svd(np.hstack([embedded, v @ embedded]), full_matrices=False)
    q = u[:, s > 1e-10]
    z = np.linalg.eigvals(q.T @ (dense_walk(g, k) @ q))
    z = np.where(np.abs(z.imag) <= REAL_AXIS_TOL, z.real, z)
    return evals, np.sort(np.angle(z))


def filter_halfwidth(ell: int, epsilon: float) -> float:
    """Peak half-width: the phi solving beta cos(phi) = 1."""
    beta = math.cosh(math.acosh(1.0 / epsilon) / ell)
    return math.acos(1.0 / beta)


def middle_slice(dop: DiracOperator) -> slice:
    """Rows and columns of the Cl_k block of the Dirac operator."""
    a, b, _ = dop.block_sizes
    return slice(a, a + b)


def dense_filter_amplitude(g: Graph, k: int, ell: int, epsilon: float) -> float:
    """Filtered amplitude from the eigenvectors of the dense Dirac operator.

    sum_mu w(arcsin(E_mu / n))^2 |Pi_k mu|^2 / |Cl_k| over the eigenvectors
    mu of the restricted Dirac operator, Pi_k the projector onto Cl_k.
    """
    cx = build_clique_complex(g, k)
    cl_k = cx.count(k)
    if cl_k == 0:
        raise ValueError(f"graph has no {k}-cliques")
    dop = dirac(cx, k)
    evals, evecs = np.linalg.eigh(dop.matrix.astype(np.float64))
    phi = np.arcsin(np.clip(evals / g.n, -1.0, 1.0))
    responses = chebyshev_filter_response(ell, epsilon, phi)
    middle_weights = (evecs[middle_slice(dop), :] ** 2).sum(axis=0)
    return float((responses**2) @ middle_weights / cl_k)


def dense_dirac_gap(g: Graph, k: int) -> float:
    """Smallest nonzero |eigenvalue| of the dense restricted Dirac operator."""
    dop = dirac(build_clique_complex(g, k), k)
    evals = np.abs(np.linalg.eigvalsh(dop.matrix.astype(np.float64)))
    tol = 1e-8 * max(1.0, float(evals.max(initial=0.0)))
    nonzero = evals[evals > tol]
    if nonzero.size == 0:
        raise ValueError("operator has no nonzero modes")
    return float(nonzero.min())


# ---------------------------------------------------------------------------
# dequantizer


def dense_term(term: OneSparseTerm, dim: int) -> np.ndarray:
    """Reassemble c * H of one one-sparse term as a dense matrix."""
    mat = np.zeros((dim, dim))
    seen_pairs = set()
    for e in range(term.n_eigs):
        u, v = int(term.sup1[e]), int(term.sup2[e])
        if v < 0:
            mat[u, u] += term.lam[e]
        else:
            key = (min(u, v), max(u, v))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            # eigenvalue of the (+) combination carries the entry sign
            entry = term.lam[e] if term.amp2[e] > 0 else -term.lam[e]
            mat[u, v] += entry
            mat[v, u] += entry
    return mat


def loop_matching_terms(mat: np.ndarray) -> list[OneSparseTerm]:
    """The matching terms of ``one_sparse_decompose(mat)``, by the element loops.

    Magnitude classes in ascending order, each greedily edge-coloured over
    numpy bool arrays, and each term's catalog appended state by state.
    """
    dim = mat.shape[0]
    iu, ju = np.nonzero(np.triu(np.abs(mat), k=1) > 1e-12)
    by_mag: dict[float, list[tuple[int, int]]] = {}
    for u, v in sorted(zip(iu.tolist(), ju.tolist())):
        by_mag.setdefault(float(abs(mat[u, v])), []).append((u, v))
    terms = []
    for mag in sorted(by_mag):
        colors: list[list[tuple[int, int, float]]] = []
        used: list[np.ndarray] = []
        for u, v in by_mag[mag]:
            for ci in range(len(colors)):
                if not used[ci][u] and not used[ci][v]:
                    break
            else:
                colors.append([])
                used.append(np.zeros(dim, dtype=bool))
                ci = len(colors) - 1
            colors[ci].append((u, v, math.copysign(1.0, mat[u, v])))
            used[ci][u] = used[ci][v] = True
        for pairs in colors:
            inv_sqrt2 = 1.0 / math.sqrt(2.0)
            lam, sup1, sup2, amp1, amp2, partner = [], [], [], [], [], []
            covered = np.zeros(dim, dtype=bool)
            for u, v, sgn in pairs:
                base = len(lam)
                for sign in (+1.0, -1.0):
                    lam.append(sign * sgn * mag)
                    sup1.append(u)
                    sup2.append(v)
                    amp1.append(inv_sqrt2)
                    amp2.append(sign * inv_sqrt2)
                partner.extend([base + 1, base])
                covered[u] = covered[v] = True
            for x in np.nonzero(~covered)[0]:
                lam.append(0.0)
                sup1.append(int(x))
                sup2.append(-1)
                amp1.append(1.0)
                amp2.append(0.0)
                partner.append(-1)
            terms.append(OneSparseTerm(
                mag, "matching", np.array(lam), np.array(sup1, dtype=np.int64), np.array(sup2, dtype=np.int64),
                np.array(amp1), np.array(amp2), np.array(partner, dtype=np.int64),
            ))
    return terms


def coloring_bound(mat: np.ndarray, ghost: float | None = None) -> int:
    """Largest term count D that ``one_sparse_decompose(mat, ghost)`` may return, from the matrix alone.

    One reflection per distinct nonzero diagonal value (the ghost value
    included), one identity term, and per off-diagonal magnitude class at
    most 2 Delta - 1 matchings, Delta that class's largest degree: greedy
    coloring gives an edge a color its two ends do not yet hold.
    """
    dim = mat.shape[0]
    distinct = {float(mat[i, i]) for i in range(dim) if mat[i, i] != 0.0} | ({float(ghost)} if ghost else set())
    degree: dict[float, list[int]] = {}
    for u in range(dim):
        for v in range(u + 1, dim):
            if abs(mat[u, v]) > 1e-12:
                counts = degree.setdefault(float(abs(mat[u, v])), [0] * dim)
                counts[u] += 1
                counts[v] += 1
    return len(distinct) + 1 + sum(2 * max(counts) - 1 for counts in degree.values())


def dense_decomposition(decomp: OneSparseDecomposition) -> np.ndarray:
    """Sum of the dense matrices of all terms of a decomposition."""
    out = np.zeros((decomp.dim, decomp.dim))
    for t in decomp.terms:
        out += dense_term(t, decomp.dim)
    return out


def trotterized_matrix(decomp: OneSparseDecomposition, t: float, r_t: int) -> np.ndarray:
    """Dense product of the scheduled term exponentials times the scalar shift."""
    schedule, shift = build_schedule(decomp, r_t)
    dim = decomp.dim
    tau = t / (2.0 * r_t)
    cache: dict[int, np.ndarray] = {}

    def term_exp(idx: int) -> np.ndarray:
        if idx not in cache:
            term = decomp.terms[idx]
            if term.kind in ("reflection", "identity"):
                cache[idx] = np.diag(np.exp(-tau * term.lam))
            else:
                mat = np.eye(dim)
                ch, sh = math.cosh(term.coeff * tau), math.sinh(term.coeff * tau)
                seen = set()
                for e in range(term.n_eigs):
                    u, v = int(term.sup1[e]), int(term.sup2[e])
                    if v < 0 or (u, v) in seen:
                        continue
                    seen.add((u, v))
                    sgn = math.copysign(1.0, term.lam[e] * term.amp2[e])
                    mat[u, u] = mat[v, v] = ch
                    mat[u, v] = mat[v, u] = -sgn * sh
                cache[idx] = mat
        return cache[idx]

    out = np.eye(dim)
    for idx in schedule:
        out = term_exp(idx) @ out
    return math.exp(-shift * t) * out


@dataclass(frozen=True)
class AmbientBasis:
    """Every bit string of weight k-1, k, k+1 (never the empty set), ascending, with clique annotations."""

    states: np.ndarray  # uint64
    clique_flags: np.ndarray  # bool per state
    weight_k_clique_indices: np.ndarray  # indices into states
    dirac_indices: np.ndarray  # index into states of each row of dirac(cx, k)

    @property
    def dim(self) -> int:
        return int(self.states.size)


def ambient_basis(g: Graph, k: int) -> AmbientBasis:
    """The weight window, enumerated over all 2^n bit strings and annotated from the clique complex."""
    weight = np.bitwise_count(np.arange(1 << g.n))
    states = np.flatnonzero((max(k - 1, 1) <= weight) & (weight <= k + 1)).astype(np.uint64)
    rows = np.searchsorted(states, dirac_basis(build_clique_complex(g, k), k))
    flags = np.zeros(states.size, dtype=bool)
    flags[rows] = True
    wk = np.flatnonzero(flags & (weight[states] == k))
    return AmbientBasis(states, flags, wk, rows)


def ambient_operator(g: Graph, k: int, pen: float | None = None) -> PenalizedOperator:
    """B_G^2 + gamma_pen (1 - P) as a dense matrix on the whole weight window.

    The penalty is the clique-basis operator's unless ``pen`` is given; the
    gammas are the clique-basis operator's.  Decomposed by
    ``one_sparse_decompose`` with no ghost value, the window's non-clique
    states carry the penalty themselves.
    """
    op = penalized_operator(g, k)
    basis = ambient_basis(g, k)
    pen = op.gamma_pen if pen is None else pen
    b = dirac(build_clique_complex(g, k), k).matrix.astype(np.float64)
    h = np.zeros((basis.dim, basis.dim))
    h[np.ix_(basis.dirac_indices, basis.dirac_indices)] = b @ b
    ghosts = np.flatnonzero(~basis.clique_flags)
    h[ghosts, ghosts] = pen
    return replace(op, basis=basis, matrix=h, gamma_pen=pen, ghost=None)


def restrict_to_cliques(decomp: OneSparseDecomposition, clique_flags: np.ndarray) -> list[OneSparseTerm]:
    """Each term of an ambient decomposition with its non-clique eigenvectors dropped.

    Kept eigenvectors keep their order, and basis states and partners are
    renumbered onto the kept ones.
    """
    new_state = np.cumsum(clique_flags) - 1
    out = []
    for term in decomp.terms:
        keep = clique_flags[term.sup1]
        new_eig = np.cumsum(keep) - 1
        sup2 = term.sup2[keep]
        partner = term.partner[keep]
        out.append(OneSparseTerm(
            term.coeff, term.kind, term.lam[keep], new_state[term.sup1[keep]],
            np.where(sup2 >= 0, new_state[sup2], -1), term.amp1[keep], term.amp2[keep],
            np.where(partner >= 0, new_eig[partner], -1),
        ))
    return out


def ambient_gammas(g: Graph, k: int) -> dict[str, float]:
    """The operator's numbers from dense eigensolves of the whole ambient window.

    B_G^2 is placed at its clique states with zeros elsewhere; ``gamma_min``
    is its smallest eigenvalue above the zero tolerance (0.0 if none),
    ``top`` its largest, ``gamma_pen`` the gap or 1, and ``gamma_max`` the
    top of B_G^2 + gamma_pen (1 - P).
    """
    basis = ambient_basis(g, k)
    b = dirac(build_clique_complex(g, k), k).matrix
    h = np.zeros((basis.dim, basis.dim))
    h[np.ix_(basis.dirac_indices, basis.dirac_indices)] = b @ b
    evals = np.linalg.eigvalsh(h)
    top = float(evals.max(initial=0.0))
    nonzero = evals[evals > ZERO_TOL * max(1.0, top)]
    gamma_min = float(nonzero.min()) if nonzero.size else 0.0
    pen = gamma_min if nonzero.size else 1.0
    gamma_max = float(np.linalg.eigvalsh(h + pen * np.diag(1.0 - basis.clique_flags)).max(initial=0.0))
    return {"gamma_min": gamma_min, "top": top, "gamma_pen": pen, "gamma_max": gamma_max}


def larger_penalty(g: Graph, k: int) -> PenalizedOperator:
    """The ambient operator with the top of B_G^2 as its penalty."""
    return ambient_operator(g, k, ambient_gammas(g, k)["top"])


def kernel_dim_weight_k(op: PenalizedOperator) -> int:
    """Nullity of the operator restricted to the weight-k clique block."""
    idx = op.basis.weight_k_clique_indices
    evals = np.linalg.eigvalsh(op.matrix[np.ix_(idx, idx)])
    tol = ZERO_TOL * max(1.0, float(evals.max(initial=0.0)))
    return int(np.count_nonzero(np.abs(evals) < tol))


def trotter_slices(
    t: float,
    eps_t: float,
    term_norm_sum: float,
    commutator_bound: float | None = None,
    n_terms: int | None = None,
    gamma_max: float | None = None,
) -> int:
    """Slice count r = ceil(t * max(sqrt(4 e t alpha / eps_t), 4/ln2 sum||H||)).

    ``commutator_bound`` is alpha; when omitted it is bounded by the
    fixed-point closure of alpha <= 8 r D gamma_max^3, which resolves to
    r = 32 e t^3 D gamma_max^3 / eps_t on the dominant branch.
    """
    if eps_t <= 0:
        raise ValueError("Trotter budget must be positive")
    if t == 0:
        return 0
    if t < 0:
        raise ValueError("imaginary time must be nonnegative")
    norm_branch = t * 4.0 / LN2 * term_norm_sum
    if commutator_bound is not None:
        alpha_branch = t * math.sqrt(4.0 * math.e * t * commutator_bound / eps_t)
    else:
        if n_terms is None or gamma_max is None:
            raise ValueError("need n_terms and gamma_max to bound the commutator term")
        alpha_branch = 32.0 * math.e * t**3 * n_terms * gamma_max**3 / eps_t
    return math.ceil(max(alpha_branch, norm_branch))


# ---------------------------------------------------------------------------
# path sampler


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


def column_nonzeros(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and values of each column's nonzeros, padded to one width.

    Row ``e`` of both arrays lists the nonzero rows of ``table[:, e]`` in
    ascending order, as ``np.flatnonzero`` does; padding slots hold row 0
    and value 0.0.  An eigenvector touches at most two basis states, and
    each state lies in one block of at most two eigenvectors, so the width
    is at most 4.
    """
    cols, rows = np.nonzero(table.T)
    counts = np.bincount(cols, minlength=table.shape[1])
    width = int(counts.max(initial=0))
    assert width <= 4, f"overlap column with {width} nonzeros"
    slot = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts, counts)
    index = np.zeros((table.shape[1], width), dtype=np.int64)
    value = np.zeros((table.shape[1], width))
    index[cols, slot] = rows
    value[cols, slot] = table[rows, cols]
    return index, value


def dense_links(space: PathSpace) -> list[np.ndarray]:
    """Dense overlap table of every link, each built in its own direction.

    ``links[i][f, e]`` is the overlap of eigenvector e at position i with
    eigenvector f at position i + 1; the last link closes onto position 0.
    """
    n = space.length - 1
    return [overlap_table(space.terms[space.schedule[i]], space.terms[space.schedule[(i + 1) % n]])
            for i in range(n)]


def dense_path_overlaps(links: list[np.ndarray], eig) -> tuple[float, float, bool]:
    """(sign, log2 magnitude, valid) of the overlap product, read from the dense tables."""
    sign = 1.0
    log2 = 0.0
    n = len(links)
    for i in range(n):
        val = float(links[i][eig[(i + 1) % n], eig[i]])
        if val == 0.0:
            return 0.0, -math.inf, False
        if val < 0.0:
            sign = -sign
            val = -val
        log2 += math.log2(val)
    return sign, log2, True


def dense_path_signs(links: list[np.ndarray], eig: np.ndarray) -> np.ndarray:
    """Sign of the overlap product of each row of a (paths, L-1) array; 0 if invalid."""
    n = len(links)
    sign = np.ones(eig.shape[0])
    for i in range(n):
        sign *= np.sign(links[i][eig[:, (i + 1) % n], eig[:, i]])
    return sign


def dense_closing_rows(space: PathSpace, links: list[np.ndarray]) -> np.ndarray:
    """The closing link's anchor rows, transposed: [e, a] is the overlap of e with anchor a."""
    return np.ascontiguousarray(links[-1].T)


def dense_log_partition(space: PathSpace, links: list[np.ndarray], anchors=None) -> float:
    """Log Z of the pattern measure over ``anchors`` (every basis state by default), by dense products.

    Each link contributes the product with its nonzero pattern.
    """
    beta = space.t / space.r_t
    sched = space.schedule
    first = space.terms[sched[0]]
    anchors = np.arange(space.decomp.dim) if anchors is None else np.asarray(anchors)
    vec = np.zeros((first.n_eigs, anchors.size))
    vec[anchors, np.arange(anchors.size)] = 1.0
    w1 = np.exp(-2.0 * beta * first.lam[anchors])
    log_scale = 0.0
    for i in range(1, space.length - 1):
        damp = np.exp(-beta * space.terms[sched[i]].lam)
        vec = damp[:, None] * (np.ascontiguousarray(links[i - 1] != 0.0) @ vec)
        peak = vec.max(initial=0.0)
        if peak <= 0.0:
            return -math.inf
        vec /= peak
        log_scale += math.log(peak)
    close = np.ascontiguousarray(links[-1] != 0.0)
    total = 0.0
    for col, a in enumerate(anchors.tolist()):
        total += w1[col] * float(close[a, :] @ vec[:, col])
    if total <= 0.0:
        return -math.inf
    return math.log(total) + log_scale


def dense_backward_pass(space: PathSpace, links: list[np.ndarray], kind: str) -> tuple[list, np.ndarray, np.ndarray]:
    """``PathSpace.backward_pass`` from the dense tables: (kept messages, start, log scale).

    Each row's message adds the weighted messages of its link's nonzero
    columns in ascending order, as the sparse pass adds its candidates, so
    the two agree bit for bit.  The signed pass keeps no messages.
    """
    weigh = {PATTERN: lambda v: (v != 0.0).astype(float), MAGNITUDE: np.abs, SIGNED: lambda v: v}[kind]
    beta = space.t / space.r_t
    rate = beta if kind == PATTERN else 0.5 * beta
    sched, last = space.schedule, space.length - 2
    m = weigh(dense_closing_rows(space, links))
    log_scale = np.zeros(m.shape[1])
    weighted: list = [None] * (last + 1)
    for i in range(last, 0, -1):
        damped = np.exp(-rate * space.terms[sched[i]].lam)[:, None] * m
        if kind != SIGNED:
            weighted[i] = damped
        coef = weigh(links[i - 1])
        e, f = np.nonzero(links[i - 1].T)  # per row e of the new message, its nonzero columns f ascending
        rank = np.arange(e.size) - np.searchsorted(e, e)
        m = np.zeros((links[i - 1].shape[1], m.shape[1]))
        for r in range(int(rank.max(initial=-1)) + 1):
            at = rank == r
            m[e[at]] += coef[f[at], e[at]][:, None] * damped[f[at]]
        peak = np.abs(m).max(axis=0)
        scale = np.where(peak > 0, peak, 1.0)
        m /= scale
        log_scale += np.log(scale)
    start = np.exp(-2.0 * rate * space.terms[sched[0]].lam) * m.diagonal()
    return weighted, start, log_scale


def enumerate_paths(space: PathSpace, max_paths: int = 1 << 14) -> list[PathSample]:
    """All valid anchored closed paths, from the dense tables (raises if more than max_paths)."""
    links = dense_links(space)
    n = space.length - 1
    out: list[PathSample] = []
    eig: list[int] = [0] * n

    def rec(pos: int) -> None:
        if len(out) > max_paths:
            raise RuntimeError(f"more than {max_paths} paths; not a toy instance")
        if pos == n:
            if links[n - 1][eig[0], eig[n - 1]] != 0.0:
                sign, log2, valid = dense_path_overlaps(links, eig)
                out.append(PathSample(tuple(eig), eig[0], space.path_energy(eig), sign, log2, valid))
            return
        for f in np.flatnonzero(links[pos - 1][:, eig[pos - 1]]):
            eig[pos] = int(f)
            rec(pos + 1)

    for a in range(space.decomp.dim):
        eig[0] = a
        rec(1)
    return out


def exhaustive_check(op: PenalizedOperator, t: float, r_t: int, max_paths: int = 1 << 14) -> dict:
    """Exact path-sum identities on a toy instance (exponentially many paths).

    ``op.matrix`` is decomposed with no ghost value, on its weight-k sector
    for the paths and whole for the dense Trotterized product.  Returns the
    exhaustive partition function, the path-sum estimate of the restricted
    trace, and the matrix-product value it must equal.
    """
    anchors = op.basis.weight_k_clique_indices
    decomp = one_sparse_decompose(op.matrix)
    space = PathSpace(one_sparse_decompose(op.matrix, states=anchors), t, r_t)
    paths = enumerate_paths(space, max_paths=max_paths)
    beta = t / r_t
    z = 0.0
    trace_pathsum = 0.0
    for p in paths:
        z += math.exp(-beta * p.energy)
        trace_pathsum += p.weight * math.exp(-0.5 * beta * p.energy)
    trace_pathsum *= math.exp(-space.scalar_shift * t)
    mat = trotterized_matrix(decomp, t, r_t)
    trace_matrix = float(np.trace(mat[np.ix_(anchors, anchors)]))
    return {
        "n_paths": len(paths),
        "log_partition_exhaustive": math.log(z) if z > 0 else -math.inf,
        "log_partition_transfer": space.log_partition(),
        "trace_pathsum": trace_pathsum,
        "trace_matrix": trace_matrix,
        "expectation_pathsum": trace_pathsum / op.d_k,
        "expectation_matrix": trace_matrix / op.d_k,
    }


def analytic_variance_log2_bound(
    decomp: OneSparseDecomposition, t: float, r_t: int, d_k: int, d_sched: int
) -> float:
    """log2 of the worst-case variance bound 2^(2rD) e^(2 D t c_max) / d_k."""
    c_max = max((term.coeff for term in decomp.terms), default=0.0)
    return 2.0 * r_t * d_sched + 2.0 * d_sched * t * c_max / LN2 - math.log2(d_k)


def variance_report(g: Graph, k: int, cfg: PIMCConfig, result: DequantResult | None = None) -> dict:
    """Empirical sample variance against the analytic worst-case bound.

    The bound is astronomically loose by construction, so both sides are
    reported as log2 values; the Markov gap itself is never computed, the
    integrated autocorrelation time stands in as its reciprocal proxy.
    """
    if result is None:
        result = estimate_normalized_betti(g, k, cfg)
    emp_var = result.stderr**2 * result.n_samples
    op = penalized_operator(g, k)
    bound_log2 = analytic_variance_log2_bound(
        one_sparse_decompose(op.matrix, op.ghost),
        cfg.t,
        result.r_t,
        result.d_k,
        result.D_scheduled,
    )
    emp_log2 = math.log2(emp_var) if emp_var > 0 else -math.inf
    return {
        "empirical_variance_log2": emp_log2,
        "analytic_bound_log2": bound_log2,
        "slack_log2": bound_log2 - emp_log2,
        "autocorr_time": result.autocorr_time,
        "acceptance_rate": result.acceptance_rate,
        "estimate": result.estimate,
        "stderr": result.stderr,
    }


def stationary_log_prob(path: PathSample, t: float, r_t: int) -> float:
    """Log of the unnormalized pattern-measure path weight; -inf for invalid paths."""
    if not path.valid:
        return -math.inf
    return -(t / r_t) * path.energy


def mh_chain(decomp, t: float, r_t: int, steps: int, seed: int) -> list[PathSample]:
    """Run a Metropolis chain anchored on every basis state; one PathSample snapshot per step."""
    space = PathSpace(decomp, t, r_t)
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
    links = dense_links(space)
    weighted = exact.messages(PATTERN)[0]
    col = int(exact.draw_anchor_columns(rng, 1)[0])
    eig = [col] + [0] * (space.length - 2)
    for i in range(1, space.length - 1):
        cands = np.flatnonzero(links[i - 1][:, eig[i - 1]])
        weights = weighted[i][cands, col]
        total = float(sum(weights))
        if total <= 0.0:
            raise RuntimeError("dead end during exact sampling (inconsistent messages)")
        eig[i] = int(cands[rng.choice(len(cands), p=weights / total)])
    return eig



def scalar_clique_draw(g: Graph, k: int, rng: np.random.Generator, count: int) -> tuple[list[int], int, int]:
    """``count`` uniform k-cliques drawn row by row on the uniforms of ``make_clique_sampler``.

    Each row of g.n uniforms names the k vertices of its k smallest entries;
    a subset that ``is_clique`` accepts is kept as its position among the
    ``brute_force_cliques`` masks.  Blocks are sized from the acceptance
    rate as the batched sampler sizes them, and every row of a block is
    drawn.  Returns the positions, the rows drawn and the cliques found.
    """
    position = {mask: i for i, mask in enumerate(brute_force_cliques(g, k))}
    accept_rate = len(position) / math.comb(g.n, k)
    out: list[int] = []
    draws = accepts = 0
    while len(out) < count:
        block = math.ceil(1.25 * (count - len(out)) / accept_rate) + 16
        draws += block
        for _ in range(block):
            mask = sum(1 << int(v) for v in np.argsort(rng.random(g.n))[:k])
            if is_clique(g, mask):
                accepts += 1
                if len(out) < count:
                    out.append(position[mask])
    return out, draws, accepts


def per_chain_exact_estimate(g: Graph, k: int, cfg: PIMCConfig) -> DequantResult:
    """The exact estimator with one batch per chain, in chain order.

    Each chain draws its anchors from its own generator, then its paths
    position by position, one ``rng.random(per_chain)`` per position, with
    the batched search of ``ExactPathSampler.draw``.  ``estimate_normalized_betti``
    draws every chain's paths in one call and must match this bit for bit.
    """
    op = penalized_operator(g, k)
    anchors = op.basis.weight_k_clique_indices
    space = PathSpace(one_sparse_decompose(op.matrix, op.ghost, anchors), cfg.t, cfg.r_t)
    draw, counters = make_clique_sampler(g, k, op.basis)
    exact = ExactPathSampler(space, clique_sampler=draw)
    log_z = exact.log_z(MAGNITUDE)
    if not np.isfinite(log_z).any():
        raise RuntimeError(NO_CLOSED_PATH)
    anchor_values = np.exp(math.log(anchors.size) - math.log(op.d_k) - space.scalar_shift * cfg.t + log_z)
    exact_mean = space.restricted_trace() / op.d_k
    weighted, _, coefs = exact.messages(MAGNITUDE)
    per_chain = -(-cfg.n_samp // cfg.chains)
    rows = np.arange(per_chain)
    chunks = []
    for chain in range(cfg.chains):
        rng = np.random.default_rng((cfg.seed, chain))
        cols = exact.draw_anchor_columns(rng, per_chain)
        first = prev = cols
        negative = np.zeros(per_chain, dtype=bool)
        for i in range(1, space.length - 1):
            index, value = space.columns[i - 1]
            cands = index[prev]
            weights = coefs[i - 1][prev] * weighted[i][cands, cols[:, None]]
            total = weights[:, 0].copy()
            for j in range(1, weights.shape[1]):
                total += weights[:, j]
            if not np.all(total > 0.0):
                raise RuntimeError("dead end during exact sampling (inconsistent messages)")
            cdf = np.cumsum(weights / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
            pick = np.count_nonzero(cdf <= rng.random(per_chain)[:, None], axis=1)
            negative ^= value[prev, pick] < 0.0
            prev = cands[rows, pick]
        index, value = space.columns[space.length - 2]
        closing = np.where(index[prev] == first[:, None], value[prev], 0.0).sum(axis=1)
        chunks.append(np.where(negative ^ (closing < 0.0), -1.0, 1.0) * anchor_values[cols])
    arr = np.concatenate(chunks)
    estimate, stderr = float(arr.mean()), _batch_stderr(arr)
    return DequantResult(
        estimate=estimate,
        stderr=stderr,
        n_samples=arr.size,
        acceptance_rate=1.0,
        clique_acceptance=counters["accepts"] / max(counters["draws"], 1),
        autocorr_time=integrated_autocorr_time(arr),
        D=space.decomp.D,
        D_scheduled=len(space.schedule) // (2 * cfg.r_t),
        r_t=cfg.r_t,
        t=cfg.t,
        d_k=op.d_k,
        diagnostics={
            "gamma_min": op.gamma_min,
            "gamma_pen": op.gamma_pen,
            "gamma_max": op.gamma_max,
            "scalar_shift": space.scalar_shift,
            "clique_draws": counters["draws"],
            "samples_mean_abs": float(np.abs(arr).mean()),
            "samples_max_abs": float(np.abs(arr).max()),
            "exact_trotter_mean": exact_mean,
            "average_sign": min(1.0, max(-1.0, exact_mean / float(anchor_values.mean()))),
            "z_score": (estimate - exact_mean) / stderr if stderr > 0 else None,
        },
    )


# ---------------------------------------------------------------------------
# Kaiser window


def asymptotic_tail_bound(alpha: float) -> float:
    """Analytic large-alpha tail estimate 8 ln(2a) sqrt(a) exp(-2 pi a)."""
    return 8.0 * math.log(2.0 * alpha) * math.sqrt(alpha) * math.exp(-2.0 * math.pi * alpha)


def bisection_alpha(delta: float) -> float:
    """Smallest alpha with tail <= delta by 60 evaluating halvings of [0.05, ALPHA_HI].

    The solve that ``solve_alpha_quadrature`` replays without quadratures,
    message included.
    """
    lo, hi = 0.05, ALPHA_HI
    if tail_fraction(lo) <= delta:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail_fraction(mid) <= delta:
            hi = mid
        else:
            lo = mid
    if hi == ALPHA_HI:
        tail = tail_fraction(hi)
        if tail > delta:
            raise ValueError(
                f"failure probability {delta:g} too small: the Kaiser tail at the largest"
                f" window shape alpha = {ALPHA_HI:g} is {tail:.3g}"
            )
    return hi


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
