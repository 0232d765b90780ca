"""Explicit block encoding of the restricted Dirac operator and its walk.

The encoded Hamiltonian is the hopping sum over n sites, B = sum_j S_j with
S_j = (Z on all sites below j) x (X on site j), acting on the full 2^n space.
An n-dimensional ancilla prepared in the uniform superposition selects the
term, so the top-left ancilla block of V = (prep^T x I) SELECT (prep x I) is
B/n, and the normalization is lambda = n.  Projecting the system onto clique
states of Hamming weight k-1, k, k+1 turns that block into the restricted
Dirac operator over n.

The walk operator W = R V with R = i(2|0><0| x P - I) puts the projector in
the reflection; each restricted eigenvalue E yields walk eigenvalues
+-exp(+-i arcsin(E/lambda)) on a two-dimensional invariant plane spanned by
|0,k> and V|0,k>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeskScaleError
from ..graphs import Graph, build_clique_complex, is_clique
from ..homology import dirac

MAX_SIM_QUBITS = 8


def _check_qubits(n: int) -> None:
    if n > MAX_SIM_QUBITS:
        raise DeskScaleError(f"simulator supports n <= {MAX_SIM_QUBITS} qubits, got {n}")


def hopping_term(n: int, j: int) -> np.ndarray:
    """Matrix of (Z_0 .. Z_{j-1}) X_j on the 2^n computational basis."""
    dim = 1 << n
    mat = np.zeros((dim, dim))
    low = (1 << j) - 1
    for x in range(dim):
        sign = -1.0 if (x & low).bit_count() & 1 else 1.0
        mat[x ^ (1 << j), x] = sign
    return mat


def clique_weight_projector(g: Graph, k: int) -> np.ndarray:
    """Diagonal 0/1 projector onto clique states of weight k-1, k, k+1."""
    flags = np.zeros(1 << g.n)
    for x in range(1 << g.n):
        w = x.bit_count()
        if k - 1 <= w <= k + 1 and is_clique(g, x):
            flags[x] = 1.0
    return flags


def _uniform_prep(n: int) -> np.ndarray:
    """Real orthogonal matrix sending basis state 0 to the uniform vector.

    A Householder reflection: deterministic and symmetric.
    """
    u = np.full(n, 1.0 / np.sqrt(n))
    v = u.copy()
    v[0] -= 1.0
    norm2 = v @ v
    if norm2 < 1e-30:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(v, v) / norm2


@dataclass(frozen=True)
class BlockEncoding:
    n: int
    k: int
    lam: float  # normalization, equal to n
    ancilla_dim: int
    matrix: np.ndarray  # real symmetric unitary, (n * 2^n) square
    projector: np.ndarray  # diagonal of P on the system

    @property
    def system_dim(self) -> int:
        return 1 << self.n


def build_block_encoding(g: Graph, k: int) -> BlockEncoding:
    """Explicit LCU unitary whose projected ancilla-0 block is B_G / n."""
    n = g.n
    _check_qubits(n)
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 1:
        raise ValueError(f"clique size k must be >= 1, got {k}")
    dim = 1 << n
    prep = _uniform_prep(n)
    select = np.zeros((n * dim, n * dim))
    for j in range(n):
        select[j * dim : (j + 1) * dim, j * dim : (j + 1) * dim] = hopping_term(n, j)
    prep_full = np.kron(prep, np.eye(dim))
    v = prep_full.T @ select @ prep_full
    return BlockEncoding(n, k, float(n), n, v, clique_weight_projector(g, k))


def build_walk(enc: BlockEncoding) -> np.ndarray:
    """Qubiterate W = R V with R = i (2 |0><0| x P - I)."""
    dim = enc.system_dim
    refl = -np.ones(enc.ancilla_dim * dim)
    refl[0:dim] += 2.0 * enc.projector
    return (1j * refl)[:, None] * enc.matrix


def embed_restricted_eigenvectors(g: Graph, k: int, enc: BlockEncoding):
    """Eigen-decompose the restricted Dirac operator and embed into |0> x 2^n."""
    cx = build_clique_complex(g, k)
    dop = dirac(cx, k)
    evals, evecs = np.linalg.eigh(dop.matrix.astype(np.float64))
    basis_states: list[int] = []
    for size in (k - 1, k, k + 1):
        if size >= 1:
            basis_states.extend(cx.basis(size))
    full = np.zeros((enc.ancilla_dim * enc.system_dim, evals.size))
    for col in range(evals.size):
        for amp, state in zip(evecs[:, col], basis_states):
            full[state, col] = amp
    return evals, full


@dataclass(frozen=True)
class WalkSpectrum:
    hamiltonian_eigs: np.ndarray  # eigenvalues E_k of the restricted operator
    walk_eigenphases: np.ndarray  # sorted phases on the walk-invariant subspace
    lam: float


def walk_spectrum(g: Graph, k: int) -> WalkSpectrum:
    """Eigenphases of W on the invariant subspace spanned by |0,k>, V|0,k>."""
    enc = build_block_encoding(g, k)
    walk = build_walk(enc)
    evals, embedded = embed_restricted_eigenvectors(g, k, enc)
    cols = np.hstack([embedded, enc.matrix @ embedded])
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    q = u[:, s > 1e-10]
    w_sub = q.T @ walk @ q
    phases = np.angle(np.linalg.eigvals(w_sub))
    return WalkSpectrum(evals, np.sort(phases), enc.lam)
