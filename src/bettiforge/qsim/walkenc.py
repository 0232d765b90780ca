"""Matrix-free block encoding of the restricted Dirac operator and its walk.

The encoded Hamiltonian is the hopping sum B = sum_j S_j over n sites, with
S_j = (Z on all sites below j) x (X on site j) on the 2^n states.  An
n-dimensional ancilla prepared in the uniform superposition selects the
term, so the ancilla-0 block of V = (prep^T x I) SELECT (prep x I) is B/n
and lambda = n.  V is only ever applied: prep over the ancilla axis, each
S_j as a signed permutation of the states, then prep^T.  The projector P is
the basis of ``homology.dirac``, so the projected block is the restricted
Dirac operator over n.  The walk W = R V with R = i(2|0><0| x P - I) turns
each restricted eigenvalue E into walk eigenvalues +-exp(+-i arcsin(E/lambda))
on the plane spanned by |0,k> and V|0,k>; distinct eigenvectors give orthogonal planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeskScaleError
from ..graphs import Graph, build_clique_complex
from ..homology import check_weight, dirac, dirac_basis

MAX_SIM_QUBITS = 12

# a walk eigenvalue within this distance of the real axis is taken as real,
# so that -1 always reports the phase +pi
REAL_AXIS_TOL = 1e-12

WALK_BATCH_ENTRIES = 1 << 20  # embedded entries per batch of walk eigenvectors: 8 MB


def _check_qubits(n: int) -> None:
    if n > MAX_SIM_QUBITS:
        raise DeskScaleError(f"simulator supports n <= {MAX_SIM_QUBITS} qubits, got {n}")


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
    """LCU unitary V on ancilla x system, rows indexed ancilla * 2^n + state."""

    n: int
    k: int
    lam: float  # normalization, equal to n
    states: np.ndarray  # the projector P: the restricted Dirac basis, in dirac() order
    prep: np.ndarray  # n x n orthogonal, column 0 the uniform vector

    @property
    def system_dim(self) -> int:
        return 1 << self.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        """V @ x for x of shape (n * 2^n, m)."""
        n, dim = self.n, self.system_dim
        y = (self.prep @ x.reshape(n, -1)).reshape(n, dim, -1)
        sites = np.arange(dim)
        for j in range(n):
            # S_j maps state s to s ^ 2^j with sign (-1)^(ones of s below j);
            # the count is uint8, so take it to float before 1 - 2 * parity
            parity = (np.bitwise_count(sites & ((1 << j) - 1)) & 1).astype(np.float64)
            y[j] = (1.0 - 2.0 * parity)[:, None] * y[j][sites ^ (1 << j)]
        return (self.prep.T @ y.reshape(n, -1)).reshape(x.shape)

    def embed(self, vectors: np.ndarray) -> np.ndarray:
        """Columns over the restricted Dirac basis, placed in the |0> x P block."""
        full = np.zeros((self.n * self.system_dim, vectors.shape[1]), dtype=vectors.dtype)
        full[self.states] = vectors
        return full

    def reflection(self) -> np.ndarray:
        """Diagonal of 2 |0><0| x P - I; the walk operator is W = i R V."""
        refl = -np.ones(self.n * self.system_dim)
        refl[self.states] = 1.0
        return refl


def build_block_encoding(g: Graph, k: int) -> BlockEncoding:
    """Matrix-free LCU unitary whose projected ancilla-0 block is B_G / n."""
    _check_qubits(g.n)
    if g.n < 1:
        raise ValueError("need at least one vertex")
    check_weight(k)
    return BlockEncoding(g.n, k, float(g.n), dirac_basis(build_clique_complex(g, k), k), _uniform_prep(g.n))


@dataclass(frozen=True)
class WalkSpectrum:
    hamiltonian_eigs: np.ndarray  # eigenvalues E_k of the restricted operator
    walk_eigenphases: np.ndarray  # sorted phases in (-pi, pi] on the walk-invariant subspace
    lam: float


def walk_spectrum(g: Graph, k: int) -> WalkSpectrum:
    """Eigenphases of W on the invariant subspace spanned by |0,k>, V|0,k>."""
    enc = build_block_encoding(g, k)
    cx = build_clique_complex(g, k)
    if cx.count(k) == 0:
        raise ValueError(f"graph has no {k}-cliques")
    evals, evecs = np.linalg.eigh(dirac(cx, k).matrix.astype(np.float64))
    step = max(1, WALK_BATCH_ENTRIES // (enc.n * enc.system_dim))
    blocks = [_plane_blocks(enc, evecs[:, i : i + step]) for i in range(0, evals.size, step)]
    z = np.linalg.eigvals(np.concatenate(blocks)).ravel()
    phases = np.angle(np.where(np.abs(z.imag) <= REAL_AXIS_TOL, z.real, z))
    return WalkSpectrum(evals, np.sort(phases), enc.lam)


def _plane_blocks(enc: BlockEncoding, vectors: np.ndarray) -> np.ndarray:
    """W = i R V compressed onto span{|0,v>, V|0,v>}: one 2 x 2 block per column v.

    |E| / lambda <= 1 / sqrt(n) (B^2 = n) and E = 0 at n = 1, so V|0,v> never
    lies along |0,v>.  V is a real symmetric involution, so with a = |0,v>
    and b = (Va - c a) / s, Vb = (a - c Va) / s: V is applied once.
    """
    refl = enc.reflection()[:, None]
    a = enc.embed(vectors)
    va = enc.apply(a)
    c = np.einsum("rm,rm->m", a, va)
    b = va - c * a
    s = np.linalg.norm(b, axis=0)
    b /= s
    rva, ra = np.multiply(va, refl, out=va), refl * a
    dots = [[np.einsum("rm,rm->m", x, y) for y in (rva, ra)] for x in (a, b)]
    return 1j * np.moveaxis(np.array([[xv, (xa - c * xv) / s] for xv, xa in dots]), -1, 0)
