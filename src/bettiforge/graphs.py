"""Graph and point-cloud inputs: deterministic generators plus clique machinery.

Vertices are labeled 0..n-1 and vertex subsets are encoded as Python int bit
masks (bit v set <=> vertex v in the subset).  Everything here is pure: the
random generator takes an explicit seed and uses NumPy's PCG64 stream, so
Erdos-Renyi graphs are bit-reproducible across platforms.

A graph keeps its clique complexes (``build_clique_complex``), and a complex
builds each of its boundary maps' face tables and coboundaries once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DeskScaleError
from .exactrank import Coboundary, coboundary

# Bit-mask encodings cap the exact/simulation paths; the resource estimator
# works from plain counts and has no such limit.
MAX_VERTICES = 64
MAX_CLIQUES = 1 << 20  # cliques of one size that enumerate_cliques lists before it refuses


def _check_vertices(n: int) -> None:
    """Refuse a vertex count past the cap before anything of size n^2 is built."""
    if n > MAX_VERTICES:
        raise DeskScaleError(f"graph has n={n} vertices; bit-mask paths support at most {MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    ``edges`` is kept as a sorted tuple of (i, j) pairs with i < j; this is
    the canonical form used for hashing, JSON output, and reproducibility.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _complexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # by k_max

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        _check_vertices(self.n)
        canon = tuple(sorted(tuple(e) for e in self.edges))
        seen = set()
        for i, j in canon:
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i},{j}) invalid for n={self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        object.__setattr__(self, "edges", canon)

    @classmethod
    def from_edges(cls, n: int, pairs) -> "Graph":
        return cls(n, tuple((min(i, j), max(i, j)) for i, j in pairs))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bit mask per vertex."""
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return tuple(adj)

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return bool(self.adjacency[i] >> j & 1)


@dataclass(frozen=True)
class PointCloud:
    """Finite 2-D point set."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("point coordinates must be finite")

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CliqueComplex:
    """Per-size sorted clique lists of a graph (the chain bases) and their boundary maps.

    ``cliques[s]`` holds every s-vertex clique as a bit mask, in strictly
    increasing mask order, for s = 1 .. k_max + 1.  Downward closure holds by
    construction: every (s-1)-subset of a listed s-clique is itself a clique.
    Each face table and coboundary is built on first use, kept and read-only.
    """

    k_max: int
    cliques: dict[int, tuple[int, ...]] = field(repr=False)
    _faces: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)
    _cofaces: dict[int, Coboundary] = field(default_factory=dict, init=False, repr=False, compare=False)

    def basis(self, size: int) -> tuple[int, ...]:
        """Sorted clique list for a given clique size (empty if none)."""
        return self.cliques.get(size, ())

    def count(self, size: int) -> int:
        return len(self.basis(size))

    def faces(self, k: int) -> np.ndarray:
        """Face table of the boundary map d_k, an int array of shape (|Cl_{k+1}|, k+1).

        Entry [j, i] is the row in ``basis(k)`` of clique j of size k+1 less its
        i-th vertex (ascending, i from 0), where d_k holds (-1)^i.
        """
        if k not in self._faces:
            self._faces[k] = _face_table(self, k)
        return self._faces[k]

    def cofaces(self, k: int) -> Coboundary:
        """The coboundary of d_k: the transpose of ``faces(k)`` (``exactrank.coboundary``)."""
        if k not in self._cofaces:
            cob = coboundary(self.faces(k), self.count(k))
            for arr in (cob.indptr, cob.rows, cob.pos):
                arr.flags.writeable = False
            self._cofaces[k] = cob
        return self._cofaces[k]


def _face_table(cx: CliqueComplex, k: int) -> np.ndarray:
    if not 1 <= k <= cx.k_max:
        raise ValueError(f"boundary map d_{k} needs 1 <= k <= k_max = {cx.k_max}")
    rows = np.array(cx.basis(k), dtype=np.uint64)
    cols = np.array(cx.basis(k + 1), dtype=np.uint64)
    faces = np.empty((cols.size, k + 1), dtype=np.intp)
    rest = cols.copy()
    for i in range(k + 1):
        low = rest & (~rest + np.uint64(1))  # lowest vertex still in rest
        faces[:, i] = np.searchsorted(rows, cols ^ low)
        rest ^= low
    faces.flags.writeable = False
    return faces


# ---------------------------------------------------------------------------
# generators


def gen_kpartite(m: int, k: int) -> Graph:
    """Complete k-partite graph K(m,k): k clusters of m vertices each.

    Vertices i and j are adjacent iff they sit in different clusters
    (i//m != j//m), giving C(k,2)*m^2 edges on n = m*k vertices.
    """
    if m < 1 or k < 1:
        raise ValueError("cluster size and cluster count must both be >= 1")
    n = m * k
    _check_vertices(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if i // m != j // m]
    return Graph(n, tuple(edges))


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n,2) edges present independently with probability p.

    Deterministic given ``seed``: pairs are visited in lexicographic order and
    compared against a NumPy PCG64 uniform stream.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    _check_vertices(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = np.random.default_rng(seed)
    draws = rng.random(len(pairs))
    edges = tuple(pair for pair, u in zip(pairs, draws) if u < p)
    return Graph(n, edges)


def gen_rips_points(n: int, k: int) -> PointCloud:
    """Rotated two-column point set with large clique-complex Betti number.

    With m = n/(2k), theta = pi/k and offset delta = n^-4, the base sector
    holds columns x = +1/2 and x = -1/2 with points at heights i*delta for
    i = 1..m; sectors j = 1..k-1 are copies rotated by j*theta about the
    origin.  The loop bound for point indices is m (the per-column count),
    not k.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 points and k >= 1 sectors")
    _check_vertices(n)
    if n % (2 * k) != 0:
        raise ValueError(f"2k = {2 * k} must divide n = {n}")
    m = n // (2 * k)
    theta = math.pi / k
    delta = float(n) ** -4
    base = [(0.5, i * delta) for i in range(1, m + 1)]
    base += [(-0.5, i * delta) for i in range(1, m + 1)]
    pts: list[tuple[float, float]] = []
    for j in range(k):
        c, s = math.cos(j * theta), math.sin(j * theta)
        pts.extend((c * x - s * y, s * x + c * y) for x, y in base)
    return PointCloud(tuple(pts))


def rips_graph(points: PointCloud, threshold: float) -> Graph:
    """Distance graph: edge iff Euclidean distance <= threshold (closed).

    The comparison is done on squared distances in double precision with no
    tolerance, so a pair at distance exactly equal to the threshold gets an
    edge.  A NaN or infinite threshold is rejected.
    """
    if not math.isfinite(threshold) or threshold < 0:
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")
    pts = points.points
    n = len(pts)
    _check_vertices(n)
    t2 = threshold * threshold
    edges = []
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            dx = pts[j][0] - xi
            dy = pts[j][1] - yi
            if dx * dx + dy * dy <= t2:
                edges.append((i, j))
    return Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# cliques


def is_clique(g: Graph, subset: int) -> bool:
    """True iff every pair inside the subset is an edge (singletons/empty: True)."""
    if subset >> g.n:
        raise ValueError("subset mask has bits outside 0..n-1")
    adj = g.adjacency
    rest = subset
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        # every remaining member must neighbor v
        if rest & ~adj[v]:
            return False
    return True


def enumerate_cliques(g: Graph, s: int) -> list[int]:
    """All s-vertex cliques of g as bit masks, in strictly increasing order.

    Recursive extension over sorted candidate sets: each clique is grown only
    by vertices larger than its current maximum, so every clique is produced
    exactly once and the output order is deterministic.  Past ``MAX_CLIQUES``
    cliques it raises ``DeskScaleError``.
    """
    if s < 1:
        raise ValueError("clique size must be >= 1")
    if s > g.n:
        return []
    adj = g.adjacency
    out: list[int] = []
    above = [~((1 << (v + 1)) - 1) for v in range(g.n)]

    def extend(mask: int, cand: int, size: int) -> None:
        if size == s:
            out.append(mask)
            if len(out) > MAX_CLIQUES:
                raise DeskScaleError(f"graph has more than {MAX_CLIQUES} cliques of {s} vertices;"
                                     f" desk-scale enumeration lists at most {MAX_CLIQUES} of one size")
            return
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            extend(mask | low, cand & adj[v] & above[v], size + 1)

    for v in range(g.n):
        extend(1 << v, adj[v] & above[v], 1)
    out.sort()
    return out


def build_clique_complex(g: Graph, k_max: int) -> CliqueComplex:
    """Clique lists for sizes 1..k_max+1, built once per (g, k_max): kept on g, never referencing it."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if k_max in g._complexes:
        return g._complexes[k_max]
    cliques = {}
    for s in range(1, k_max + 2):
        cl = enumerate_cliques(g, s)
        cliques[s] = tuple(cl)
        if not cl:
            # no larger cliques can exist either; record empty levels anyway
            for t in range(s + 1, k_max + 2):
                cliques[t] = ()
            break
    return g._complexes.setdefault(k_max, CliqueComplex(k_max, cliques))


# ---------------------------------------------------------------------------
# canonical JSON form (CLI contract)


def graph_to_json(g: Graph) -> str:
    """Canonical graph JSON: {"n": int, "edges": [[i,j],...]}, edges sorted."""
    payload = {"n": g.n, "edges": [[i, j] for i, j in g.edges]}
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def _json_int(value, what: str) -> int:
    """A JSON integer as is; floats, booleans and strings are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def graph_from_json(text: str) -> Graph:
    data = json.loads(text)
    try:
        n = _json_int(data["n"], "n")
        edges = tuple(
            (_json_int(i, "edge endpoint"), _json_int(j, "edge endpoint")) for i, j in data["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    return Graph.from_edges(n, edges)
