import gc
import math
import weakref
from itertools import combinations

import numpy as np
import pytest

from bettiforge import homology
from bettiforge.errors import DeskScaleError
from bettiforge.exactrank import RANK_PRIMES, cleared_ranks, integer_rank, reduce_columns
from bettiforge.graphs import (
    Graph,
    build_clique_complex,
    gen_erdos_renyi,
    gen_kpartite,
    gen_rips_points,
    rips_graph,
)
from bettiforge.homology import (
    MAX_DENSE_DIM,
    betti_exact,
    boundary_matrix,
    dirac,
    dirac_basis,
    dirac_square,
    laplacian,
    spectrum,
)
from oracles import (
    betti_delta_approx,
    bit_indices,
    kunneth_convolve,
    middle_slice,
    modular_rank,
    reduced_from_regular,
)


class TestExactRank:
    def test_matches_float_rank_on_random_ints(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.integers(-3, 4, size=rng.integers(1, 9, size=2))
            assert integer_rank(a) == np.linalg.matrix_rank(a.astype(float))

    def test_rank_deficient(self):
        a = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert integer_rank(a) == 2

    def test_empty(self):
        assert integer_rank(np.zeros((0, 5), dtype=int)) == 0

    def test_big_integer_fallback(self):
        big = 2**40
        a = [[big, 1], [1, big]]
        assert integer_rank(a) == 2


def _loop_boundary(cx, k):
    """Boundary matrix by the defining double loop over columns and faces."""
    rows, cols = cx.basis(k), cx.basis(k + 1)
    row_index = {mask: i for i, mask in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, mask in enumerate(cols):
        for i, v in enumerate(bit_indices(mask)):
            mat[row_index[mask & ~(1 << v)], j] = -1 if i & 1 else 1
    return mat


def _property_cases():
    """Seeded G(n, p) with n <= 12 and k = 1-4, complete graphs, K(m,k), and
    graphs without k-cliques."""
    cases = []
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 13))
        p = float(rng.uniform(0.25, 0.9))
        k = int(rng.integers(1, 5))
        cases.append(pytest.param(gen_erdos_renyi(n, p, seed), k, id=f"er{n},{p:.2f},s{seed},k{k}"))
    for n, k in ((3, 2), (6, 3), (8, 4), (9, 3)):
        cases.append(pytest.param(gen_kpartite(1, n), k, id=f"K{n},k{k}"))
    for m, k in ((2, 3), (3, 3), (2, 4), (4, 2), (3, 2)):
        cases.append(pytest.param(gen_kpartite(m, k), k, id=f"K({m},{k})"))
    cycle = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    for g, k, name in ((Graph(6, ()), 2, "empty6,k2"), (cycle, 3, "C5,k3"), (gen_erdos_renyi(10, 0.15, 1), 3, "er10,0.15,k3")):
        cases.append(pytest.param(g, k, id=name))
    return cases


def _edge_cases():
    """k = 1, complete graphs K3-K9, graphs without k-cliques, K(m,k) at its
    top level (no (k+1)-cliques) and k = 4."""
    cases = []
    for n in range(3, 10):
        for k in (1, 2, 4):
            cases.append(pytest.param(gen_kpartite(1, n), k, id=f"K{n},k{k}"))
    for m, k in ((2, 2), (3, 3), (2, 5), (4, 4)):
        cases.append(pytest.param(gen_kpartite(m, k), k, id=f"K({m},{k}),top"))
    path = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    for g, k, name in ((Graph(4, ()), 1, "empty4,k1"), (Graph(6, ()), 3, "empty6,k3"), (path, 3, "P6,k3"),
                       (path, 1, "P6,k1"), (gen_erdos_renyi(12, 0.6, 2), 1, "er12,0.6,k1"),
                       (gen_erdos_renyi(11, 0.7, 4), 4, "er11,0.7,k4")):
        cases.append(pytest.param(g, k, id=name))
    return cases


def _coboundaries(cx, k):
    """Coboundaries of d_{k-1} (None for k = 1) and d_k."""
    return (cx.cofaces(k - 1) if k >= 2 else None), cx.cofaces(k)


def _rp2_subdivision() -> Graph:
    """Barycentric subdivision of the 6-vertex RP^2, whose H_1 is Z/2.

    Its vertices are the 6 + 15 + 10 simplices of the triangulation, with an
    edge between two simplices when one is a face of the other.  Order
    complexes are flag, so its clique complex is the subdivision itself.
    """
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                 (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    simplices = set()
    for tri in triangles:
        for size in (1, 2, 3):
            simplices.update(frozenset(face) for face in combinations(tri, size))
    order = sorted(simplices, key=lambda s: (len(s), sorted(s)))
    edges = [(i, j) for i, a in enumerate(order) for j, b in enumerate(order) if i < j and a < b]
    return Graph.from_edges(len(order), edges)


# the modulus of the joint reduction that ranks over both primes at once
JOINT = math.prod(RANK_PRIMES)


class TestModularRank:
    @pytest.mark.parametrize("g,k", _property_cases())
    def test_matches_bareiss_and_nullity(self, g, k):
        cx = build_clique_complex(g, k)
        for level in range(1, k + 1):
            faces = cx.faces(level)
            want = integer_rank(boundary_matrix(cx, level).matrix)
            assert [modular_rank(faces, p) for p in RANK_PRIMES] == [want, want]
        beta = betti_exact(g, k)
        if cx.count(k) == 0:
            assert beta == 0
            return
        evals = np.linalg.eigvalsh(laplacian(cx, k).astype(float))
        tol = 1e-8 * max(1.0, evals.max())
        assert int((evals < tol).sum()) == beta

    @pytest.mark.parametrize("g,k", _property_cases() + _edge_cases())
    def test_cleared_ranks_match_bareiss_and_face_rows(self, g, k):
        cx = build_clique_complex(g, k)
        down, up = _coboundaries(cx, k)
        want_up = integer_rank(boundary_matrix(cx, k).matrix)
        want_down = integer_rank(boundary_matrix(cx, k - 1).matrix) if k >= 2 else 0
        for p in RANK_PRIMES:
            assert cleared_ranks(down, up, p) == (want_down, want_up)
            assert modular_rank(cx.faces(k), p) == want_up
            if k >= 2:
                assert modular_rank(cx.faces(k - 1), p) == want_down

    @pytest.mark.parametrize("g,k", [c for c in _property_cases() + _edge_cases() if c.values[1] >= 2])
    def test_cleared_columns_reduce_to_zero(self, g, k):
        cx = build_clique_complex(g, k)
        down, up = _coboundaries(cx, k)
        for p in RANK_PRIMES:
            cleared = reduce_columns(down, p)
            full = reduce_columns(up, p)
            # a column that yields no pivot in the full reduction reached zero
            assert cleared.keys().isdisjoint(full.values())
            assert reduce_columns(up, p, skip=cleared) == full

    @pytest.mark.parametrize("g,k", _property_cases() + _edge_cases())
    def test_joint_modulus_matches_each_prime(self, g, k):
        # every coboundary up to d_k, uncleared and cleared by the one below
        cx = build_clique_complex(g, k)
        below = None
        for level in range(1, k + 1):
            cob = cx.cofaces(level)
            joint = reduce_columns(cob, JOINT)
            assert joint is not None
            for p in RANK_PRIMES:
                assert reduce_columns(cob, p) == joint
            if below is not None:
                cleared = reduce_columns(cob, JOINT, skip=below)
                for p in RANK_PRIMES:
                    assert reduce_columns(cob, p, skip=below) == cleared
            below = joint

    def test_joint_ranks_match_bareiss_on_random_graphs(self):
        rng = np.random.default_rng(1616)
        graphs = [gen_kpartite(1, n) for n in range(1, 10)]
        for _ in range(40):
            n = int(rng.integers(2, 10))
            graphs.append(gen_erdos_renyi(n, float(rng.uniform(0.2, 0.95)), int(rng.integers(2**31))))
        seen = set()
        for g in graphs:
            for k in range(1, 5):
                cx = build_clique_complex(g, k)
                down, up = _coboundaries(cx, k)
                want_up = integer_rank(boundary_matrix(cx, k).matrix)
                want_down = integer_rank(boundary_matrix(cx, k - 1).matrix) if k >= 2 else 0
                assert cleared_ranks(down, up, JOINT) == (want_down, want_up)
                assert betti_exact(g, k) == cx.count(k) - want_down - want_up
                seen.add("k1" if k == 1 else "no k-cliques" if cx.count(k) == 0 else "other")
        assert seen == {"k1", "no k-cliques", "other"}

    def test_modulus_past_int64(self):
        # the product of two Mersenne primes is about 2**150; no residue of it
        # may be formed in int64
        primes = (2**61 - 1, 2**89 - 1)
        big = math.prod(primes)
        cx = build_clique_complex(gen_erdos_renyi(10, 0.6, 3), 3)
        down, up = _coboundaries(cx, 3)
        low = reduce_columns(down, big)
        for cob, skip in ((down, ()), (up, ()), (up, low)):
            joint = reduce_columns(cob, big, skip=skip)
            assert joint is not None
            assert all(reduce_columns(cob, p, skip=skip) == joint for p in primes)
        assert cleared_ranks(down, up, big) == cleared_ranks(down, up, JOINT)

    def test_torsion_stops_the_joint_reduction(self):
        # H_1 of RP^2 is Z/2: the ranks of d_2 mod 2 and mod 3 differ, so the
        # reduction mod 6 must meet a lead that is not a unit
        cx = build_clique_complex(_rp2_subdivision(), 2)
        down, up = _coboundaries(cx, 2)
        assert reduce_columns(up, 6) is None
        assert cleared_ranks(down, up, 6) is None
        assert (cleared_ranks(down, up, 2), cleared_ranks(down, up, 3)) == ((30, 59), (30, 60))

    def test_coboundary_is_transpose(self):
        cx = build_clique_complex(gen_erdos_renyi(10, 0.6, 3), 3)
        for k in (1, 2, 3):
            cob = cx.cofaces(k)
            mat = np.zeros((cx.count(k + 1), cx.count(k)), dtype=np.int64)
            for c in range(cx.count(k)):
                part = slice(cob.indptr[c], cob.indptr[c + 1])
                assert np.all(np.diff(cob.rows[part]) > 0)
                mat[cob.rows[part], c] = np.where(cob.pos[part] & 1, -1, 1)
            assert np.array_equal(mat, boundary_matrix(cx, k).matrix.T)

    def test_torsion_falls_back_to_bareiss(self, monkeypatch):
        g = _rp2_subdivision()
        cx = build_clique_complex(g, 3)
        assert (cx.count(1), cx.count(2), cx.count(3), cx.count(4)) == (31, 90, 60, 0)
        faces = cx.faces(2)
        # H_1 = Z/2: d_2 loses one rank mod 2 and none mod 3
        assert (modular_rank(faces, 2), modular_rank(faces, 3)) == (59, 60)
        calls = []

        def counting_rank(matrix):
            calls.append(matrix.shape)
            return integer_rank(matrix)

        monkeypatch.setattr(homology, "integer_rank", counting_rank)
        monkeypatch.setattr(homology, "RANK_PRIMES", (2, 3))
        assert betti_exact(g, 2) == 0
        assert calls == [(90, 60)]
        calls.clear()
        monkeypatch.setattr(homology, "RANK_PRIMES", (3, 5))
        assert betti_exact(g, 2) == 0
        assert calls == []


class TestBoundary:
    def test_triangle_two_simplex_column(self):
        g = gen_kpartite(1, 3)
        cx = build_clique_complex(g, 2)
        bm = boundary_matrix(cx, 2)
        # rows are the edges sorted by mask: {0,1}, {0,2}, {1,2}
        assert bm.row_basis == (0b011, 0b101, 0b110)
        assert bm.col_basis == (0b111,)
        # boundary of [v0 v1 v2] = [v1 v2] - [v0 v2] + [v0 v1]
        assert bm.matrix[:, 0].tolist() == [1, -1, 1]

    def test_single_edge_column(self):
        g = Graph.from_edges(2, [(0, 1)])
        cx = build_clique_complex(g, 1)
        bm = boundary_matrix(cx, 1)
        assert bm.matrix[:, 0].tolist() == [-1, 1]

    def test_column_weight_and_signs(self):
        g = gen_erdos_renyi(7, 0.7, 3)
        cx = build_clique_complex(g, 3)
        for k in (1, 2, 3):
            bm = boundary_matrix(cx, k)
            if bm.matrix.size == 0:
                continue
            nonzero = np.abs(bm.matrix).sum(axis=0)
            assert np.all(nonzero == k + 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_boundary_squares_to_zero(self, seed):
        g = gen_erdos_renyi(8, 0.6, seed)
        cx = build_clique_complex(g, 4)
        for k in (2, 3, 4):
            lo = boundary_matrix(cx, k - 1).matrix
            hi = boundary_matrix(cx, k).matrix
            if lo.size and hi.size:
                assert np.all(lo @ hi == 0)

    @pytest.mark.parametrize("g,k", [(gen_erdos_renyi(9, 0.7, 2), 4), (gen_kpartite(2, 4), 4), (gen_kpartite(1, 7), 3)])
    def test_matches_loop_reference(self, g, k):
        cx = build_clique_complex(g, k)
        for level in range(1, k + 1):
            mat = boundary_matrix(cx, level).matrix
            want = _loop_boundary(cx, level)
            assert mat.dtype == want.dtype and mat.shape == want.shape
            assert mat.tobytes() == want.tobytes()

    def test_missing_level_rejected(self):
        cx = build_clique_complex(gen_kpartite(2, 2), 1)
        with pytest.raises(ValueError):
            boundary_matrix(cx, 2)


class TestLaplacianDirac:
    def test_k32_nullity(self):
        g = gen_kpartite(3, 2)
        cx = build_clique_complex(g, 2)
        lap = laplacian(cx, 2)
        assert lap.shape == (9, 9)
        evals = np.linalg.eigvalsh(lap.astype(float))
        assert int((np.abs(evals) < 1e-8).sum()) == 4

    def test_empty_graph_dimension_one(self):
        g = Graph(5, ())
        cx = build_clique_complex(g, 1)
        lap = laplacian(cx, 1)
        assert lap.shape == (5, 5)
        assert np.all(lap == 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_laplacian_equals_dirac_square_middle(self, seed):
        g = gen_erdos_renyi(6, 0.6, seed)
        cx = build_clique_complex(g, 2)
        if cx.count(2) == 0:
            pytest.skip("no edges drawn")
        dop = dirac(cx, 2)
        square = dop.matrix @ dop.matrix
        mid = middle_slice(dop)
        assert np.array_equal(square[mid, mid], laplacian(cx, 2))

    @staticmethod
    def _check_int64_product(cx, k):
        up = boundary_matrix(cx, k).matrix
        want = up @ up.T
        if k >= 2:
            down = boundary_matrix(cx, k - 1).matrix
            want = want + down.T @ down
        lap = laplacian(cx, k)
        assert lap.dtype == np.int64
        assert np.array_equal(lap, want)

    @pytest.mark.parametrize("n,p,k,seed", [(10, 0.7, 1, 0), (12, 0.6, 2, 1), (14, 0.55, 3, 2), (16, 0.6, 3, 3)])
    def test_laplacian_matches_int64_product(self, n, p, k, seed):
        self._check_int64_product(build_clique_complex(gen_erdos_renyi(n, p, seed), k), k)

    @pytest.mark.parametrize("g,k", _edge_cases())
    def test_laplacian_matches_int64_product_on_edge_cases(self, g, k):
        self._check_int64_product(build_clique_complex(g, k), k)

    @staticmethod
    def _check_dirac_square(cx, k):
        # the scattered square against the dense Dirac product permuted to
        # mask order, bit for bit, and its weight-k block against laplacian
        masks, square = dirac_square(cx, k)
        b = dirac(cx, k).matrix
        order = np.argsort(dirac_basis(cx, k))
        assert masks.dtype == np.uint64 and masks.tobytes() == dirac_basis(cx, k)[order].tobytes()
        assert square.dtype == np.int64 and square.shape == b.shape
        assert square.tobytes() == (b @ b)[np.ix_(order, order)].tobytes()
        weight_k = np.bitwise_count(masks) == k
        assert np.array_equal(square[np.ix_(weight_k, weight_k)], laplacian(cx, k))

    @pytest.mark.parametrize("g,k", _property_cases() + _edge_cases() + [
        pytest.param(Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), 1, id="C4,k1")])
    def test_dirac_square_matches_dense_product(self, g, k):
        self._check_dirac_square(build_clique_complex(g, k), k)

    def test_dirac_square_keeps_the_dirac_cap(self, monkeypatch):
        cx = build_clique_complex(gen_kpartite(2, 3), 2)  # 6 + 12 + 8 states
        monkeypatch.setattr(homology, "MAX_DENSE_DIM", 25)
        for build in (dirac, dirac_square):
            with pytest.raises(DeskScaleError, match=r"^dirac\(k=2\) needs dimension 26; desk-scale cap is 25$"):
                build(cx, 2)

    def test_dirac_square_block_diagonal(self):
        g = gen_kpartite(2, 3)
        dop = dirac(build_clique_complex(g, 2), 2)
        square = dop.matrix @ dop.matrix
        a, b, c = dop.block_sizes
        assert np.all(square[:a, a:] == 0)
        assert np.all(square[a : a + b, :a] == 0)
        assert np.all(square[a : a + b, a + b :] == 0)

    def test_dirac_without_top_level(self):
        g = gen_kpartite(2, 2)  # no triangles
        dop = dirac(build_clique_complex(g, 2), 2)
        assert dop.block_sizes[2] == 0
        assert dop.matrix.shape[0] == 4 + 4

    def test_dirac_spectrum_symmetric(self):
        g = gen_erdos_renyi(6, 0.7, 11)
        dop = dirac(build_clique_complex(g, 2), 2)
        evals = np.sort(np.linalg.eigvalsh(dop.matrix.astype(float)))
        assert np.allclose(evals, -evals[::-1], atol=1e-9)

    def test_dirac_eigenvalue_squares(self):
        g = gen_erdos_renyi(6, 0.7, 11)
        dop = dirac(build_clique_complex(g, 2), 2)
        mat = dop.matrix.astype(float)
        sq = np.sort(np.linalg.eigvalsh(mat @ mat))
        from_b = np.sort(np.linalg.eigvalsh(mat) ** 2)
        assert np.allclose(sq, from_b, atol=1e-8)

    def test_dirac_kernel_matches_betti(self):
        g = gen_kpartite(2, 2)
        dop = dirac(build_clique_complex(g, 2), 2)
        square = dop.matrix @ dop.matrix
        mid = middle_slice(dop)
        evals = np.linalg.eigvalsh(square[mid, mid].astype(float))
        assert int((np.abs(evals) < 1e-8).sum()) == betti_exact(g, 2)


class TestBettiExact:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_kpartite_proposition(self, m, k):
        assert betti_exact(gen_kpartite(m, k), k) == (m - 1) ** k

    def test_forest_has_no_cycles(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (1, 3), (4, 5)])
        assert betti_exact(g, 2) == 0

    def test_rips_single_sector(self):
        g = rips_graph(gen_rips_points(6, 1), 1.0)
        assert betti_exact(g, 2) == 2

    def test_beta0_counts_components(self):
        for seed in range(20):
            g = gen_erdos_renyi(9, 0.25, seed)
            adj = {i: set() for i in range(g.n)}
            for i, j in g.edges:
                adj[i].add(j)
                adj[j].add(i)
            seen, comps = set(), 0
            for v in range(g.n):
                if v in seen:
                    continue
                comps += 1
                stack = [v]
                while stack:
                    x = stack.pop()
                    if x in seen:
                        continue
                    seen.add(x)
                    stack.extend(adj[x])
            assert betti_exact(g, 1) == comps

    def test_nullity_equals_rank_path(self):
        # two independent computation paths: exact ranks vs spectral nullity
        for seed in range(6):
            g = gen_erdos_renyi(7, 0.55, seed)
            cx = build_clique_complex(g, 2)
            if cx.count(2) == 0:
                continue
            lap = laplacian(cx, 2)
            evals = np.linalg.eigvalsh(lap.astype(float))
            tol = 1e-8 * max(1.0, evals.max())
            assert int((evals < tol).sum()) == betti_exact(g, 2)


    @pytest.mark.parametrize("seed", range(4))
    def test_complex_built_once_per_graph(self, seed):
        g = gen_erdos_renyi(11, 0.6, seed)
        for k in (1, 2, 3):
            cx = build_clique_complex(g, k)
            assert build_clique_complex(g, k) is cx
            assert cx.faces(k) is cx.faces(k) and cx.cofaces(k) is cx.cofaces(k)
            # the kept complex answers as a new equal graph's own does
            fresh = gen_erdos_renyi(11, 0.6, seed)
            assert fresh == g and hash(fresh) == hash(g)
            assert betti_exact(g, k) == betti_exact(fresh, k)
            assert np.array_equal(spectrum(g, k).eigenvalues, spectrum(fresh, k).eigenvalues)
        # the complex holds no reference to its graph: reference counting frees both
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g, cx
            assert ref() is None
        finally:
            gc.enable()

    def test_boundary_maps_are_read_only(self):
        cx = build_clique_complex(gen_kpartite(2, 3), 3)
        cob = cx.cofaces(2)
        for arr in (cx.faces(2), cob.indptr, cob.rows, cob.pos):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


class TestSpectrum:
    @pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (3, 3), (4, 2), (2, 4)])
    def test_kpartite_gap_and_lattice(self, m, k):
        s = spectrum(gen_kpartite(m, k), k)
        assert abs(s.gap - m) < 1e-8
        scaled = s.eigenvalues / m
        assert np.all(np.abs(scaled - np.round(scaled)) < 1e-8)
        assert np.all((np.round(scaled) >= 0) & (np.round(scaled) <= k))

    def test_two_triangles_components(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert spectrum(g, 1).nullity == 2

    def test_sorted_and_counts(self):
        s = spectrum(gen_kpartite(3, 2), 2)
        assert np.all(np.diff(s.eigenvalues) >= 0)
        assert s.nullity == 4
        assert s.kappa == pytest.approx(s.top / s.gap)


class TestBettiDelta:
    def test_delta_zero_matches_exact(self):
        g = gen_kpartite(3, 2)
        assert betti_delta_approx(g, 2, 0.0) == betti_exact(g, 2)

    def test_full_dimension_at_top(self):
        g = gen_kpartite(3, 2)
        s = spectrum(g, 2)
        assert betti_delta_approx(g, 2, s.top) == 9

    def test_k32_at_three(self):
        g = gen_kpartite(3, 2)
        evals = spectrum(g, 2).eigenvalues
        mult3 = int(np.sum(np.abs(evals - 3.0) < 1e-8))
        assert betti_delta_approx(g, 2, 3.0) == 4 + mult3

    def test_monotone(self):
        g = gen_kpartite(3, 2)
        values = [betti_delta_approx(g, 2, d) for d in (0.0, 1.0, 3.0, 5.0, 6.0)]
        assert values == sorted(values)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            betti_delta_approx(gen_kpartite(2, 2), 2, -0.1)


class TestKunneth:
    def test_power_of_single_cluster(self):
        m = 3
        seq = [m - 1]
        for _ in range(3):
            seq = kunneth_convolve(seq, [m - 1])
        # after convolving k factors the mass sits at degree k-1
        assert seq[3] == (m - 1) ** 4

    def test_zero_input(self):
        assert kunneth_convolve([0, 0], [1, 2]) == [0] * 4

    def test_matches_join_of_clusters(self):
        # K(2,2) is the join of two edgeless pairs
        g1 = Graph(2, ())
        reduced = reduced_from_regular([betti_exact(g1, 1)])
        joined = kunneth_convolve(reduced, reduced)
        g = gen_kpartite(2, 2)
        got = reduced_from_regular([betti_exact(g, 1), betti_exact(g, 2)])
        assert got == joined[: len(got)]


class TestDeskScale:
    def test_size_report(self):
        g = gen_kpartite(1, 16)  # complete graph: C(16,8) = 12870 middle cliques
        with pytest.raises(DeskScaleError, match="dimension"):
            spectrum(g, 8)

    def test_full_simplex_past_dense_cap(self):
        # the full simplex is contractible
        assert betti_exact(gen_kpartite(1, 16), 8) == 0

    def test_kpartite_past_dense_cap(self):
        g = gen_kpartite(4, 6)
        assert build_clique_complex(g, 5).count(5) == 6144 > MAX_DENSE_DIM
        assert betti_exact(g, 6) == 3**6
