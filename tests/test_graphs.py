import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettiforge import graphs
from bettiforge.errors import DeskScaleError
from bettiforge.graphs import (
    Graph,
    build_clique_complex,
    enumerate_cliques,
    gen_erdos_renyi,
    gen_kpartite,
    gen_rips_points,
    graph_from_json,
    graph_to_json,
    is_clique,
    rips_graph,
)
from oracles import bit_indices, brute_force_cliques


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
    return Graph.from_edges(n, edges)


class TestGraphType:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 3),))
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (0, 1)))

    def test_rejects_oversized(self):
        with pytest.raises(DeskScaleError):
            Graph(65, ())

    def test_canonical_edge_order(self):
        g = Graph.from_edges(4, [(3, 1), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2), (1, 3))


class TestKPartite:
    @pytest.mark.parametrize("m,k", [(1, 1), (2, 2), (3, 2), (5, 6), (4, 4)])
    def test_edge_count(self, m, k):
        g = gen_kpartite(m, k)
        assert g.n == m * k
        assert g.edge_count == math.comb(k, 2) * m * m

    def test_k56_matches_figure(self):
        g = gen_kpartite(5, 6)
        assert g.n == 30
        assert g.edge_count == 375

    def test_triangle(self):
        g = gen_kpartite(1, 3)
        assert g.edge_count == 3
        assert is_clique(g, 0b111)

    def test_four_cycle(self):
        g = gen_kpartite(2, 2)
        assert g.edge_count == 4
        assert enumerate_cliques(g, 3) == []

    def test_no_intra_cluster_edges(self):
        g = gen_kpartite(3, 2)
        for c in range(2):
            for i in range(3):
                for j in range(i + 1, 3):
                    assert not g.has_edge(3 * c + i, 3 * c + j)

    def test_overflow_rejected(self):
        with pytest.raises(DeskScaleError, match="graph has n=81 vertices"):
            gen_kpartite(9, 9)


class TestErdosRenyi:
    def test_empty_and_complete(self):
        assert gen_erdos_renyi(7, 0.0, 1).edge_count == 0
        assert gen_erdos_renyi(7, 1.0, 1).edge_count == math.comb(7, 2)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(5, 1.5, 0)

    def test_deterministic_given_seed(self):
        assert gen_erdos_renyi(12, 0.3, 99).edges == gen_erdos_renyi(12, 0.3, 99).edges
        assert gen_erdos_renyi(12, 0.3, 98).edges != gen_erdos_renyi(12, 0.3, 99).edges

    def test_mean_edge_count_binomial(self):
        n = 60
        p = n ** (-2.0 / 3.0)
        seeds = range(30)
        counts = [gen_erdos_renyi(n, p, s).edge_count for s in seeds]
        mean = np.mean(counts)
        expected = math.comb(n, 2) * p
        sigma_mean = math.sqrt(math.comb(n, 2) * p * (1 - p) / len(counts))
        assert abs(mean - expected) <= 3 * sigma_mean


class TestRips:
    def test_single_sector_points(self):
        pc = gen_rips_points(4, 1)
        assert pc.n == 4
        xs = sorted(x for x, _ in pc.points)
        assert xs[:2] == [-0.5, -0.5] and xs[2:] == [0.5, 0.5]

    def test_two_sectors(self):
        pc = gen_rips_points(12, 2)
        assert pc.n == 12

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            gen_rips_points(10, 2)

    @pytest.mark.parametrize("k", [1, 2])
    def test_matching_edges_only(self, k):
        m = 3
        n = 2 * k * m
        g = rips_graph(gen_rips_points(n, k), 1.0)
        # within the base sector: (x+_i, x-_i) present, (x+_i, x-_j) absent
        for i in range(m):
            assert g.has_edge(i, m + i)
            for j in range(m):
                if i != j:
                    assert not g.has_edge(i, m + j)

    def test_exact_distance_included(self):
        pc_pts = ((0.0, 0.0), (1.0, 0.0))
        from bettiforge.graphs import PointCloud

        g = rips_graph(PointCloud(pc_pts), 1.0)
        assert g.edge_count == 1

    def test_zero_threshold(self):
        g = rips_graph(gen_rips_points(4, 1), 0.0)
        assert g.edge_count == 0

    def test_collinear_path(self):
        from bettiforge.graphs import PointCloud

        g = rips_graph(PointCloud(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))), 1.0)
        assert g.edges == ((0, 1), (1, 2))

    def test_rotation_invariance(self):
        pc = gen_rips_points(12, 2)
        theta = 0.7342
        c, s = math.cos(theta), math.sin(theta)
        from bettiforge.graphs import PointCloud

        rotated = PointCloud(tuple((c * x - s * y, s * x + c * y) for x, y in pc.points))
        # rotation by a generic angle perturbs borderline pairs by ~1 ulp, so
        # compare at a threshold with a hair of slack on both sides
        for th in (0.9, 1.1):
            assert rips_graph(pc, th).edges == rips_graph(rotated, th).edges


class TestCliques:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_kpartite_clique_count(self, m, k):
        g = gen_kpartite(m, k)
        assert len(enumerate_cliques(g, k)) == m**k

    def test_singletons(self):
        g = gen_kpartite(2, 2)
        assert enumerate_cliques(g, 1) == [1, 2, 4, 8]

    def test_four_cycle_levels(self):
        g = gen_kpartite(2, 2)
        assert len(enumerate_cliques(g, 2)) == 4
        assert enumerate_cliques(g, 3) == []

    def test_same_cluster_pair_not_clique(self):
        g = gen_kpartite(3, 2)
        assert not is_clique(g, 0b11)  # vertices 0,1 share a cluster

    def test_empty_and_singleton_cliques(self):
        g = gen_kpartite(2, 2)
        assert is_clique(g, 0)
        assert is_clique(g, 0b100)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(min_value=1, max_value=5))
    def test_matches_brute_force(self, g, s):
        assert enumerate_cliques(g, s) == brute_force_cliques(g, s)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(min_value=0))
    def test_is_clique_matches_pair_loop(self, g, raw):
        mask = raw % (1 << g.n)
        verts = bit_indices(mask)
        expect = all(g.has_edge(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :])
        assert is_clique(g, mask) == expect

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_downward_closure(self, g):
        cx = build_clique_complex(g, 3)
        for s in range(2, 5):
            lower = set(cx.basis(s - 1))
            for mask in cx.basis(s):
                for v in bit_indices(mask):
                    assert mask & ~(1 << v) in lower

    def test_strictly_increasing_order(self):
        g = gen_erdos_renyi(9, 0.55, 4)
        for s in (1, 2, 3):
            cl = enumerate_cliques(g, s)
            assert all(a < b for a, b in zip(cl, cl[1:]))

    def test_budget_refuses_past_max_cliques(self, monkeypatch):
        # K8 has C(8, 4) = 70 cliques of 4 vertices: all listed at a budget
        # of 70, refused at 69, and the budget holds per size
        g = gen_kpartite(1, 8)
        monkeypatch.setattr(graphs, "MAX_CLIQUES", 70)
        assert enumerate_cliques(g, 4) == brute_force_cliques(g, 4)
        assert len(build_clique_complex(g, 4).basis(5)) == 56
        monkeypatch.setattr(graphs, "MAX_CLIQUES", 69)
        with pytest.raises(DeskScaleError, match="more than 69 cliques of 4 vertices"):
            enumerate_cliques(g, 4)
        assert len(enumerate_cliques(g, 3)) == 56


class TestGraphJson:
    def test_round_trip_and_canonical_form(self):
        g = Graph.from_edges(4, [(2, 0), (1, 0)])
        text = graph_to_json(g)
        assert text == '{"edges": [[0, 1], [0, 2]], "n": 4}'
        assert graph_from_json(text) == g

    def test_malformed(self):
        with pytest.raises(ValueError):
            graph_from_json('{"n": 3}')
