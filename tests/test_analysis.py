"""Tests for distances, bisection, fault tolerance, and layout analysis."""

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from repro import obs, store
from repro.analysis import (
    average_path_length,
    bfs_distances,
    bisection_fraction,
    diameter,
    distance_distribution,
    hop_distances,
    link_failure_sweep,
    min_bisection,
)
from repro.analysis import distances
from repro.analysis.faults import disconnection_ratio, median_disconnection_ratio
from repro.faults import LinkHealth, node_failures, permanent_link_failures
from repro.graphs import Graph, complete_graph
from repro.layout import bundling_report, supernode_clusters
from repro.routing.table import build_distance_table
from repro.topologies import polarstar_topology
from repro.topologies.table3 import REDUCED_BUILDERS, TABLE3_BUILDERS

INT16_MAX = np.iinfo(np.int16).max


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def scipy_hops(graph, sources=None):
    """SciPy's BFS, the independent oracle for the bitset kernel, with
    unreachable pairs mapped to the kernel's int16 sentinel."""
    d = shortest_path(graph.csr(), unweighted=True, indices=sources)
    return np.where(np.isinf(d), INT16_MAX, d).astype(np.int16)


def random_graph(n, seed, degree=3.0):
    """Seeded sparse random graph; at degree 3 it has isolated vertices and
    several components, so unreachable pairs and empty CSR rows occur."""
    rng = np.random.default_rng(seed)
    e = rng.integers(0, n, size=(int(degree * n / 2), 2))
    return Graph(n, e[e[:, 0] != e[:, 1]], name=f"rand{n}")


class TestDistances:
    def test_bfs_single_source(self):
        d = bfs_distances(cycle(6), 0)
        assert d.tolist() == [0, 1, 2, 3, 2, 1]

    def test_bfs_multi_source(self):
        d = bfs_distances(cycle(6), [0, 3])
        assert d.shape == (2, 6)
        assert d[1, 3] == 0

    def test_diameter(self):
        assert diameter(cycle(8)) == 4
        assert diameter(complete_graph(5)) == 1

    def test_diameter_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert diameter(g) == float("inf")

    def test_apl_cycle(self):
        # C4: distances 1,2,1 from each vertex -> mean 4/3
        assert average_path_length(cycle(4)) == pytest.approx(4 / 3)

    def test_apl_excludes_unreachable(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert average_path_length(g) == pytest.approx(1.0)

    def test_sampled_diameter_lower_bound(self):
        g = cycle(20)
        assert diameter(g, sample=5, seed=1) <= diameter(g)


class TestHopDistances:
    """The bitset BFS kernel and the distance table against SciPy's BFS."""

    @pytest.mark.parametrize(
        "name, scale",
        [(name, "full") for name in sorted(TABLE3_BUILDERS)]
        + [(name, "reduced") for name in sorted(REDUCED_BUILDERS)],  # SF has no reduced form
    )
    def test_table3_networks(self, name, scale):
        g = store.table3_topology(name, scale).graph
        expected = scipy_hops(g)
        np.testing.assert_array_equal(hop_distances(g, np.arange(g.n)), expected)
        np.testing.assert_array_equal(build_distance_table(g), expected)

    @pytest.mark.parametrize("fraction", [0.05, 0.10])
    @pytest.mark.parametrize("name", ["PS-IQ", "DF"])
    @pytest.mark.parametrize("scale", ["full", "reduced"])
    def test_faulted_networks(self, name, scale, fraction):
        g = store.table3_topology(name, scale).graph
        h = LinkHealth(g)
        h.apply_schedule(
            permanent_link_failures(g, fraction, seed=7) + node_failures(g, 2, seed=7)
        )
        faulted = h.healthy_graph()
        # The down nodes are empty CSR rows: reduceat's empty-segment trap.
        assert np.count_nonzero(faulted.degrees == 0) >= 2
        np.testing.assert_array_equal(build_distance_table(faulted), scipy_hops(faulted))

    def test_disconnected_graph(self):
        # Components {0, 1, 2}, {3}, {4, 5} and {6}: isolated rows in the
        # middle and at the end of the CSR.
        g = Graph(7, [(0, 1), (1, 2), (4, 5)])
        d = hop_distances(g, np.arange(7))
        np.testing.assert_array_equal(d, scipy_hops(g))
        assert d[0, 2] == 2 and d[0, 3] == INT16_MAX and d[6, 6] == 0
        assert np.array_equal(hop_distances(Graph(3, []), [2]), [[INT16_MAX, INT16_MAX, 0]])

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 511, 512, 513, 1025])
    def test_word_and_block_edges(self, n):
        g = random_graph(n, seed=n)
        np.testing.assert_array_equal(build_distance_table(g), scipy_hops(g))
        # A source list with repeats, out of order, across block boundaries.
        sources = np.random.default_rng(n).integers(0, n, size=n + 7)
        np.testing.assert_array_equal(hop_distances(g, sources), scipy_hops(g, sources))

    def test_table_is_read_only_int16_and_counted(self):
        g = store.table3_topology("DF", "reduced").graph
        with obs.session() as (registry, _):
            for calls in (1, 2):
                table = build_distance_table(g)
                assert registry.get("routing.table.builds").value == calls
        assert table.dtype == np.int16 and table.shape == (g.n, g.n)
        assert not table.flags.writeable

    def test_bfs_distances_float_view(self):
        g = Graph(4, [(0, 1), (1, 2)])
        d = bfs_distances(g, [0, 3])
        assert d.dtype == np.float64
        assert d.tolist() == [[0, 1, 2, np.inf], [np.inf, np.inf, np.inf, 0]]
        assert distance_distribution(g).tolist() == [0.0, 4 / 6, 2 / 6]

    @pytest.mark.parametrize("sources", [-1, 6, [0, -1], [2, 6], [[0, 1]], 1.0, [True]])
    def test_bad_sources_rejected(self, sources):
        # SciPy wrapped -1 to vertex n-1; NumPy indexing would too.
        with pytest.raises(ValueError):
            hop_distances(cycle(6), sources)
        with pytest.raises(ValueError):
            bfs_distances(cycle(6), sources)

    def test_empty_sources(self):
        assert hop_distances(cycle(6), []).shape == (0, 6)
        assert bfs_distances(cycle(6), []).shape == (0, 6)

    def test_depth_beyond_int16_rejected(self, monkeypatch):
        # A real path would need 32767 levels; lower the limit instead.
        monkeypatch.setattr(distances, "_UNREACHED", 4)
        path = Graph(6, [(i, i + 1) for i in range(5)])
        with pytest.raises(ValueError, match="int16"):
            hop_distances(path, [0])


class TestBisection:
    def test_two_cliques_one_bridge(self):
        # two K5s plus one bridge: the optimal bisection cuts only the bridge
        e1 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        e2 = [(u + 5, v + 5) for u, v in e1]
        g = Graph(10, e1 + e2 + [(0, 5)], name="barbell")
        cut, side = min_bisection(g, restarts=3, seed=0)
        assert cut == 1
        assert side.sum() == 5

    def test_complete_graph_fraction(self):
        g = complete_graph(8)
        # any balanced split of K8 cuts 16 of 28 edges
        assert bisection_fraction(g, restarts=1) == pytest.approx(16 / 28)

    def test_fraction_bounds(self):
        topo = polarstar_topology(9, p=1)
        frac = bisection_fraction(topo.graph, restarts=2)
        assert 0.0 < frac <= 0.5 + 1e-9

    def test_empty_graph(self):
        assert bisection_fraction(Graph(4, [])) == 0.0


class TestFaults:
    def test_disconnection_ratio_bridge(self):
        # a path graph disconnects at the first removal
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert disconnection_ratio(g, seed=0) == pytest.approx(1 / 3)

    def test_disconnection_ratio_clique_high(self):
        g = complete_graph(8)
        assert disconnection_ratio(g, seed=1) > 0.5

    def test_sweep_monotone_degradation(self):
        topo = polarstar_topology(9, p=1)
        res = link_failure_sweep(topo.graph, [0.0, 0.1, 0.2, 0.3], seed=2)
        assert res.diameters[0] == 3
        assert res.diameters == sorted(res.diameters)[: len(res.diameters)] or (
            res.diameters[-1] >= res.diameters[0]
        )
        assert res.avg_path_lengths[-1] >= res.avg_path_lengths[0]

    def test_sweep_records_disconnection(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        res = link_failure_sweep(g, [0.0, 0.5, 1.0], seed=0)
        assert res.disconnection_ratio <= 1.0
        assert len(res.fractions) < 3

    def test_median_ratio(self):
        g = complete_graph(10)
        med = median_disconnection_ratio(g, scenarios=9, seed=0)
        assert 0.5 < med < 1.0


class TestLayout:
    def test_cluster_sizes(self):
        q = 5
        clusters = supernode_clusters(q)
        counts = np.bincount(clusters)
        assert len(counts) == q + 1
        assert (counts[:q] == q).all()
        assert counts[q] == q + 1

    def test_bundling_report_polarstar(self):
        """§8: 2(d* - q) parallel links per adjacent supernode pair; MCF
        count equals the non-loop structure edges; cable reduction ≈ 2d*/3."""
        topo = polarstar_topology(15, p=1)  # q=11, d'=3
        rep = bundling_report(topo)
        q, dstar = 11, 15
        assert rep.links_per_supernode_pair == 2 * (dstar - q)
        star = topo.meta["star"]
        assert rep.num_bundles == star.structure.m
        assert rep.cable_reduction == pytest.approx(2 * (dstar - q), rel=0.01)
        assert rep.num_clusters == q + 1
        # ≈ q bundles between cluster pairs
        assert rep.mean_bundles_between_clusters == pytest.approx(q, rel=0.5)

    def test_bundling_requires_star(self):
        from repro.topologies import hyperx_topology

        with pytest.raises(ValueError):
            bundling_report(hyperx_topology((3, 3, 3), p=1))


class TestDistanceDistribution:
    def test_polarstar_three_levels(self):
        from repro.analysis.distances import distance_distribution

        topo = polarstar_topology(9, p=1)
        dist = distance_distribution(topo.graph)
        assert len(dist) == 4  # distances 1..3 (index 0 unused)
        assert dist[0] == 0.0
        assert dist.sum() == pytest.approx(1.0)
        # most pairs of a near-Moore graph sit at the diameter
        assert dist[3] > dist[2] > dist[1]

    def test_complete_graph(self):
        from repro.analysis.distances import distance_distribution

        d = distance_distribution(complete_graph(6))
        assert d[1] == pytest.approx(1.0)
