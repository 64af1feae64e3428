"""Routing tests: the analytic PolarStar router is validated against a BFS
oracle on every vertex pair of several PolarStar instances, and its array
kernel on every pair of every feasible configuration up to radix 16."""

import numpy as np
import pytest

from repro.analysis import hop_distances
from repro.core import PolarStarConfig, build_polarstar, design_space
from repro.routing import (
    DragonflyRouter,
    HyperXRouter,
    PolarStarRouter,
    TableRouter,
    UgalPolicy,
    route_path,
    valiant_path,
)
from repro.topologies import dragonfly_topology, hyperx_topology

PS_CONFIGS = [
    PolarStarConfig(q=2, dprime=0, supernode_kind="iq"),
    PolarStarConfig(q=2, dprime=3, supernode_kind="iq"),
    PolarStarConfig(q=3, dprime=3, supernode_kind="iq"),
    PolarStarConfig(q=3, dprime=4, supernode_kind="iq"),
    PolarStarConfig(q=4, dprime=3, supernode_kind="iq"),
    PolarStarConfig(q=5, dprime=4, supernode_kind="iq"),
    PolarStarConfig(q=2, dprime=2, supernode_kind="paley"),
    PolarStarConfig(q=3, dprime=2, supernode_kind="paley"),
    PolarStarConfig(q=4, dprime=4, supernode_kind="paley"),
    PolarStarConfig(q=5, dprime=2, supernode_kind="paley"),
]

#: Every feasible (q, d', kind) of radix 3..16: 72 configs, 20.3M pairs.
DESIGN_SPACE = [cfg for radix in range(3, 17) for cfg in design_space(radix)]


def assert_routes_match_bfs(router, max_pairs=2_000_000):
    """Check a router's array kernel on every (u, t) pair against BFS.

    ``distance_batch`` must equal the BFS hop distance, and a lockstep walk
    of every pair through ``next_hop_batch`` must cross only real links and
    arrive in exactly that many hops.  Sources go in blocks of at most
    *max_pairs* pairs, each with its own :func:`hop_distances` rows (the
    rows of ``build_distance_table``), so memory stays bounded.  Returns
    the number of pairs checked.
    """
    graph = router.graph
    n = graph.n
    adj = np.zeros((n, n), dtype=bool)
    adj[np.repeat(np.arange(n), np.diff(graph.indptr)), graph.indices] = True
    rows = max(1, max_pairs // n)
    for lo in range(0, n, rows):
        sources = np.arange(lo, min(lo + rows, n))
        bfs = hop_distances(graph, sources).ravel()
        cur = np.repeat(sources, n)
        dst = np.tile(np.arange(n), len(sources))
        np.testing.assert_array_equal(router.distance_batch(cur, dst), bfs, err_msg=graph.name)
        hops = np.zeros(len(cur), dtype=np.int64)
        live = np.flatnonzero(cur != dst)
        at = cur[live]
        for _ in range(int(bfs.max())):
            nxt = router.next_hop_batch(at, dst[live])
            bad = (nxt < 0) | ~adj[at, np.maximum(nxt, 0)]
            assert not bad.any(), (
                f"{graph.name}: hop {at[bad][0]} -> {nxt[bad][0]} towards "
                f"{dst[live][bad][0]} is not a link"
            )
            hops[live] += 1
            going = nxt != dst[live]
            live, at = live[going], nxt[going]
        assert not len(live), f"{graph.name}: {len(live)} walks longer than BFS"
        np.testing.assert_array_equal(hops, bfs, err_msg=graph.name)
    return n * n


class TestTableRouter:
    def test_next_hops_move_closer(self):
        sp = build_polarstar(PS_CONFIGS[2])
        r = TableRouter(sp.graph)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u, t = rng.integers(0, sp.graph.n, 2)
            if u == t:
                assert r.next_hops(int(u), int(t)) == []
                continue
            for v in r.next_hops(int(u), int(t)):
                assert r.distance(v, int(t)) == r.distance(int(u), int(t)) - 1

    def test_route_path_length(self):
        sp = build_polarstar(PS_CONFIGS[2])
        r = TableRouter(sp.graph)
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, t = map(int, rng.integers(0, sp.graph.n, 2))
            path = route_path(r, u, t)
            assert len(path) - 1 == r.distance(u, t)

    def test_num_minimal_paths_triangle(self):
        from repro.graphs import Graph

        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])  # 4-cycle
        r = TableRouter(g)
        assert r.num_minimal_paths(0, 3) == 2
        assert r.num_minimal_paths(0, 1) == 1
        assert r.num_minimal_paths(0, 0) == 1


@pytest.mark.parametrize("cfg", PS_CONFIGS, ids=lambda c: c.name)
class TestPolarStarRouterOracle:
    """§9.2: the analytic router is exactly minimal — every pair checked."""

    def test_distances_match_bfs(self, cfg):
        sp = build_polarstar(cfg)
        analytic = PolarStarRouter(sp)
        oracle = TableRouter(sp.graph)
        n = sp.graph.n
        for u in range(n):
            for t in range(n):
                assert analytic.distance(u, t) == oracle.distance(u, t), (
                    f"{cfg.name}: dist({sp.split(u)}, {sp.split(t)})"
                )

    def test_paths_are_minimal(self, cfg):
        sp = build_polarstar(cfg)
        analytic = PolarStarRouter(sp)
        oracle = TableRouter(sp.graph)
        n = sp.graph.n
        for u in range(n):
            for t in range(n):
                path = route_path(analytic, u, t, max_hops=6)
                assert len(path) - 1 == oracle.distance(u, t), (
                    f"{cfg.name}: path {[sp.split(v) for v in path]}"
                )
                for a, b in zip(path, path[1:]):
                    assert sp.graph.has_edge(a, b)


class TestPolarStarRouterScale:
    def test_table3_config_sampled(self):
        """The full PS-IQ Table 3 network: sampled pairs routed minimally."""
        sp = build_polarstar(PolarStarConfig(q=11, dprime=3, supernode_kind="iq"))
        analytic = PolarStarRouter(sp)
        oracle = TableRouter(sp.graph)
        rng = np.random.default_rng(7)
        for _ in range(2000):
            u, t = map(int, rng.integers(0, sp.graph.n, 2))
            path = route_path(analytic, u, t, max_hops=6)
            assert len(path) - 1 == oracle.distance(u, t)

    def test_storage_beats_tables(self):
        """§9.3: analytic state is far smaller than all-minpath tables."""
        sp = build_polarstar(PolarStarConfig(q=11, dprime=3, supernode_kind="iq"))
        analytic = PolarStarRouter(sp)
        table = TableRouter(sp.graph)
        assert analytic.table_bytes < table.table_bytes / 5


@pytest.mark.parametrize("cfg", DESIGN_SPACE, ids=lambda c: c.name)
def test_kernel_matches_bfs_on_the_design_space(cfg):
    """§9.2 at every feasible radix-3..16 config: the array kernel's
    distances and walked paths equal BFS on every pair."""
    assert assert_routes_match_bfs(PolarStarRouter(build_polarstar(cfg))) == cfg.order**2


def _id_check_router(name):
    topo = dragonfly_topology(a=4, h=2, p=2)
    if name.startswith("polarstar"):
        return PolarStarRouter(build_polarstar(PS_CONFIGS[2 if name.endswith("iq") else 7]))
    if name == "dragonfly":
        return DragonflyRouter(topo)
    if name == "table":
        return TableRouter(topo.graph)
    return HyperXRouter(hyperx_topology((3, 4, 2), p=2))


@pytest.mark.parametrize("name", ["polarstar-iq", "polarstar-paley", "dragonfly", "table", "hyperx"])
@pytest.mark.parametrize("method", ["next_hop_batch", "distance_batch"])
def test_batch_ids_outside_the_network_raise(name, method):
    """A negative id would wrap under fancy indexing; every batch entry
    point rejects ids outside [0, n) and malformed id arrays instead."""
    router = _id_check_router(name)
    call = getattr(router, method)
    n = router.graph.n
    for cur, dst in [([0, -1], [1, 2]), ([0, 1], [n, 2]), ([0.0], [1]), ([[0]], [[1]]), ([0, 1], [1])]:
        with pytest.raises(ValueError):
            call(np.array(cur), np.array(dst))
    assert call(np.array([0, n - 1]), np.array([n - 1, 0])).shape == (2,)
    assert call(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).shape == (0,)


class TestDragonflyRouter:
    def test_lgl_paths_valid(self):
        """Dragonfly MIN is hierarchically minimal (local-global-local, as in
        Booksim): never longer than 3 hops, never shorter than the graph
        distance, and every hop is a real link."""
        topo = dragonfly_topology(a=4, h=2, p=2)
        r = DragonflyRouter(topo)
        oracle = TableRouter(topo.graph)
        n = topo.num_routers
        for u in range(n):
            for t in range(n):
                path = route_path(r, u, t)
                assert len(path) - 1 == r.distance(u, t) <= 3
                assert r.distance(u, t) >= oracle.distance(u, t)
                for a, b in zip(path, path[1:]):
                    assert topo.graph.has_edge(a, b)

    def test_diameter3(self):
        topo = dragonfly_topology(a=6, h=3, p=3)
        r = DragonflyRouter(topo)
        assert max(
            r.distance(u, t) for u in range(0, topo.num_routers, 7) for t in range(topo.num_routers)
        ) == 3


class TestHyperXRouter:
    def test_matches_bfs(self):
        topo = hyperx_topology((3, 4, 2), p=2)
        r = HyperXRouter(topo)
        oracle = TableRouter(topo.graph)
        n = topo.num_routers
        for u in range(n):
            for t in range(n):
                assert r.distance(u, t) == oracle.distance(u, t)
                hops = r.next_hops(u, t)
                if u != t:
                    for v in hops:
                        assert topo.graph.has_edge(u, v)
                        assert r.distance(v, t) == r.distance(u, t) - 1

    def test_path_diversity(self):
        topo = hyperx_topology((3, 3, 3), p=2)
        r = HyperXRouter(topo)
        # routers differing in all 3 dims have 3 minimal first hops
        assert len(r.next_hops(0, topo.num_routers - 1)) == 3


class TestUgal:
    def test_valiant_path_valid(self):
        topo = dragonfly_topology(a=4, h=2, p=2)
        r = TableRouter(topo.graph)
        path = valiant_path(r, 0, 10, 20)
        assert path[0] == 0 and path[-1] == 10 and 20 in path
        for a, b in zip(path, path[1:]):
            assert topo.graph.has_edge(a, b)

    def test_ugal_prefers_minimal_when_uncongested(self):
        topo = dragonfly_topology(a=4, h=2, p=2)
        r = TableRouter(topo.graph)
        policy = UgalPolicy(r, samples=4, seed=0)
        decisions = [policy.choose(0, t, lambda u, v: 0.0) for t in range(1, 30)]
        assert all(d.minimal for d in decisions)

    def test_ugal_misroutes_under_congestion(self):
        topo = dragonfly_topology(a=4, h=2, p=2)
        r = TableRouter(topo.graph)
        policy = UgalPolicy(r, samples=8, seed=1)
        # Congestion only on the minimal first hop.
        dest = 30
        min_next = r.next_hop(0, dest)

        def queue(u, v):
            return 50.0 if (u == 0 and v == min_next) else 0.0

        decision = policy.choose(0, dest, queue)
        assert not decision.minimal
        assert decision.intermediate is not None
