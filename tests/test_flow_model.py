"""Tests for the flow-level model: link loads, saturation, Valiant/UGAL."""

import numpy as np
import pytest

from repro.graphs import Graph
from repro.routing import TableRouter
from repro.sim.flow import (
    link_loads,
    saturation_load,
    ugal_saturation_load,
    valiant_link_loads,
)
from repro.topologies import Topology, dragonfly_topology, polarstar_topology
from repro.topologies.base import uniform_endpoints
from repro.traffic import RandomPermutationPattern, UniformRandomPattern


def line_topology():
    """3 routers in a path, 1 endpoint each."""
    g = Graph(3, [(0, 1), (1, 2)], name="line")
    return Topology(g, uniform_endpoints(3, 1), name="line")


class TestLinkLoads:
    def test_single_flow(self):
        topo = line_topology()
        r = TableRouter(topo.graph)
        demand = np.zeros((3, 3))
        demand[0, 2] = 1.0
        loads = link_loads(topo, r, demand)
        # flow crosses links 0->1 and 1->2 only
        assert loads.sum() == pytest.approx(2.0)
        assert loads.max() == pytest.approx(1.0)

    def test_flow_conservation(self):
        """Sum of link loads == total demand x average hop count."""
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        pat = UniformRandomPattern(topo)
        demand = pat.router_demand()
        loads = link_loads(topo, r, demand)
        # avg hops for diameter-3 graph in (1, 3]
        avg_hops = loads.sum() / demand.sum()
        assert 1.0 < avg_hops <= 3.0

    def test_even_split_on_symmetric_paths(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="C4")
        topo = Topology(g, uniform_endpoints(4, 1), name="C4")
        r = TableRouter(g)
        demand = np.zeros((4, 4))
        demand[0, 3] = 1.0
        loads = link_loads(topo, r, demand, mode="all")
        assert loads.max() == pytest.approx(0.5)

    def test_single_mode_concentrates(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="C4")
        topo = Topology(g, uniform_endpoints(4, 1), name="C4")
        r = TableRouter(g)
        demand = np.zeros((4, 4))
        demand[0, 3] = 1.0
        loads = link_loads(topo, r, demand, mode="single")
        assert loads.max() == pytest.approx(1.0)


class TestSaturation:
    def test_uniform_polarstar_high_throughput(self):
        """§9.5: PS-* sustains > 0.75 injection on uniform with MIN."""
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        demand = UniformRandomPattern(topo).router_demand()
        sat = saturation_load(topo, r, demand, mode="all")
        assert sat > 0.7

    def test_permutation_lower_than_uniform(self):
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        uni = saturation_load(topo, r, UniformRandomPattern(topo).router_demand())
        perm = saturation_load(
            topo, r, RandomPermutationPattern(topo, seed=0).router_demand()
        )
        assert perm <= uni + 1e-9

    def test_ugal_rescues_permutation(self):
        """Adaptive routing beats MIN on permutation traffic (Fig. 9d)."""
        topo = dragonfly_topology(a=6, h=3, p=3)
        r = TableRouter(topo.graph)
        demand = RandomPermutationPattern(topo, seed=1).router_demand()
        min_sat = saturation_load(topo, r, demand, mode="all")
        ugal_sat = ugal_saturation_load(topo, r, demand, mode="all")
        assert ugal_sat >= min_sat

    def test_valiant_loads_double_uniform(self):
        """Valiant's two phases roughly double uniform-traffic load."""
        topo = polarstar_topology(9, p=3)
        r = TableRouter(topo.graph)
        demand = UniformRandomPattern(topo).router_demand()
        lv = valiant_link_loads(topo, r, demand)
        lm = link_loads(topo, r, demand)
        assert 1.5 < lv.sum() / lm.sum() < 2.6

    def test_empty_demand(self):
        topo = line_topology()
        r = TableRouter(topo.graph)
        assert saturation_load(topo, r, np.zeros((3, 3))) == 1.0


# -- the per-pair reference solver -------------------------------------------


def scalar_link_loads(topology, router, demand, mode="all"):
    """Per-pair reference for :func:`link_loads`, independent of its array
    paths: for each destination, every source's demand is pushed down the
    router's own hops (``next_hops`` in ``all`` mode, ``next_hop`` in
    ``single`` mode), one router-distance layer at a time, farthest first."""
    g = topology.graph
    eidx = {}
    for u in range(g.n):
        for v in g.neighbors(u):
            eidx[(u, int(v))] = len(eidx)
    loads = np.zeros(len(eidx))
    for t in range(g.n):
        col = demand[:, t]
        sources = np.nonzero(col)[0]
        if not len(sources):
            continue
        by_dist = {}
        for s in sources:
            layer = by_dist.setdefault(router.distance(int(s), t), {})
            layer[int(s)] = layer.get(int(s), 0.0) + float(col[s])
        for d in range(max(by_dist), 0, -1):
            for u, f in by_dist.get(d, {}).items():
                if f == 0.0:
                    continue
                hops = router.next_hops(u, t) if mode == "all" else [router.next_hop(u, t)]
                share = f / len(hops)
                for v in hops:
                    loads[eidx[(u, v)]] += share
                    layer = by_dist.setdefault(router.distance(v, t), {})
                    layer[v] = layer.get(v, 0.0) + share
    return loads


def bfs_dag_mismatches(router, dist):
    """Pairs ``(u, t)`` where ``router.next_hops`` or ``router.distance``
    differ from the minimal-path DAG of the BFS distance table *dist*."""
    g = router.graph
    bad = []
    for u in range(g.n):
        nbrs = g.neighbors(u)
        closer = dist[nbrs] == dist[u] - 1  # (degree, n)
        for t in range(g.n):
            dag = nbrs[closer[:, t]].tolist()
            if sorted(router.next_hops(u, t)) != dag or router.distance(u, t) != dist[u, t]:
                bad.append((u, t))
    return bad


def assert_loads_match(got, want):
    """Equal to the per-pair reference within 1e-12 relative, link by link
    (the two sum the same positive terms in different orders)."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def sparse_demand(n, seed):
    """Seeded random sparse demand, with some diagonal entries set."""
    rng = np.random.default_rng(seed)
    demand = rng.random((n, n)) * (rng.random((n, n)) < 0.05)
    demand[np.diag_indices(n)] = rng.random(n) * (rng.random(n) < 0.5)
    return demand


def pattern_demands(topo):
    return {
        "uniform": UniformRandomPattern(topo).router_demand(),
        "permutation": RandomPermutationPattern(topo, seed=0).router_demand(),
        "sparse": sparse_demand(topo.graph.n, seed=topo.graph.n),
    }


def _polarstar(kind, q, dprime):
    from repro.core import PolarStarConfig
    from repro.routing import PolarStarRouter

    topo = polarstar_topology(PolarStarConfig(q=q, dprime=dprime, supernode_kind=kind), p=2)
    return topo, PolarStarRouter(topo.meta["star"])


def _small_case(name):
    """(topology, router, mode) of one small config."""
    from repro.routing import DragonflyRouter, HyperXRouter
    from repro.topologies import PolarFlyRouter, hyperx_topology, polarfly_topology

    if name == "PS-IQ":
        return (*_polarstar("iq", 3, 3), "single")
    if name == "PS-Pal":
        return (*_polarstar("paley", 3, 2), "single")
    if name == "DF":
        topo = dragonfly_topology(a=4, h=2, p=2)
        return topo, DragonflyRouter(topo), "single"
    if name == "PF":
        topo = polarfly_topology(5)
        return topo, PolarFlyRouter(topo), "single"
    if name == "HX":
        topo = hyperx_topology((3, 4, 2), p=2)
        return topo, HyperXRouter(topo), "all"
    topo, _ = _polarstar("iq", 3, 3)
    return topo, TableRouter(topo.graph), name.rsplit("-", 1)[1]


def _reduced_case(name):
    """(topology, router, mode): a reduced Table 3 network with its paper
    router, or ``<name>-table-single`` for the table router's single path."""
    from repro import store

    label = name.split("-table-")[0]
    topo = store.table3_topology(label, scale="reduced")
    if "-table-" in name:
        return topo, store.table_router(topo), "single"
    return (topo, *store.table3_router(label, scale="reduced"))


SMALL_CASES = ["PS-IQ", "PS-Pal", "DF", "PF", "HX", "table-single", "table-all"]
REDUCED_CASES = ["PS-IQ", "PS-Pal", "BF", "HX", "DF", "MF", "FT", "BF-table-single"]


class TestScalarOracle:
    """The array solver equals the per-pair reference for every router x
    mode pairing the repo uses: single mode for the analytic routers and
    the table router, all mode for the table router and HyperX."""

    @pytest.mark.parametrize("name", SMALL_CASES)
    def test_small_configs(self, name):
        topo, router, mode = _small_case(name)
        for demand in pattern_demands(topo).values():
            assert_loads_match(
                link_loads(topo, router, demand, mode=mode),
                scalar_link_loads(topo, router, demand, mode=mode),
            )

    @pytest.mark.parametrize("name", REDUCED_CASES)
    def test_reduced_table3(self, name):
        topo, router, mode = _reduced_case(name)
        for demand in pattern_demands(topo).values():
            assert_loads_match(
                link_loads(topo, router, demand, mode=mode),
                scalar_link_loads(topo, router, demand, mode=mode),
            )

    @pytest.mark.parametrize("name", SMALL_CASES)
    def test_flow_identity(self, name):
        """Total load == sum of demand x hops, hops from route_path in
        single mode and from BFS in all mode (no solver loop involved)."""
        from repro.routing import route_path

        topo, router, mode = _small_case(name)
        n = topo.graph.n
        dist = TableRouter(topo.graph).dist
        for demand in pattern_demands(topo).values():
            hops = np.zeros((n, n))
            for s, t in zip(*np.nonzero(demand)):
                if s != t:
                    hops[s, t] = (
                        dist[s, t] if mode == "all" else len(route_path(router, int(s), int(t))) - 1
                    )
            loads = link_loads(topo, router, demand, mode=mode)
            assert loads.sum() == pytest.approx((demand * hops).sum(), rel=1e-12)


class TestAllModeIsTheBfsDag:
    """``mode="all"`` walks the graph's minimal-path DAG, so every router
    paired with it must have exactly that hop set."""

    def test_hyperx_small(self):
        from repro.routing import HyperXRouter
        from repro.topologies import hyperx_topology

        topo = hyperx_topology((3, 4, 2), p=2)
        router = HyperXRouter(topo)
        assert bfs_dag_mismatches(router, TableRouter(topo.graph).dist) == []

    def test_hyperx_reduced_table3(self):
        from repro import store

        topo = store.table3_topology("HX", scale="reduced")
        router, mode = store.table3_router("HX", scale="reduced")
        assert mode == "all"
        assert bfs_dag_mismatches(router, store.distance_table(topo)) == []


class TestInputBoundary:
    def c4(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="C4")
        return Topology(g, uniform_endpoints(4, 1), name="C4")

    def test_unknown_mode_rejected(self):
        topo = self.c4()
        demand = np.zeros((4, 4))
        demand[0, 3] = 1.0
        with pytest.raises(ValueError, match="'all'.*'single'"):
            link_loads(topo, TableRouter(topo.graph), demand, mode="al")

    def test_demand_shape_rejected(self):
        topo = self.c4()
        with pytest.raises(ValueError, match=r"\(4, 4\)"):
            link_loads(topo, TableRouter(topo.graph), np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_or_nonfinite_demand_rejected(self, bad):
        topo = self.c4()
        demand = np.zeros((4, 4))
        demand[0, 3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            link_loads(topo, TableRouter(topo.graph), demand)

    @pytest.mark.parametrize("mode", ["all", "single"])
    def test_unreachable_demand_rejected(self, mode):
        g = Graph(4, [(0, 1), (2, 3)], name="two-pairs")
        topo = Topology(g, uniform_endpoints(4, 1), name="two-pairs")
        demand = np.zeros((4, 4))
        demand[0, 1] = 1.0
        demand[0, 3] = 1.0
        with pytest.raises(ValueError, match="0 to 3|0 towards 3"):
            link_loads(topo, TableRouter(g), demand, mode=mode)

    def test_zero_degree_routers(self):
        """Routers 2 (mid-CSR) and 5 (the last row) have no links; demand
        avoids them, and the all-mode hop counts must not shift."""
        g = Graph(6, [(0, 1), (0, 4), (1, 3), (1, 4), (3, 4)], name="holes")
        topo = Topology(g, uniform_endpoints(6, 1), name="holes")
        r = TableRouter(g)
        demand = np.zeros((6, 6))
        for s, t in [(0, 3), (3, 0), (4, 1), (1, 4), (0, 1), (3, 1)]:
            demand[s, t] = 1.0 + s
        assert_loads_match(link_loads(topo, r, demand), scalar_link_loads(topo, r, demand))

    @pytest.mark.parametrize("mode", ["all", "single"])
    def test_diagonal_demand_ignored(self, mode):
        topo = self.c4()
        r = TableRouter(topo.graph)
        demand = np.zeros((4, 4))
        demand[0, 3] = 1.0
        with_diag = demand + np.diag([5.0, 0.0, 2.0, 7.0])
        np.testing.assert_array_equal(
            link_loads(topo, r, with_diag, mode=mode), link_loads(topo, r, demand, mode=mode)
        )


class _ScriptedRouter(TableRouter):
    """Table router whose batched next hops come from a fixed table; it
    gives up after ``4 n`` batches, so a walk that never stops fails
    instead of hanging."""

    def __init__(self, graph, hops):
        super().__init__(graph)
        self.hops = np.asarray(hops, dtype=np.int64)
        self.batches = 0

    def next_hop_batch(self, current, dest):
        self.batches += 1
        if self.batches > 4 * self.graph.n:
            raise AssertionError("the walk never stopped")
        return self.hops[current, dest]


class TestSingleWalkRejectsBadRoutes:
    def walk(self, hop_03, hop_13=3):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="C4")
        topo = Topology(g, uniform_endpoints(4, 1), name="C4")
        hops = np.full((4, 4), -1)
        hops[0, 3], hops[1, 3] = hop_03, hop_13
        demand = np.zeros((4, 4))
        demand[0, 3] = 1.0
        return link_loads(topo, _ScriptedRouter(g, hops), demand, mode="single")

    def test_scripted_route_walks(self):
        loads = self.walk(hop_03=1)
        assert loads.sum() == 2.0 and loads.max() == 1.0

    def test_missing_hop(self):
        with pytest.raises(ValueError, match="no next hop from router 0 towards 3"):
            self.walk(hop_03=-1)

    @pytest.mark.parametrize("hop", [3, 7])
    def test_hop_to_a_non_neighbour(self, hop):
        with pytest.raises(ValueError, match="not a neighbour"):
            self.walk(hop_03=hop)

    def test_routing_loop(self):
        with pytest.raises(RuntimeError, match="routing loop"):
            self.walk(hop_03=1, hop_13=0)


BATCH_ROUTERS = [
    "table-disconnected",
    "polarstar-iq",
    "polarstar-paley",
    "dragonfly",
    "polarfly",
    "hyperx",
    "fault-aware",
    "reduced-PS-IQ",
    "reduced-PS-Pal",
    "reduced-DF",
]


def _batch_router(name):
    """One router of every class, each on a network it routes."""
    from repro.faults import FaultAwareRouter, LinkHealth, permanent_link_failures
    from repro.routing import DragonflyRouter, HyperXRouter
    from repro.topologies import PolarFlyRouter, hyperx_topology, polarfly_topology

    if name == "table-disconnected":
        return TableRouter(Graph(6, [(0, 1), (1, 2), (3, 4)], name="split"))
    if name.startswith("reduced-"):
        from repro import store

        return store.table3_router(name.split("-", 1)[1], scale="reduced")[0]
    if name.startswith("polarstar-"):
        return _polarstar(name.split("-")[1], 3, 3 if name.endswith("iq") else 2)[1]
    if name == "dragonfly":
        return DragonflyRouter(dragonfly_topology(a=4, h=2, p=2))
    if name == "polarfly":
        return PolarFlyRouter(polarfly_topology(5))
    if name == "hyperx":
        return HyperXRouter(hyperx_topology((3, 4, 2), p=2))
    topo, _ = _polarstar("iq", 3, 3)
    health = LinkHealth(topo.graph)
    health.apply_schedule(permanent_link_failures(topo.graph, 0.05, seed=0))
    return FaultAwareRouter(TableRouter(topo.graph), health)


class TestNextHopBatch:
    @pytest.mark.parametrize("name", BATCH_ROUTERS)
    def test_matches_next_hop_pair_by_pair(self, name):
        router = _batch_router(name)
        n = router.graph.n
        cur = np.repeat(np.arange(n), n)
        dst = np.tile(np.arange(n), n)
        got = router.next_hop_batch(cur, dst)
        assert got.dtype == np.int64 and got.shape == (n * n,)
        want = []
        for u, t in zip(cur.tolist(), dst.tolist()):
            try:
                want.append(-1 if u == t else router.next_hop(u, t))
            except ValueError:
                want.append(-1)  # unreachable
        np.testing.assert_array_equal(got, want)
        assert (got.reshape(n, n).diagonal() == -1).all()
        if name == "table-disconnected":
            assert got.reshape(n, n)[0, 3] == -1 and got.reshape(n, n)[0, 5] == -1

    @pytest.mark.parametrize("name", BATCH_ROUTERS)
    def test_distance_batch_matches_distance_pair_by_pair(self, name):
        router = _batch_router(name)
        n = router.graph.n
        cur = np.repeat(np.arange(n), n)
        dst = np.tile(np.arange(n), n)
        got = router.distance_batch(cur, dst)
        assert got.dtype == np.int64 and got.shape == (n * n,)
        want = [router.distance(u, t) for u, t in zip(cur.tolist(), dst.tolist())]
        np.testing.assert_array_equal(got, want)
        assert (got.reshape(n, n).diagonal() == 0).all()
