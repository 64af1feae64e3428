"""Tests for the repro.faults subsystem and its simulator integration."""

import json
import weakref

import numpy as np
import pytest

from repro.analysis.distances import average_path_length, bfs_distances, diameter
from repro.analysis.faults import (
    ConnectivityProber,
    disconnection_ratio,
    link_failure_sweep,
)
from repro.faults import (
    FaultAwareRouter,
    FaultEvent,
    FaultSchedule,
    LinkHealth,
    RouteUnavailableError,
    UNREACHABLE,
    degraded_links,
    link_flaps,
    node_failures,
    permanent_link_failures,
)
from repro.graphs import Graph, er_polarity_graph
from repro.routing import PolarStarRouter, TableRouter
from repro.sim.packet import PacketSimConfig, PacketSimulator
from repro.topologies import dragonfly_topology, polarstar_topology
from repro.traffic import UniformRandomPattern

FAST = PacketSimConfig(warmup_cycles=300, measure_cycles=1200, drain_cycles=1500, seed=1)


@pytest.fixture(scope="module")
def small_ps():
    return polarstar_topology(7, p=2)  # q=3, d'=3: 104 routers


@pytest.fixture(scope="module")
def graph(small_ps):
    return small_ps.graph


class _SetModel:
    """Independent oracle: replays fault events into plain sets and dicts
    and answers every health question with Python loops over them."""

    def __init__(self, graph, events):
        self.graph = graph
        self.down_links: set[tuple[int, int]] = set()
        self.down_nodes: set[int] = set()
        self.degraded: dict[tuple[int, int], float] = {}
        for ev in events:
            if ev.is_node_event:
                if ev.kind == "node_down":
                    self.down_nodes.add(ev.u)
                else:
                    self.down_nodes.discard(ev.u)
            elif ev.kind == "link_degrade":
                self.degraded[ev.edge()] = ev.factor
            else:
                self.degraded.pop(ev.edge(), None)
                if ev.kind == "link_down":
                    self.down_links.add(ev.edge())
                else:
                    self.down_links.discard(ev.edge())

    def up(self, u, v):
        e = (u, v) if u < v else (v, u)
        return (
            u not in self.down_nodes
            and v not in self.down_nodes
            and e not in self.down_links
        )

    def bfs(self, source):
        """The level-synchronous Python BFS ``LinkHealth.bfs_from`` used
        to run, over the set model."""
        g = self.graph
        dist = np.full(g.n, UNREACHABLE, dtype=np.int64)
        if source in self.down_nodes:
            return dist
        dist[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in g.neighbors(u):
                    vi = int(v)
                    if dist[vi] == UNREACHABLE and self.up(u, vi):
                        dist[vi] = d
                        nxt.append(vi)
            frontier = nxt
        return dist

    def healthy_graph(self):
        g = self.graph
        edges = [(u, v) for u, v in g.edges() if self.up(u, v)]
        loops = [int(v) for v in g.self_loops if int(v) not in self.down_nodes]
        return Graph(g.n, edges, self_loops=loops)

    def links_down_count(self):
        dead = set(self.down_links)
        for x in self.down_nodes:
            for v in self.graph.neighbors(x):
                vi = int(v)
                dead.add((x, vi) if x < vi else (vi, x))
        return len(dead)


def _mixed_events(graph, seed, steps=60):
    """Seeded interleaving of every event kind (degrades of down links and
    restores of healthy ones included)."""
    rng = np.random.default_rng(seed)
    kinds = ("link_down", "link_down", "link_up", "link_degrade", "node_down", "node_up")
    events = []
    for t in range(steps):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind.startswith("node"):
            events.append(FaultEvent(t, kind, int(rng.integers(0, graph.n))))
            continue
        u, v = map(int, graph.edge_array[int(rng.integers(0, graph.m))])
        factor = float(rng.choice([1.0, 1.5, 2.0, 3.25])) if kind == "link_degrade" else 1.0
        events.append(FaultEvent(t, kind, u, v, factor=factor))
    return events


ORACLE_GRAPHS = {
    "ps": lambda: polarstar_topology(7, p=2).graph,
    "df": lambda: dragonfly_topology(4, 2).graph,
    "er5": lambda: er_polarity_graph(5),  # has self-loops
}


@pytest.fixture(scope="module", params=sorted(ORACLE_GRAPHS))
def oracle_graph(request):
    return ORACLE_GRAPHS[request.param]()


class TestKernelOracles:
    """LinkHealth's array kernels against the independent set model."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bfs_from_every_source(self, oracle_graph, seed):
        events = _mixed_events(oracle_graph, seed)
        h = LinkHealth(oracle_graph)
        h.apply_schedule(FaultSchedule(events))
        model = _SetModel(oracle_graph, events)
        assert model.down_nodes and model.down_links  # the mix is exercised
        scipy_bfs = bfs_distances(h.healthy_graph(), np.arange(oracle_graph.n))
        for src in range(oracle_graph.n):
            got = h.bfs_from(src)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, model.bfs(src))
            if src in model.down_nodes:
                continue  # the healthy graph keeps a down node, isolated
            ref = scipy_bfs[src]
            np.testing.assert_array_equal(
                got, np.where(np.isinf(ref), UNREACHABLE, ref).astype(np.int64)
            )
        np.testing.assert_array_equal(
            h.bfs_many(range(oracle_graph.n)),
            np.stack([h.bfs_from(s) for s in range(oracle_graph.n)]),
        )

    def test_down_source_reaches_nothing(self, oracle_graph):
        h = LinkHealth(oracle_graph)
        h.apply(FaultEvent(0, "node_down", 3))
        assert (h.bfs_from(3) == UNREACHABLE).all()
        rows = h.bfs_many([0, 3, 1])
        assert (rows[1] == UNREACHABLE).all()
        assert rows[0, 0] == 0 and rows[2, 1] == 0 and rows[0, 3] == UNREACHABLE

    @pytest.mark.parametrize("seed", range(4))
    def test_entry_views_match_per_link_loop(self, oracle_graph, seed):
        events = _mixed_events(oracle_graph, seed)
        h = LinkHealth(oracle_graph)
        h.apply_schedule(FaultSchedule(events))
        model = _SetModel(oracle_graph, events)
        up, factor = h.entry_up(), h.entry_factor()
        g = oracle_graph
        lid = 0
        for u in range(g.n):
            for v in map(int, g.neighbors(u)):
                assert up[lid] == h.is_up(u, v) == model.up(u, v)
                e = (u, v) if u < v else (v, u)
                assert factor[lid] == h.degrade_factor(u, v) == model.degraded.get(e, 1.0)
                lid += 1
        assert lid == len(up) == len(factor)
        with pytest.raises(ValueError):
            factor[0] = 9.0  # a read-only view

    @pytest.mark.parametrize("seed", range(4))
    def test_healthy_graph_and_links_down(self, oracle_graph, seed):
        events = _mixed_events(oracle_graph, seed)
        h = LinkHealth(oracle_graph)
        h.apply_schedule(FaultSchedule(events))
        model = _SetModel(oracle_graph, events)
        assert h.healthy_graph() == model.healthy_graph()
        assert h.links_down_count() == model.links_down_count()
        assert h.clean == (not model.down_links and not model.down_nodes and not model.degraded)

    def test_cached_column_recomputed_after_apply(self, oracle_graph):
        g = oracle_graph
        h = LinkHealth(g)
        router = FaultAwareRouter(TableRouter(g), h)
        h.apply(FaultEvent(0, "link_down", *map(int, g.edge_array[0])))
        dest = int(g.edge_array[0, 1])

        def column():
            return np.array([router.distance(s, dest) for s in range(g.n)])

        before = column()
        assert router.recompute_lazy == 1
        # Cut every link into dest but one: its cached column must change.
        nbrs = [int(v) for v in g.neighbors(dest)]
        events = [FaultEvent(1, "link_down", dest, v) for v in nbrs[1:]]
        for ev in events:
            h.apply(ev)
        after = column()
        assert router.recompute_eager == 1 and router.recompute_lazy == 1
        model = _SetModel(g, [FaultEvent(0, "link_down", *map(int, g.edge_array[0]))] + events)
        np.testing.assert_array_equal(after, model.bfs(dest))
        assert not np.array_equal(before, after)


class TestFaultModel:
    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf"), 0.5, 0.0])
    def test_degrade_factor_must_be_finite_slowdown(self, graph, factor):
        with pytest.raises(ValueError):
            FaultEvent(0, "link_degrade", 0, 1, factor=factor)
        with pytest.raises(ValueError):
            degraded_links(graph, 0.1, factor=factor)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "0.5"])
    def test_json_degrade_factor_rejected(self, literal):
        obj = json.loads(
            '{"time": 0, "kind": "link_degrade", "u": 0, "v": 1, "factor": %s}' % literal
        )
        with pytest.raises(ValueError):
            FaultEvent.from_jsonable(obj)

    @pytest.mark.parametrize("factor", [1.0, 2.5])
    def test_degrade_factor_accepted(self, graph, factor):
        assert FaultEvent(0, "link_degrade", 0, 1, factor=factor).factor == factor
        assert len(degraded_links(graph, 0.1, factor=factor)) == round(0.1 * graph.m)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(0, "meteor_strike", 0, 1)
        with pytest.raises(ValueError):
            FaultEvent(-1, "link_down", 0, 1)
        with pytest.raises(ValueError):
            FaultEvent(0, "node_down", 0, v=1)  # node events leave v=-1
        with pytest.raises(ValueError):
            FaultEvent(0, "link_down", 0)  # link events need both endpoints
        with pytest.raises(ValueError):
            FaultEvent(0, "link_degrade", 0, 1, factor=0.5)  # speedup forbidden

    def test_edge_is_canonical(self):
        assert FaultEvent(0, "link_down", 5, 2).edge() == (2, 5)

    def test_schedule_sorts_and_validates(self, graph):
        u, v = map(int, graph.edge_array[0])
        evs = [FaultEvent(10, "link_up", u, v), FaultEvent(5, "link_down", u, v)]
        sched = FaultSchedule(evs, graph=graph)
        assert [e.time for e in sched] == [5, 10]
        with pytest.raises(ValueError):
            FaultSchedule([FaultEvent(0, "node_down", graph.n + 7)], graph=graph)
        with pytest.raises(ValueError):
            # (u, u+something) chosen to not be an edge: use two non-adjacent
            # vertices found by scanning.
            w = next(
                x for x in range(graph.n) if x != u and not graph.has_edge(u, x)
            )
            FaultSchedule([FaultEvent(0, "link_down", u, w)], graph=graph)

    def test_generators_deterministic(self, graph):
        a = permanent_link_failures(graph, 0.1, seed=3)
        b = permanent_link_failures(graph, 0.1, seed=3)
        assert a == b and len(a) == round(0.1 * graph.m)
        assert permanent_link_failures(graph, 0.1, seed=4) != a
        f1 = link_flaps(graph, 5, horizon=2000, seed=7)
        f2 = link_flaps(graph, 5, horizon=2000, seed=7)
        assert f1 == f2
        # flaps alternate down/up per link and stay inside the horizon
        assert all(ev.time < 2000 for ev in f1)

    def test_schedule_merge_and_summary(self, graph):
        merged = permanent_link_failures(graph, 0.05, seed=1) + node_failures(
            graph, 2, seed=2
        )
        s = merged.summary()
        assert s["events"] == len(merged)
        assert s["by_kind"]["node_down"] == 2
        assert s["nodes_touched"] == 2


class TestLinkHealth:
    def test_apply_and_reset(self, graph):
        h = LinkHealth(graph)
        u, v = map(int, graph.edge_array[0])
        assert h.clean and h.is_up(u, v)
        h.apply(FaultEvent(0, "link_down", u, v))
        assert not h.is_up(u, v) and not h.is_up(v, u)
        assert h.links_down_count() == 1 and h.epoch == 1
        h.apply(FaultEvent(1, "link_up", u, v))
        assert h.is_up(u, v) and h.clean
        h.apply(FaultEvent(2, "node_down", u))
        assert not h.is_up(u, v) and h.nodes_down_count() == 1
        assert len(h.healthy_neighbors(u)) == 0
        h.reset()
        assert h.clean and h.epoch == 4

    def test_node_up_leaves_failed_links_down(self, graph):
        h = LinkHealth(graph)
        u, v = map(int, graph.edge_array[0])
        h.apply(FaultEvent(0, "link_down", u, v))
        h.apply(FaultEvent(1, "node_down", u))
        h.apply(FaultEvent(2, "node_up", u))
        assert h.node_up(u) and not h.is_up(u, v)

    def test_degrade_factor(self, graph):
        h = LinkHealth(graph)
        u, v = map(int, graph.edge_array[0])
        h.apply(FaultEvent(0, "link_degrade", u, v, factor=2.5))
        assert h.degrade_factor(u, v) == h.degrade_factor(v, u) == 2.5
        assert h.is_up(u, v)  # degraded, not down
        h.apply(FaultEvent(1, "link_up", u, v))
        assert h.degrade_factor(u, v) == 1.0

    def test_unknown_link_rejected(self, graph):
        h = LinkHealth(graph)
        u = 0
        w = next(x for x in range(1, graph.n) if not graph.has_edge(u, x))
        with pytest.raises(ValueError):
            h.apply(FaultEvent(0, "link_down", u, w))

    def test_bfs_matches_healthy_graph(self, graph):
        h = LinkHealth(graph)
        h.apply_schedule(permanent_link_failures(graph, 0.2, seed=5))
        sub = h.healthy_graph()
        dist = h.bfs_from(0)
        # spot-check against a BFS on the materialized healthy graph
        table = TableRouter(sub)
        for dest in (1, graph.n // 2, graph.n - 1):
            d = table.distance(0, dest)
            if dist[dest] >= UNREACHABLE:
                assert d < 0 or d >= UNREACHABLE or not np.isfinite(d)
            else:
                assert d == dist[dest]


class TestFaultAwareRouter:
    def test_fault_free_hop_for_hop_identical(self, small_ps):
        """Property: with a clean mask the wrapper IS the wrapped router."""
        graph = small_ps.graph
        inner = PolarStarRouter(small_ps.meta["star"])
        wrapped = FaultAwareRouter(
            PolarStarRouter(small_ps.meta["star"]), LinkHealth(graph)
        )
        rng = np.random.default_rng(0)
        for _ in range(200):
            s, d = map(int, rng.integers(0, graph.n, size=2))
            assert wrapped.next_hops(s, d) == inner.next_hops(s, d)
            assert wrapped.distance(s, d) == inner.distance(s, d)

    def test_routes_around_failure(self, small_ps):
        graph = small_ps.graph
        h = LinkHealth(graph)
        router = FaultAwareRouter(TableRouter(graph), h)
        # fail every primary next-hop link out of source toward dest
        src, dest = 0, graph.n - 1
        for hop in TableRouter(graph).next_hops(src, dest):
            h.apply(FaultEvent(0, "link_down", src, hop))
        hops, rung = router.route_hops(src, dest)
        assert hops and rung in ("recomputed", "detour")
        for hop in hops:
            assert h.is_up(src, hop)

    def test_unreachable_raises(self, graph):
        h = LinkHealth(graph)
        router = FaultAwareRouter(TableRouter(graph), h)
        victim = 1
        for v in graph.neighbors(victim):
            h.apply(FaultEvent(0, "link_down", victim, int(v)))
        assert router.next_hops(0, victim) == []
        with pytest.raises(RouteUnavailableError):
            router.next_hop(0, victim)
        assert router.distance(0, victim) >= UNREACHABLE

    def test_cut_off_destination_follows_router_contract(self):
        """On the path 0-1-2-3 with link 1-2 down, destination 3 is cut off
        from 0: ``next_hops`` is empty and the batch and table give -1,
        like any router; ``next_hop`` still raises for the engines."""
        from repro.routing.table import next_hop_table

        g = Graph(4, [(0, 1), (1, 2), (2, 3)], name="path4")
        h = LinkHealth(g)
        h.apply(FaultEvent(0, "link_down", 1, 2))
        router = FaultAwareRouter(TableRouter(g), h)
        assert router.next_hops(0, 3) == []
        assert router.next_hop_batch(np.array([0]), np.array([3])).tolist() == [-1]
        table = next_hop_table(router)
        assert table[0, 3] == -1 and table[0, 1] == 1 and table[3, 2] == 2
        with pytest.raises(RouteUnavailableError):
            router.next_hop(0, 3)
        with pytest.raises(ValueError):
            router.next_hop(0, 0)

    def test_detour_fires_with_exclusions(self, graph):
        h = LinkHealth(graph)
        h.apply(FaultEvent(0, "link_down", *map(int, graph.edge_array[0])))
        router = FaultAwareRouter(TableRouter(graph), h)
        rng = np.random.default_rng(1)
        fired = False
        for _ in range(300):
            s, d = map(int, rng.integers(0, graph.n, size=2))
            if s == d:
                continue
            minimal = set(router.route_hops(s, d)[0])
            exclude = tuple(
                hop
                for hop in map(int, h.healthy_neighbors(s))
                if hop in minimal or router.distance(hop, d) < router.distance(s, d)
            )
            try:
                hops, rung = router.route_hops(s, d, exclude=exclude)
            except RouteUnavailableError:
                continue
            if rung == "detour":
                fired = True
                assert all(hop not in exclude for hop in hops)
                break
        assert fired

    def test_epoch_invalidation_and_recompute_budget(self, graph):
        h = LinkHealth(graph)
        router = FaultAwareRouter(TableRouter(graph), h, recompute_budget=2)
        u, v = map(int, graph.edge_array[0])
        h.apply(FaultEvent(0, "link_down", u, v))
        for dest in (5, 6, 7, 8):
            router.route_hops(0, dest)
        assert router.recompute_lazy == 4
        h.apply(FaultEvent(1, "link_up", u, v))
        h.apply(FaultEvent(2, "link_down", u, v))
        router.sync()
        assert router.recompute_eager == 2  # budget caps the eager burst
        assert router.recompute_batches[-1] == 2


class TestSimIntegration:
    def test_fault_free_run_identical_with_wrapper(self, small_ps):
        """Property: wrapping the router (clean mask, no schedule) changes
        nothing about the simulation."""
        pat = UniformRandomPattern(small_ps)
        base = PacketSimulator(
            small_ps, TableRouter(small_ps.graph), pat, FAST
        ).run(0.3)
        wrapped = PacketSimulator(
            small_ps,
            FaultAwareRouter(TableRouter(small_ps.graph), LinkHealth(small_ps.graph)),
            pat,
            FAST,
        ).run(0.3)
        for f in ("avg_latency", "p99_latency", "delivered", "injected",
                  "avg_hops", "throughput"):
            assert getattr(base, f) == getattr(wrapped, f), f

    def test_same_seed_same_results(self, small_ps):
        """Property: identical seeds give identical schedules AND identical
        simulation outcomes, including on repeated run() of one simulator."""
        pat = UniformRandomPattern(small_ps)

        def once():
            sched = permanent_link_failures(small_ps.graph, 0.1, seed=9)
            sim = PacketSimulator(
                small_ps, TableRouter(small_ps.graph), pat, FAST, faults=sched
            )
            r = sim.run(0.3)
            return (r.avg_latency, r.delivered, r.dropped, r.reroutes,
                    r.drop_causes)

        a, b = once(), once()
        assert a == b
        sched = permanent_link_failures(small_ps.graph, 0.1, seed=9)
        sim = PacketSimulator(
            small_ps, TableRouter(small_ps.graph), pat, FAST, faults=sched
        )
        assert (sim.run(0.3).delivered,) == (sim.run(0.3).delivered,)

    def test_delivered_fraction_high_at_ten_percent(self, small_ps):
        sched = permanent_link_failures(small_ps.graph, 0.1, seed=4)
        sim = PacketSimulator(
            small_ps, TableRouter(small_ps.graph), UniformRandomPattern(small_ps),
            FAST, faults=sched,
        )
        res = sim.run(0.3)
        assert res.delivered_fraction > 0.9
        assert res.delivered + res.dropped <= res.injected + res.dropped

    def test_node_failure_drops_attached_traffic(self, small_ps):
        sched = node_failures(small_ps.graph, 3, seed=2, time=0)
        sim = PacketSimulator(
            small_ps, TableRouter(small_ps.graph), UniformRandomPattern(small_ps),
            FAST, faults=sched,
        )
        res = sim.run(0.3)
        assert res.dropped > 0
        assert set(res.drop_causes) <= {"node_down", "unreachable", "ttl", "retries"}
        assert res.delivered_fraction > 0.5  # degraded, not collapsed

    def test_degraded_links_raise_latency_without_drops(self, small_ps):
        pat = UniformRandomPattern(small_ps)
        base = PacketSimulator(
            small_ps, TableRouter(small_ps.graph), pat, FAST
        ).run(0.3)
        sched = degraded_links(small_ps.graph, 0.3, factor=3.0, seed=5)
        slow = PacketSimulator(
            small_ps, TableRouter(small_ps.graph), pat, FAST, faults=sched
        ).run(0.3)
        assert slow.avg_latency > base.avg_latency
        assert slow.drop_causes.get("unreachable", 0) == 0

    def test_flapping_link_recovers(self, small_ps):
        sched = link_flaps(small_ps.graph, 6, horizon=1500, down_time=100,
                           up_time=400, seed=3)
        sim = PacketSimulator(
            small_ps, TableRouter(small_ps.graph), UniformRandomPattern(small_ps),
            FAST, faults=sched,
        )
        res = sim.run(0.3)
        assert res.delivered_fraction > 0.95


class TestAnalysisFaults:
    def test_zero_failure_sweep_reproduces_pristine(self, graph):
        """Property: the 0% step of a failure sweep measures the pristine
        graph exactly (same diameter and APL estimates)."""
        sweep = link_failure_sweep(graph, (0.0,), seed=0, sample_sources=32)
        assert sweep.fractions == [0.0]
        assert sweep.diameters[0] == diameter(graph, sample=32, seed=0)
        assert sweep.avg_path_lengths[0] == average_path_length(
            graph, sample=32, seed=0
        )

    def test_sweep_disconnection_ratio_is_bisected(self, graph):
        """The sweep's ratio equals the exact first-disconnect count for the
        same removal order, not the coarse grid fraction."""
        fractions = (0.0, 0.25, 0.5, 0.75)
        sweep = link_failure_sweep(graph, fractions, seed=11, sample_sources=8)
        exact = disconnection_ratio(graph, seed=11)
        assert sweep.disconnection_ratio == exact
        assert sweep.disconnection_ratio not in fractions

    def test_prober_matches_reference(self, graph):
        import scipy.sparse as sp

        prober = ConnectivityProber(graph)
        rng = np.random.default_rng(0)
        for frac in (0.0, 0.3, 0.6, 0.9):
            keep = rng.random(graph.m) >= frac
            e = graph.edge_array[keep]
            if len(e) == 0:
                expected = graph.n <= 1
            else:
                mat = sp.coo_matrix(
                    (np.ones(len(e), dtype=np.int8), (e[:, 0], e[:, 1])),
                    shape=(graph.n, graph.n),
                )
                expected = sp.csgraph.connected_components(mat, directed=False)[0] == 1
            assert prober.is_connected(keep) == expected

    def test_prober_reuse_consistent(self, graph):
        prober = ConnectivityProber(graph)
        a = [disconnection_ratio(graph, seed=s) for s in range(5)]
        b = [disconnection_ratio(graph, seed=s, prober=prober) for s in range(5)]
        assert a == b
