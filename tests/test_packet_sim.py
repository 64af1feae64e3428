"""Tests for the event-driven packet-level simulator."""

import gc
import weakref

import numpy as np
import pytest

from repro.faults import FaultAwareRouter, LinkHealth, permanent_link_failures
from repro.routing import PolarStarRouter, TableRouter
from repro.sim.packet import PacketSimConfig, PacketSimulator, latency_load_sweep
from repro.topologies import dragonfly_topology, polarstar_topology
from repro.traffic import RandomPermutationPattern, UniformRandomPattern

FAST = PacketSimConfig(warmup_cycles=300, measure_cycles=1200, drain_cycles=1500, seed=1)


@pytest.fixture(scope="module")
def small_ps():
    return polarstar_topology(7, p=2)  # q=3, d'=3: 104 routers


@pytest.fixture(scope="module")
def small_df():
    return dragonfly_topology(a=4, h=2, p=2)


class TestBasics:
    def test_zero_load(self, small_ps):
        sim = PacketSimulator(small_ps, TableRouter(small_ps.graph), UniformRandomPattern(small_ps), FAST)
        res = sim.run(0.0)
        assert res.delivered == 0

    def test_low_load_latency_near_zero_load_latency(self, small_ps):
        r = TableRouter(small_ps.graph)
        pat = UniformRandomPattern(small_ps)
        lo = PacketSimulator(small_ps, r, pat, FAST).run(0.05)
        assert lo.stable
        # ~2.5 avg hops x (4 serialization + latencies) -> latency below 40
        assert 5 < lo.avg_latency < 40

    def test_latency_increases_with_load(self, small_ps):
        r = TableRouter(small_ps.graph)
        pat = UniformRandomPattern(small_ps)
        lo = PacketSimulator(small_ps, r, pat, FAST).run(0.1)
        hi = PacketSimulator(small_ps, r, pat, FAST).run(0.5)
        assert lo.stable and hi.stable
        assert hi.avg_latency > lo.avg_latency

    def test_saturation_detected(self, small_df):
        """Permutation traffic on Dragonfly MIN saturates well below 1.0."""
        r = TableRouter(small_df.graph)
        pat = RandomPermutationPattern(small_df, seed=2)
        results = latency_load_sweep(
            small_df, r, pat, loads=[0.1, 0.3, 0.5, 0.7, 0.9], config=FAST
        )
        assert not results[-1].stable
        assert results[-1].offered_load < 0.95

    def test_throughput_tracks_offered_when_stable(self, small_ps):
        r = TableRouter(small_ps.graph)
        pat = UniformRandomPattern(small_ps)
        res = PacketSimulator(small_ps, r, pat, FAST).run(0.3)
        assert res.stable
        assert res.throughput == pytest.approx(0.3, rel=0.25)

    def test_deterministic_given_seed(self, small_ps):
        r = TableRouter(small_ps.graph)
        pat = UniformRandomPattern(small_ps)
        a = PacketSimulator(small_ps, r, pat, FAST).run(0.2)
        b = PacketSimulator(small_ps, r, pat, FAST).run(0.2)
        assert a.avg_latency == b.avg_latency
        assert a.delivered == b.delivered


class TestInputBoundary:
    @pytest.mark.parametrize("field,value", [
        ("warmup_cycles", -300), ("drain_cycles", -2000), ("link_latency", -1),
        ("router_latency", -1), ("packet_size", 0), ("buffer_packets", 0),
        ("num_vcs", 0), ("measure_cycles", 0),
        ("load", -0.5), ("load", float("nan")), ("load", float("inf")),
    ])
    def test_rejects_malformed_input(self, small_ps, field, value):
        """Malformed configs and loads raise ValueError up front instead of
        crashing mid-run or reporting an empty result."""
        if field != "load":
            with pytest.raises(ValueError, match=field):
                PacketSimConfig(**{field: value})
            return
        for engine in ("soa", "reference"):
            sim = PacketSimulator(
                small_ps, TableRouter(small_ps.graph), UniformRandomPattern(small_ps),
                FAST, engine=engine,
            )
            with pytest.raises(ValueError, match="load"):
                sim.run(value)


class TestRunLifetime:
    @pytest.mark.parametrize("engine", ["soa", "reference"])
    @pytest.mark.parametrize("kind", ["faults", "ugal"])
    def test_run_state_freed_without_gc(self, small_ps, engine, kind):
        """run() leaves no reference cycle behind: the simulator (and the
        packet, bucket and link state its closures hold) dies on ``del``,
        with the cyclic collector off."""
        cfg = PacketSimConfig(warmup_cycles=50, measure_cycles=200, drain_cycles=200, seed=1)
        faults = (
            permanent_link_failures(small_ps.graph, 0.1, seed=3) if kind == "faults" else None
        )
        sim = PacketSimulator(
            small_ps, TableRouter(small_ps.graph), UniformRandomPattern(small_ps), cfg,
            adaptive=kind == "ugal", faults=faults, engine=engine,
        )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim.run(0.3)
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_health_graph_must_be_the_topology_graph(self, small_ps, small_df):
        """Link ids are CSR positions of the topology graph, so a health
        mask over another graph is refused at construction."""
        g = small_df.graph
        router = FaultAwareRouter(TableRouter(g), LinkHealth(g))
        with pytest.raises(ValueError, match="topology"):
            PacketSimulator(small_ps, router, UniformRandomPattern(small_ps), FAST)


class TestAnalyticRouterInSim:
    def test_polarstar_router_works(self, small_ps):
        star = small_ps.meta["star"]
        r = PolarStarRouter(star)
        pat = UniformRandomPattern(small_ps)
        res = PacketSimulator(small_ps, r, pat, FAST).run(0.2)
        assert res.stable
        assert res.avg_latency < 50


class TestUgal:
    def test_ugal_beats_min_on_permutation(self, small_df):
        """Fig. 9: UGAL sustains higher load than MIN on adversarial-ish
        permutation traffic for Dragonfly."""
        r = TableRouter(small_df.graph)
        pat = RandomPermutationPattern(small_df, seed=2)
        load = 0.55
        mn = PacketSimulator(small_df, r, pat, FAST).run(load)
        ug = PacketSimulator(small_df, r, pat, FAST, adaptive=True).run(load)
        # UGAL should deliver at least as much traffic.
        assert ug.delivered >= mn.delivered * 0.9
        if not mn.stable:
            assert ug.stable or ug.delivered > mn.delivered

    def test_ugal_close_to_min_on_uniform(self, small_ps):
        """On benign uniform traffic UGAL should not catastrophically
        misroute (stays stable at moderate load)."""
        r = TableRouter(small_ps.graph)
        pat = UniformRandomPattern(small_ps)
        res = PacketSimulator(small_ps, r, pat, FAST, adaptive=True).run(0.3)
        assert res.stable
