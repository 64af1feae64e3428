"""Tests for routing extensions: all-minimal-hops, instrumentation."""

import numpy as np
import pytest

from repro.core import PolarStarConfig, build_polarstar
from repro.routing import PolarStarRouter, TableRouter
from repro.topologies import polarstar_topology
from repro.traffic import UniformRandomPattern


class TestAllMinimalHops:
    @pytest.mark.parametrize(
        "cfg",
        [
            PolarStarConfig(q=3, dprime=3, supernode_kind="iq"),
            PolarStarConfig(q=4, dprime=4, supernode_kind="paley"),
        ],
        ids=lambda c: c.name,
    )
    def test_matches_oracle_set(self, cfg):
        sp = build_polarstar(cfg)
        analytic = PolarStarRouter(sp)
        oracle = TableRouter(sp.graph)
        rng = np.random.default_rng(0)
        for _ in range(150):
            u, t = map(int, rng.integers(0, sp.graph.n, 2))
            if u == t:
                continue
            assert set(analytic.all_minimal_hops(u, t)) == set(oracle.next_hops(u, t))

    def test_contains_deterministic_hop(self):
        sp = build_polarstar(PolarStarConfig(q=3, dprime=3, supernode_kind="iq"))
        analytic = PolarStarRouter(sp)
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, t = map(int, rng.integers(0, sp.graph.n, 2))
            if u == t:
                continue
            assert analytic.next_hop(u, t) in analytic.all_minimal_hops(u, t)


class TestSimInstrumentation:
    def test_hops_and_utilization_reported(self):
        from repro.sim.packet import PacketSimConfig, PacketSimulator

        topo = polarstar_topology(7, p=2)
        r = TableRouter(topo.graph)
        pat = UniformRandomPattern(topo)
        cfg = PacketSimConfig(warmup_cycles=200, measure_cycles=800, drain_cycles=1000)
        res = PacketSimulator(topo, r, pat, cfg).run(0.3)
        assert res.stable
        # diameter-3 network: avg hops in (1, 3]
        assert 1.0 < res.avg_hops <= 3.0
        assert 0.0 < res.max_link_utilization <= 1.0

    def test_utilization_grows_with_load(self):
        from repro.sim.packet import PacketSimConfig, PacketSimulator

        topo = polarstar_topology(7, p=2)
        r = TableRouter(topo.graph)
        pat = UniformRandomPattern(topo)
        cfg = PacketSimConfig(warmup_cycles=200, measure_cycles=800, drain_cycles=1000)
        lo = PacketSimulator(topo, r, pat, cfg).run(0.1)
        hi = PacketSimulator(topo, r, pat, cfg).run(0.5)
        assert hi.max_link_utilization > lo.max_link_utilization
