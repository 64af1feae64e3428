"""Byte-identical parity between the SoA packet engine and the scalar reference.

The struct-of-arrays engine (``engine="soa"``, the default) must reproduce
every field of :class:`PacketSimResult` exactly — not approximately — on
seeded runs, with and without fault schedules, under minimal and UGAL
routing.  These tests compare full ``asdict`` dumps across a scenario
battery, pin the fault-accounting stream under a sha256 golden digest, and
check that the enabled-obs metric snapshots agree family-for-family (the
only legitimate difference is ``routing.nexthop_table.builds``, the batched
table the reference engine never constructs).
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultAwareRouter, LinkHealth
from repro.faults.model import (
    degraded_links,
    link_flaps,
    node_failures,
    permanent_link_failures,
)
from repro.routing import TableRouter
from repro.routing.table import next_hop_table
from repro.sim.packet import PacketSimConfig, PacketSimulator, latency_load_sweep
from repro.topologies import polarstar_topology
from repro.traffic import TornadoPattern, UniformRandomPattern

# Short horizon: parity is exact at any cycle count, so the battery runs the
# smallest horizon that still exercises warmup, measurement and drain.
CFG = PacketSimConfig(warmup_cycles=150, measure_cycles=400, drain_cycles=500, seed=3)


@pytest.fixture(scope="module")
def topo():
    return polarstar_topology(7, p=2)  # q=3, d'=3: 104 routers


def _run(topo, engine, *, load, adaptive=False, pattern_cls=UniformRandomPattern,
         faults=None, cfg=CFG):
    router = TableRouter(topo.graph)
    sim = PacketSimulator(
        topo, router, pattern_cls(topo), cfg, adaptive=adaptive,
        faults=faults, engine=engine,
    )
    return asdict(sim.run(load))


def _pair(topo, *, faults_fn=None, **kw):
    """Run both engines on identical inputs (fresh fault schedule each)."""
    ref = _run(topo, "reference", faults=faults_fn(topo.graph) if faults_fn else None, **kw)
    soa = _run(topo, "soa", faults=faults_fn(topo.graph) if faults_fn else None, **kw)
    return ref, soa


# Each entry: (name, kwargs for _pair).  Fault times sit inside the 1050-cycle
# horizon so every schedule actually fires during the run.
SCENARIOS = [
    ("uniform-min", dict(load=0.3)),
    ("uniform-ugal", dict(load=0.3, adaptive=True)),
    ("tornado", dict(load=0.3, pattern_cls=TornadoPattern)),
    ("hi-load", dict(load=0.7)),
    ("link-flaps", dict(load=0.3, faults_fn=lambda g: link_flaps(g, 40, 1050, 80, 120, seed=5))),
    ("node-failures", dict(load=0.3, faults_fn=lambda g: node_failures(g, 4, seed=7, time=200))),
    ("degraded", dict(load=0.3, faults_fn=lambda g: degraded_links(g, 0.25, 3, seed=9, time=150))),
    ("permanent", dict(load=0.3, faults_fn=lambda g: permanent_link_failures(g, 0.2, seed=11, time=250))),
    ("flaps-ugal", dict(load=0.3, adaptive=True,
                        faults_fn=lambda g: link_flaps(g, 30, 1050, 70, 110, seed=13))),
    ("fault-mix", dict(load=0.5, adaptive=True,
                       faults_fn=lambda g: link_flaps(g, 20, 1050, 80, 120, seed=19)
                       + node_failures(g, 3, seed=21, time=250)
                       + degraded_links(g, 0.15, 2, seed=23, time=100))),
]


class TestResultParity:
    @pytest.mark.parametrize("name,kw", SCENARIOS, ids=[s[0] for s in SCENARIOS])
    def test_scenario_byte_identical(self, topo, name, kw):
        ref, soa = _pair(topo, **kw)
        assert ref == soa, (
            f"{name}: engines diverge on "
            f"{[k for k in ref if ref[k] != soa[k]]}"
        )

    @pytest.mark.parametrize("mask", ["clean", "pre-degraded"])
    def test_wrapped_router_without_schedule(self, topo, mask):
        # A FaultAwareRouter passed in with no schedule keeps its mask for
        # the whole run: a clean one makes the run a single clean epoch of a
        # fault-aware run, a pre-degraded one is never reset.  The router's
        # own ladder tallies must agree as well as the results.
        out = {}
        for engine in ("reference", "soa"):
            health = LinkHealth(topo.graph)
            if mask == "pre-degraded":
                health.apply_schedule(
                    permanent_link_failures(topo.graph, 0.1, seed=11)
                    + degraded_links(topo.graph, 0.15, 2, seed=9)
                )
            router = FaultAwareRouter(TableRouter(topo.graph), health)
            sim = PacketSimulator(
                topo, router, UniformRandomPattern(topo), CFG, engine=engine
            )
            out[engine] = (asdict(sim.run(0.3)), dict(router.rung_counts))
        assert out["reference"] == out["soa"]

    def test_repeated_runs_share_state_identically(self, topo):
        # One simulator object per engine, run twice: the SoA engine's
        # per-(router, target) memo persists across run() calls and must
        # reproduce the reference's persistent next-hop cache exactly.
        results = {}
        for engine in ("reference", "soa"):
            router = TableRouter(topo.graph)
            sim = PacketSimulator(
                topo, router, UniformRandomPattern(topo), CFG, engine=engine
            )
            results[engine] = [asdict(sim.run(0.2)), asdict(sim.run(0.4))]
        assert results["reference"] == results["soa"]

    def test_latency_load_sweep_parity(self, topo):
        out = {}
        for engine in ("reference", "soa"):
            router = TableRouter(topo.graph)
            res = latency_load_sweep(
                topo, router, UniformRandomPattern(topo), (0.2, 0.5),
                config=CFG, engine=engine,
            )
            out[engine] = [asdict(r) for r in res]
        assert out["reference"] == out["soa"]


class TestFaultAccountingDigest:
    """Golden digest over the fault-accounting stream of both engines.

    Any change to drop bookkeeping, reroute counting or the
    delivered-fraction definition — in either engine — moves this hash.
    Regenerate the pinned literal only after confirming both engines agree
    and the change is intended (see docs/SIMULATORS.md).
    """

    GOLDEN = "c0ee80cc68f80e7acec9ffb3aa730a69027f17cb4ae21a06e1f6addde542bcd7"

    @staticmethod
    def _accounting_stream(topo):
        stream = []
        for name, kw in SCENARIOS:
            if "faults_fn" not in kw:
                continue
            ref, soa = _pair(topo, **kw)
            for label, d in (("reference", ref), ("soa", soa)):
                stream.append({
                    "scenario": name,
                    "engine": label,
                    "dropped": d["dropped"],
                    "reroutes": d["reroutes"],
                    "drop_causes": d["drop_causes"],
                    "delivered_fraction": d["delivered_fraction"],
                })
        return stream

    def test_fault_accounting_matches_golden_digest(self, topo):
        stream = self._accounting_stream(topo)
        # Engines must agree pairwise before hashing: the digest pins the
        # *shared* accounting, not two different streams that happen to hash
        # together.
        for i in range(0, len(stream), 2):
            a, b = dict(stream[i]), dict(stream[i + 1])
            a.pop("engine"), b.pop("engine")
            assert a == b, f"accounting diverges in {stream[i]['scenario']}"
        blob = json.dumps(stream, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == self.GOLDEN, (
            f"fault-accounting digest changed: {digest}\n"
            "If both engines still agree and the accounting change is "
            "intentional, update GOLDEN."
        )


class TestObsSnapshotParity:
    def test_metric_snapshots_identical_modulo_table_builds(self, topo):
        snaps = {}
        for engine in ("reference", "soa"):
            with obs.session() as (registry, _tracer):
                _run(topo, engine, load=0.3,
                     faults=link_flaps(topo.graph, 20, 1050, 80, 120, seed=5))
                snaps[engine] = {
                    fam["name"]: fam for fam in registry.collect()
                    if fam["name"] != "routing.nexthop_table.builds"
                }
        assert snaps["reference"] == snaps["soa"]

    def test_table_builds_counted_only_by_soa(self, topo):
        seen = {}
        for engine in ("reference", "soa"):
            with obs.session() as (registry, _tracer):
                _run(topo, engine, load=0.2)
                seen[engine] = "routing.nexthop_table.builds" in registry.names()
        assert not seen["reference"]
        assert seen["soa"]


class TestBatchedNextHopTable:
    def test_table_matches_scalar_next_hop(self, topo):
        router = TableRouter(topo.graph)
        table = next_hop_table(router)
        n = topo.graph.n
        assert table.shape == (n, n)
        assert (np.diag(table) == -1).all()
        rng = np.random.default_rng(0)
        srcs = rng.integers(0, n, size=300)
        dests = rng.integers(0, n, size=300)
        for u, t in zip(srcs.tolist(), dests.tolist()):
            if u == t:
                continue
            assert table[u, t] == router.next_hop(u, t)

    def test_table_is_memoized_per_router(self, topo):
        router = TableRouter(topo.graph)
        assert next_hop_table(router) is next_hop_table(router)
