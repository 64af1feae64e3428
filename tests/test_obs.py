"""Tests for the repro.obs observability subsystem.

Covers registry semantics (instrument kinds, label fan-out and cardinality
caps, get-or-create registration), histogram bucketing, disabled-mode
no-ops, tracer profile trees, manifests, exporter round-trips, and an
integration run asserting a small packet simulation emits the advertised
metric catalog.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.export import console_summary, export_json, load_json
from repro.obs.manifest import RunManifest, git_revision
from repro.obs.metrics import (
    CardinalityError,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    exponential_buckets,
)
from repro.obs.tracing import NULL_TRACER, Tracer


# -- registry / instrument semantics -----------------------------------------


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b", help="test")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1)

    def test_gauge_set_and_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(3.5)
        g.set_max(2.0)  # lower: ignored
        g.set_max(7.0)
        assert g.value == 7.0

    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_label_set_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", labels=("a",))
        with pytest.raises(ValueError):
            reg.counter("x", labels=("b",))

    def test_labels_fan_out_to_independent_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("links", labels=("link",))
        fam.labels(link="0->1").inc(3)
        fam.labels(link="1->0").inc(5)
        assert fam.labels(link="0->1").value == 3
        assert fam.labels(link="1->0").value == 5

    def test_wrong_label_names_raise(self):
        reg = MetricsRegistry()
        fam = reg.counter("links", labels=("link",))
        with pytest.raises(ValueError):
            fam.labels(port="x")
        with pytest.raises(ValueError):
            fam.inc()  # labeled family needs .labels(...) first

    def test_label_cardinality_cap(self):
        reg = MetricsRegistry(max_label_sets=4)
        fam = reg.counter("c", labels=("k",))
        for i in range(4):
            fam.labels(k=i).inc()
        fam.labels(k=0).inc()  # existing child: fine
        with pytest.raises(CardinalityError):
            fam.labels(k="one-too-many")

    def test_collect_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc(2)
        reg.gauge("a.first").set(1)
        fams = reg.collect()
        assert [f["name"] for f in fams] == ["a.first", "z.last"]  # sorted
        assert fams[1]["type"] == "counter"
        assert fams[1]["samples"][0]["value"] == 2


# -- histograms --------------------------------------------------------------


class TestHistogram:
    def test_bucketing_inclusive_upper_bounds(self):
        h = Histogram(bounds=(10, 20, 30))
        for v in (5, 10, 11, 20, 25, 31, 1000):
            h.observe(v)
        # counts: <=10 -> 2 (5, 10), <=20 -> 2 (11, 20), <=30 -> 1 (25),
        # overflow -> 2 (31, 1000)
        assert h.counts == [2, 2, 1, 2]
        assert h.count == 7
        assert h.min == 5 and h.max == 1000

    def test_observe_many_matches_observe(self):
        h1, h2 = Histogram((1, 2, 4)), Histogram((1, 2, 4))
        values = [0.5, 1.5, 3, 8]
        h1.observe_many(values)
        for v in values:
            h2.observe(v)
        assert h1.counts == h2.counts and h1.sum == h2.sum

    def test_quantile_and_mean(self):
        h = Histogram(bounds=(10, 20, 40))
        h.observe_many([1] * 50 + [15] * 40 + [35] * 10)
        assert h.quantile(0.5) == 10  # median in first bucket
        assert h.quantile(0.99) == 40
        assert h.mean() == pytest.approx((50 + 15 * 40 + 35 * 10) / 100)

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(3, 2, 1))

    def test_bucket_helpers(self):
        assert exponential_buckets(1, 2, 4) == (1, 2, 4, 8)
        with pytest.raises(ValueError):
            exponential_buckets(0, 2, 4)

    def test_snapshot_has_overflow_bucket(self):
        h = Histogram(bounds=(1.0,))
        h.observe(99)
        snap = h.snapshot()
        assert snap["buckets"][-1]["le"] is None
        assert snap["buckets"][-1]["count"] == 1


# -- disabled mode -----------------------------------------------------------


class TestDisabledMode:
    def test_disabled_registry_hands_out_null_instruments(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("a", labels=("x",))
        assert c is NULL_INSTRUMENT
        assert c.labels(x=1) is NULL_INSTRUMENT
        # the full instrument API is a no-op, never an error
        c.inc()
        c.set(3)
        c.set_max(5)
        c.observe(1)
        c.observe_many([1, 2])
        assert reg.collect() == []

    def test_ambient_default_is_disabled(self):
        assert obs.get_registry().enabled is False
        assert obs.get_tracer() is NULL_TRACER

    def test_null_span_is_reusable_and_propagates_exceptions(self):
        with obs.span("anything"):
            pass
        with pytest.raises(RuntimeError):
            with obs.span("x"):
                raise RuntimeError("must not be swallowed")

    def test_session_restores_previous_state(self):
        before = obs.get_registry()
        with obs.session() as (reg, tracer):
            assert obs.get_registry() is reg
            assert reg.enabled
            with obs.span("phase"):
                pass
            assert tracer.root.children["phase"].count == 1
        assert obs.get_registry() is before
        assert obs.get_tracer() is NULL_TRACER

    def test_session_restores_on_exception(self):
        with pytest.raises(ValueError):
            with obs.session():
                raise ValueError("boom")
        assert obs.get_registry().enabled is False


# -- tracing -----------------------------------------------------------------


class TestTracer:
    def test_nested_spans_build_a_tree(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        snap = t.snapshot()
        outer = snap["children"][0]
        assert outer["name"] == "outer" and outer["count"] == 1
        assert outer["children"][0]["name"] == "inner"
        assert outer["children"][0]["count"] == 2

    def test_span_times_accumulate_upward(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                sum(range(1000))
        outer = t.root.children["outer"]
        inner = outer.children["inner"]
        assert outer.total_s >= inner.total_s >= 0.0
        assert outer.self_s() >= 0.0

    def test_stack_unwinds_on_exception(self):
        t = Tracer()
        with pytest.raises(KeyError):
            with t.span("a"):
                raise KeyError("x")
        with t.span("b"):
            pass
        assert set(t.root.children) == {"a", "b"}  # b is a sibling, not a child


# -- manifests ---------------------------------------------------------------


class TestManifest:
    def test_capture_records_environment(self):
        m = RunManifest.capture(seed=7, config={"cycles": 10}, run="unit")
        assert m.seed == 7
        assert m.config == {"cycles": 10}
        assert m.extra["run"] == "unit"
        assert m.python and m.platform
        assert m.created_unix > 0

    def test_git_revision_in_this_repo(self):
        rev = git_revision()
        assert rev is None or (len(rev) == 40 and all(c in "0123456789abcdef" for c in rev))

    def test_capture_topology_parameters(self):
        from repro.topologies import polarstar_topology

        topo = polarstar_topology(7, p=2)
        m = RunManifest.capture(topology=topo)
        assert m.topology["name"] == topo.name
        assert m.topology["routers"] == topo.graph.n
        assert m.topology["endpoints"] == topo.num_endpoints

    def test_round_trip(self):
        m = RunManifest.capture(seed=3)
        again = RunManifest.from_dict(json.loads(m.to_json()))
        assert again.seed == 3 and again.git == m.git


# -- exporters ---------------------------------------------------------------


class TestExporters:
    def _session(self):
        reg = MetricsRegistry()
        reg.counter("pkts", help="packets", labels=("stage",)).labels(
            stage="injected"
        ).inc(10)
        reg.gauge("load").set(0.75)
        reg.histogram("lat", bounds=(10, 100)).observe_many([5, 50, 500])
        tracer = Tracer()
        with tracer.span("run"):
            pass
        return reg, tracer

    def test_json_round_trip(self, tmp_path):
        reg, tracer = self._session()
        manifest = RunManifest.capture(seed=1)
        path = export_json(tmp_path / "m.json", reg, tracer, manifest)
        doc = load_json(path)
        assert doc["manifest"]["seed"] == 1
        by_name = {f["name"]: f for f in doc["metrics"]}
        assert by_name["pkts"]["samples"][0]["labels"] == {"stage": "injected"}
        assert by_name["pkts"]["samples"][0]["value"] == 10
        assert by_name["lat"]["samples"][0]["count"] == 3
        assert doc["spans"]["children"][0]["name"] == "run"

    def test_load_json_rejects_foreign_documents(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"hello": "world"}')
        with pytest.raises(ValueError):
            load_json(p)

    def test_console_summary_renders_everything(self, tmp_path):
        reg, tracer = self._session()
        manifest = RunManifest.capture(seed=9)
        doc = load_json(export_json(tmp_path / "m.json", reg, tracer, manifest))
        text = console_summary(doc)
        assert "seed=9" in text
        assert "pkts{stage=injected}: 10" in text
        assert "lat: count=3" in text
        assert "span profile" in text

    def test_console_summary_empty_session(self):
        assert "empty" in console_summary({"metrics": [], "spans": None})


# -- integration: instrumented packet-sim run --------------------------------


class TestIntegration:
    @pytest.fixture(scope="class")
    def sim_doc(self, tmp_path_factory):
        """One small adaptive packet-sim run exported through repro.obs."""
        from repro.routing import TableRouter
        from repro.sim.packet import PacketSimConfig, PacketSimulator
        from repro.topologies import polarstar_topology
        from repro.traffic import UniformRandomPattern

        topo = polarstar_topology(7, p=2)
        cfg = PacketSimConfig(
            warmup_cycles=200, measure_cycles=600, drain_cycles=800, seed=3
        )
        out = tmp_path_factory.mktemp("obs") / "sim.json"
        with obs.session() as (reg, tracer):
            sim = PacketSimulator(
                topo, TableRouter(topo.graph), UniformRandomPattern(topo), cfg,
                adaptive=True,
            )
            result = sim.run(0.3)
            export_json(out, reg, tracer, RunManifest.capture(seed=3, topology=topo))
        return load_json(out), result

    def test_link_flit_counters_nonzero(self, sim_doc):
        doc, result = sim_doc
        fams = {f["name"]: f for f in doc["metrics"]}
        samples = fams["sim.packet.link_flits"]["samples"]
        assert len(samples) > 10  # many links carried traffic
        total_flits = sum(s["value"] for s in samples)
        # every delivered packet serialized packet_size flits per hop
        assert total_flits > 0
        assert all(s["labels"]["link"].count("->") == 1 for s in samples)

    def test_latency_histogram_consistent_with_result(self, sim_doc):
        doc, result = sim_doc
        fams = {f["name"]: f for f in doc["metrics"]}
        hist = fams["sim.packet.latency_cycles"]["samples"][0]
        assert hist["count"] == result.delivered
        assert hist["sum"] / hist["count"] == pytest.approx(result.avg_latency)
        assert sum(b["count"] for b in hist["buckets"]) == hist["count"]

    def test_ugal_and_cache_counters(self, sim_doc):
        doc, _ = sim_doc
        fams = {f["name"]: f for f in doc["metrics"]}
        ugal = {
            s["labels"]["choice"]: s["value"]
            for s in fams["sim.packet.ugal_decisions"]["samples"]
        }
        assert ugal["minimal"] + ugal["nonminimal"] > 0
        cache = {
            s["labels"]["result"]: s["value"]
            for s in fams["sim.packet.nexthop_cache"]["samples"]
        }
        assert cache["hit"] > cache["miss"] > 0  # the memo earns its keep

    def test_span_profile_tree_present(self, sim_doc):
        doc, _ = sim_doc
        names = {c["name"] for c in doc["spans"]["children"]}
        assert {"sim.packet.inject", "sim.packet.events", "sim.packet.flush"} <= names
        assert all(c["total_s"] >= 0 for c in doc["spans"]["children"])

    def test_deadlock_probes_and_packet_counts(self, sim_doc):
        doc, result = sim_doc
        fams = {f["name"]: f for f in doc["metrics"]}
        assert fams["sim.packet.deadlock.max_hops"]["samples"][0]["value"] >= 1
        pkts = {
            s["labels"]["stage"]: s["value"]
            for s in fams["sim.packet.packets"]["samples"]
        }
        assert pkts["delivered"] == result.delivered
        assert pkts["injected"] == result.injected

    def test_disabled_run_is_bit_identical(self):
        """Metrics must never perturb simulation results."""
        from repro.routing import TableRouter
        from repro.sim.packet import PacketSimConfig, PacketSimulator
        from repro.topologies import polarstar_topology
        from repro.traffic import UniformRandomPattern

        topo = polarstar_topology(7, p=2)
        cfg = PacketSimConfig(
            warmup_cycles=100, measure_cycles=300, drain_cycles=400, seed=5
        )

        def one_run():
            sim = PacketSimulator(
                topo, TableRouter(topo.graph), UniformRandomPattern(topo), cfg,
                adaptive=True,
            )
            return sim.run(0.2)

        plain = one_run()
        with obs.session():
            instrumented = one_run()
        assert plain.avg_latency == instrumented.avg_latency
        assert plain.delivered == instrumented.delivered
        assert plain.avg_hops == instrumented.avg_hops

    def test_flow_model_metrics(self):
        from repro.routing import TableRouter
        from repro.sim.flow import link_loads
        from repro.topologies import polarstar_topology
        from repro.traffic import UniformRandomPattern

        topo = polarstar_topology(7, p=2)
        demand = UniformRandomPattern(topo).router_demand()
        with obs.session() as (reg, _):
            link_loads(topo, TableRouter(topo.graph), demand)
            assert reg.get("sim.flow.solves").value == 1
            assert reg.get("sim.flow.dest_columns").value > 0
            assert reg.get("sim.flow.max_link_load").value > 0

