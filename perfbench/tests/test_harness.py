"""Tests of the benchmark harness: metric names, oracles, seeded inputs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import flow_sat, harness, oracles, packet, serve_mixed

RUN_PY = harness.ROOT / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def spec():
    return harness.load_spec()


@pytest.fixture(scope="module")
def memory_store():
    from repro import store

    return store.configure(root=None)


# -- BENCHMARK.json and the layer map -------------------------------------------


def test_metric_names_are_well_formed_and_unique(spec):
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert all(harness.NAME_RE.match(n) for n in names), names
    assert all(n.replace("_", "").replace(".", "").replace("-", "").isalnum() for n in names)
    assert len(set(names)) == len(names)


def test_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert tuple(w["name"] for w in spec["workloads"]) == harness.WORKLOADS
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_layer_map_covers_exactly_the_per_layer_metrics(spec):
    layer_map = harness.load_layer_map()
    assert set(layer_map) == {m["name"] for m in spec["per_layer"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for name, info in layer_map.items():
        assert set(info["workloads"]) <= workloads, name
        for claim in info["moves"]:
            metric, workload = claim.split("@")
            assert metric in metrics and workload in workloads, (name, claim)


def test_metric_block_zero_fills_only_unexercised_layers(spec):
    layer_map = harness.load_layer_map()
    measured = {n for n, info in layer_map.items() if "flow_sat" in info["workloads"]}
    block = harness.metric_block({n: 1.0 for n in measured}, spec["per_layer"],
                                 "flow_sat", layer_map)
    assert set(block) == {m["name"] for m in spec["per_layer"]}
    assert {n for n, v in block.items() if v["value"] == 1.0} == measured
    with pytest.raises(RuntimeError, match="did not measure"):
        harness.metric_block({}, spec["per_layer"], "flow_sat", layer_map)


# -- tracing --------------------------------------------------------------------


def test_layer_trace_self_time_excludes_traced_children():
    trace = harness.LayerTrace()

    def inner():
        time.sleep(0.02)

    def outer():
        trace.call("inner", inner)
        time.sleep(0.01)

    trace.call("outer", outer)
    assert trace.calls == {"outer": 1, "inner": 1}
    assert 0.018 <= trace.seconds["inner"] < 0.1
    assert 0.008 <= trace.seconds["outer"] < trace.seconds["inner"]


def test_patches_are_undone():
    from repro.routing import table
    from repro.store.core import ArtifactStore

    before = (table.build_distance_table, ArtifactStore.get_or_build)
    with harness.traced_session():
        assert table.build_distance_table is not before[0]
    assert (table.build_distance_table, ArtifactStore.get_or_build) == before


# -- oracles catch planted faults ----------------------------------------------------


def test_flow_identity_catches_a_perturbed_link_load(memory_store):
    from repro import store
    from repro.sim.flow import link_loads
    from repro.traffic import UniformRandomPattern

    for name in ("DF", "BF"):
        topo = store.table3_topology(name, scale="reduced")
        router, mode = store.table3_router(name, scale="reduced")
        demand = UniformRandomPattern(topo).router_demand()
        loads = link_loads(topo, router, demand, mode=mode)
        hops = flow_sat._route_hops(name, topo)
        assert oracles.flow_identity(loads, demand, hops) == []
        bad = loads.copy()
        bad[len(bad) // 2] += 0.5
        assert oracles.flow_identity(bad, demand, hops)


def test_dragonfly_route_lengths_match_the_router(memory_store):
    from repro import store

    topo = store.table3_topology("DF", scale="reduced")
    router, _ = store.table3_router("DF", scale="reduced")
    hops = oracles.dragonfly_lgl_hops(topo.graph, topo.groups)
    n = topo.graph.n
    want = np.array([[router.distance(s, t) for t in range(n)] for s in range(n)])
    assert (hops == want).all()


def _result(**changes):
    from repro.sim.packet import PacketSimResult

    base = PacketSimResult(offered_load=0.3, avg_latency=20.0, p99_latency=40.0,
                           throughput=0.3, delivered=100, injected=100, stable=True,
                           avg_hops=2.5,
                           max_link_utilization=0.4, delivered_fraction=1.0)
    return dataclasses.replace(base, **changes)


CYCLES = {"warmup_cycles": 100, "measure_cycles": 400, "drain_cycles": 400}


def test_packet_accounting_catches_a_tampered_result():
    assert oracles.packet_accounting(_result(), 0.3, CYCLES, fault_free=True) == []
    tampered = [
        _result(delivered=90, dropped=20, delivered_fraction=0.9),
        _result(dropped=3, drop_causes={"ttl": 1}, delivered=97, delivered_fraction=0.97),
        _result(throughput=0.2),
        _result(max_link_utilization=1.5),
    ]
    for res in tampered:
        assert oracles.packet_accounting(res, 0.3, CYCLES, fault_free=True), res


def test_faulted_link_utilization_is_bounded_by_the_run_length():
    # Sends go on through the drain: at most (100 + 400 + 400) / 500 = 1.8.
    assert oracles.packet_accounting(_result(max_link_utilization=1.03), 0.3, CYCLES,
                                     fault_free=False) == []
    assert oracles.packet_accounting(_result(max_link_utilization=1.81), 0.3, CYCLES,
                                     fault_free=False)
    good = _result()
    assert oracles.same_result(good, _result(), "x") == []
    assert oracles.same_result(good, _result(avg_latency=20.5), "x")


def test_engine_parity_point_and_tampering(memory_store):
    from repro.sim.packet import PacketSimConfig

    nets = packet._networks()
    cfg = PacketSimConfig(seed=5, warmup_cycles=50, measure_cycles=150, drain_cycles=150)
    point = {"name": "DF", "kind": "faults", "load": 0.3, "fail_fraction": 0.05,
             "fault_seed": 9}
    soa = packet.run_point(point, nets, cfg, harness.NullTrace(), engine="soa")
    ref = packet.run_point(point, nets, cfg, harness.NullTrace(), engine="reference")
    assert oracles.same_result(soa, ref, "parity") == []
    assert oracles.same_result(soa, dataclasses.replace(ref, delivered=ref.delivered + 1),
                               "parity")


def _served(kind, pairs, result, epoch=0):
    resp = {"ok": True, "op": kind, "epoch": epoch, "result": result}
    return json.dumps(resp).encode()


def test_served_answers_oracle_catches_one_corrupted_distance(memory_store):
    from repro import store
    from repro.faults import permanent_link_failures

    topo = store.table3_topology("PS-IQ", scale="reduced")
    events = list(permanent_link_failures(topo.graph, 0.05, seed=3))
    oracle = serve_mixed.EpochOracle(topo, [(0.0, "apply", 1, events)])
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, topo.graph.n, size=(64, 2))
    items = [(0.0, "distance", b"", pairs), (0.0, "distance", b"", pairs),
             (0.0, "path", b"", pairs)]
    reqs = serve_mixed.Requests(items)
    good = oracle.tables[1][pairs[:, 0], pairs[:, 1]].tolist()
    corrupted = list(good)
    corrupted[7] += 1
    reqs.raw = [_served("distance", pairs, good, epoch=1),
                _served("distance", pairs, corrupted, epoch=1),
                _served("path", pairs, _paths(oracle.tables[0], pairs), epoch=0)]
    tally = serve_mixed.verify(reqs, oracle)
    assert tally["ok"] == 2 and tally["wrong"] == 1

    paths = _paths(oracle.tables[0], pairs)
    assert oracles.served_paths(pairs, paths, oracle.tables[0]) == 0
    broken = next(i for i, p in enumerate(paths) if p is not None and len(p) >= 3)
    paths[broken][1] = paths[broken][-1]  # a "hop" that is not a link
    assert oracles.served_paths(pairs, paths, oracle.tables[0]) == 1


def _paths(table: np.ndarray, pairs: np.ndarray) -> list:
    """Shortest paths read off a distance table (a neighbor one step closer)."""
    out = []
    for s, d in pairs.tolist():
        if table[s, d] < 0:
            out.append(None)
            continue
        path = [s]
        while path[-1] != d:
            u = path[-1]
            path.append(int(np.flatnonzero((table[u] == 1) & (table[:, d] == table[u, d] - 1))[0]))
        out.append(path)
    return out


# -- seeded inputs -----------------------------------------------------------------


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def test_open_loop_schedule_is_a_pure_function_of_the_seed(memory_store):
    from repro import store

    graph = store.table3_topology("PS-IQ", scale="reduced").graph
    one = serve_mixed.plan(7, 20.0, graph.n, graph)
    assert _same(one, serve_mixed.plan(7, 20.0, graph.n, graph))
    other = serve_mixed.plan(8, 20.0, graph.n, graph)
    assert not _same(one["burst"], other["burst"])
    for a, b in zip(one["subphases"], other["subphases"]):
        assert not _same(a["queries"], b["queries"]) and not _same(a["admin"], b["admin"])
    for sub in one["subphases"]:
        dues = [due for due, _op, _pairs in sub["queries"]]
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < serve_mixed.SUBPHASE_S
        assert [action for _due, action, _label, _events in sub["admin"]] == ["apply", "clear"]


def test_every_seed_sends_the_same_amount_and_kind_of_work(memory_store):
    from repro import store

    graph = store.table3_topology("PS-IQ", scale="reduced").graph

    def kinds(schedule):
        return sorted((op, len(pairs)) for _due, op, pairs in schedule)

    for seed in (1, 2):
        inputs = serve_mixed.plan(seed, 20.0, graph.n, graph)
        burst = kinds(inputs["burst"])
        assert len(burst) == serve_mixed.BURST_REQUESTS
        for op, size, pct in serve_mixed.MIX:
            assert burst.count((op, size)) == serve_mixed.BURST_REQUESTS * pct // 100
        assert len(inputs["subphases"]) == 4
        for sub in inputs["subphases"]:
            assert len(sub["queries"]) == serve_mixed.NOMINAL_RPS * serve_mixed.SUBPHASE_S
        if seed == 1:
            first = (burst, [kinds(sub["queries"]) for sub in inputs["subphases"]])
    assert first == (burst, [kinds(sub["queries"]) for sub in inputs["subphases"]])


def test_fastest_stage_summary():
    passes = [{"stages": {"a": 2.0, "op1": 1.0, "op2": 3.0}},
              {"stages": {"a": 1.5, "op1": 1.2, "op2": 2.0}}]
    assert harness.fastest_stages(passes) == {"a": 1.5, "op1": 1.0, "op2": 2.0}
    values = harness.batch_values(passes, ["op1", "op2"], work=9.0)
    assert values == {"wall_s": 4.5, "ops_per_s": 2 / 4.5, "sim_hops_per_s": 2.0,
                      "query_p50_ms": 1500.0, "query_p99_ms": 2000.0}


def test_batch_inputs_depend_on_the_seed():
    assert flow_sat.plan(1) == flow_sat.plan(1) and flow_sat.plan(1) != flow_sat.plan(2)
    for workload in ("packet_min", "packet_faults"):
        assert packet.plan(workload, 1) == packet.plan(workload, 1)
        assert packet.plan(workload, 1) != packet.plan(workload, 2)


def test_changing_the_seed_changes_inputs_not_metrics(tmp_path, spec):
    out = tmp_path / "results.jsonl"
    blocks = []
    for seed in (1, 2):
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", "packet_min", "--seed", str(seed),
             "--seconds", "0.1", "--trace", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=170, check=False)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        blocks.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert [set(b["metrics"]) for b in blocks] == [{m["name"] for m in spec["end_to_end"]}] * 2
    assert all(b["correct"] and b["failed"] == 0 and b["attempted"] > 0 for b in blocks)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    manifests = [r["manifest"] for r in records]
    assert [m["seed"] for m in manifests] == [1, 2]
    assert manifests[0]["config"] != manifests[1]["config"]
    assert {"nproc", "numpy", "scipy", "loadavg_before", "loadavg_after"} <= set(
        manifests[0]["extra"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow_sat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
