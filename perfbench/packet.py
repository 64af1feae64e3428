"""The two packet workloads, on the reduced Table 3 networks.

``packet_min`` — Fig. 9 packet curve points: fault-free minimal routing on
PS-IQ and DF at a light (0.3) and a loaded (0.7) load.  Only the
precomputed-route loop (``_run_pure``) runs here, so it is watched on its
own, away from UGAL and faults.

``packet_faults`` — Fig. 14-dynamic plus UGAL on PS-IQ and DF: seeded
permanent link failures at two fractions, link flaps, one fault-free UGAL
point and the static disconnection-ratio summary.  This covers the
general loop (``_run_soa``), the ``FaultAwareRouter`` ladder with its
distance recomputes, and ``routing.ugal``; it never enters ``_run_pure``.

Passes repeat until the run's budget is spent; the metrics describe one
pass made of every point at its fastest (:func:`harness.fastest_stages`).
Every point's simulated statistics are checked for accounting invariants,
for determinism across repeats, and — on one shrunken point per workload —
for field-for-field parity with the pinned reference engine.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import harness, oracles

NAMES = ("PS-IQ", "DF")
#: Simulated cycles per point, sized so that a run repeats every point
#: several times (fault points cost more per cycle).
CYCLES = {
    "packet_min": {"warmup_cycles": 200, "measure_cycles": 800, "drain_cycles": 800},
    "packet_faults": {"warmup_cycles": 50, "measure_cycles": 200, "drain_cycles": 200},
}
#: Shrunken window for the reference-engine parity point.
PARITY_CYCLES = {"warmup_cycles": 100, "measure_cycles": 300, "drain_cycles": 300}
MIN_LOADS = (0.3, 0.7)
FAULT_LOAD = 0.3
FAIL_FRACTIONS = (0.05, 0.1)
FLAP_LINKS = 2
FAULT_SCHEDULE_SEED = 2


def plan(workload: str, seed: int) -> dict:
    """The run's inputs, a pure function of *seed*.

    The seed draws the traffic.  The fault schedules are drawn once, from
    a fixed seed: which links fail or flap changes the fault router's work
    several-fold (a PS-IQ flap point took 0.15 s on one schedule and 1.6 s
    on another), so seeded schedules would make every seed time a
    different amount of work.
    """
    rng = np.random.default_rng(FAULT_SCHEDULE_SEED)
    points = []
    for name in NAMES:
        if workload == "packet_min":
            points += [{"name": name, "kind": "min", "load": load} for load in MIN_LOADS]
            continue
        points.append({"name": name, "kind": "ugal", "load": FAULT_LOAD})
        points += [{"name": name, "kind": "faults", "load": FAULT_LOAD,
                    "fail_fraction": frac,
                    "fault_seed": int(rng.integers(0, 2**31 - 1))}
                   for frac in FAIL_FRACTIONS]
        points.append({"name": name, "kind": "faults", "load": FAULT_LOAD,
                       "flap_links": FLAP_LINKS,
                       "fault_seed": int(rng.integers(0, 2**31 - 1))})
    traffic = np.random.default_rng([seed, len(workload)])
    return {
        "cycles": CYCLES[workload],
        "sim_seed": int(traffic.integers(0, 2**31 - 1)),
        "disconnection_seed": int(traffic.integers(0, 2**31 - 1)),
        "points": points,
    }


def _networks() -> dict:
    from repro import store
    from repro.traffic import UniformRandomPattern

    nets = {}
    for name in NAMES:
        topo = store.table3_topology(name, scale="reduced")
        router, _ = store.table3_router(name, scale="reduced")
        nets[name] = (topo, router, UniformRandomPattern(topo))
    return nets


def setup(seed: int, store_dir) -> dict:
    """Everything before the first op: imports and the reduced networks
    resolved from an empty store."""
    from repro import store
    from repro.analysis.faults import disconnection_ratio  # noqa: F401
    from repro.sim.packet import PacketSimulator  # noqa: F401

    store.configure(root=store_dir)
    return _networks()


def _config(inputs: dict, cycles: dict):
    from repro.sim.packet import PacketSimConfig

    return PacketSimConfig(seed=inputs["sim_seed"], **cycles)


def _schedule(point: dict, topo, cfg):
    from repro.faults import link_flaps, permanent_link_failures

    if "fail_fraction" in point:
        return permanent_link_failures(topo.graph, point["fail_fraction"],
                                       seed=point["fault_seed"])
    horizon = cfg.warmup_cycles + cfg.measure_cycles
    return link_flaps(topo.graph, point["flap_links"], horizon=horizon,
                      seed=point["fault_seed"])


def run_point(point: dict, nets: dict, cfg, trace, engine: str = "soa"):
    """One packet point (schedule generation, simulator set-up and run)."""
    from repro.sim.packet import PacketSimulator

    topo, router, pattern = nets[point["name"]]
    schedule = None
    if point["kind"] == "faults":
        schedule = trace.call("faults.schedule", _schedule, point, topo, cfg)
    sim = trace.call("sim.packet.init", PacketSimulator, topo, router, pattern, cfg,
                     adaptive=point["kind"] == "ugal", faults=schedule, engine=engine)
    return trace.call(f"sim.packet.run.{point['kind']}", sim.run, point["load"])


def one_pass(store_dir, inputs: dict, trace) -> dict:
    """Every point of the workload, then (on ``packet_faults``) the
    disconnection-ratio summary.  Routers are resolved afresh from the disk
    tier before the clock starts, so every pass builds its own next-hop
    tables and fault-router state."""
    from repro import store
    from repro.analysis.faults import disconnection_ratio

    store.configure(root=store_dir)
    nets = _networks()
    cfg = _config(inputs, inputs["cycles"])
    stages: dict[str, float] = {}
    results, ratios = [], []
    for i, point in enumerate(inputs["points"]):
        t0 = time.perf_counter()
        results.append(run_point(point, nets, cfg, trace))
        stages[point_stage(i, point)] = time.perf_counter() - t0
    if any(p["kind"] != "min" for p in inputs["points"]):
        for name in NAMES:
            t0 = time.perf_counter()
            ratios.append(trace.call("analysis.disconnection_ratio", disconnection_ratio,
                                     nets[name][0].graph, seed=inputs["disconnection_seed"]))
            stages[f"disconnection/{name}"] = time.perf_counter() - t0
    return {"stages": stages, "results": results, "disconnection": ratios, "nets": nets}


def point_stage(i: int, point: dict) -> str:
    return f"point{i}/{point['name']}/{point['kind']}"


def hops(results) -> float:
    """Simulated packet-hops: sum of delivered x avg_hops."""
    return float(sum(r.delivered * r.avg_hops for r in results))


def check(run: harness.Run, passes: list[dict], inputs: dict) -> int:
    """Accounting, determinism and reference-parity oracles; returns the
    number of failed points."""
    points = inputs["points"]
    nets = passes[0]["nets"]
    failed = 0
    for p in passes:
        for point, res in zip(points, p["results"]):
            problems = oracles.packet_accounting(res, point["load"], inputs["cycles"],
                                                 fault_free=point["kind"] != "faults")
            failed += not run.check(f"accounting {point['name']}/{point['kind']}",
                                    not problems, "; ".join(problems))
        if p["disconnection"]:
            run.check("disconnection ratio in (0, 1]",
                      all(0.0 < r <= 1.0 for r in p["disconnection"]), str(p["disconnection"]))
    # Determinism: every repeat of a seeded point must match the first pass.
    if len(passes) < 2:
        cheapest = int(np.argmin([passes[0]["stages"][point_stage(i, pt)]
                                  for i, pt in enumerate(points)]))
        again = run_point(points[cheapest], nets, _config(inputs, inputs["cycles"]),
                          harness.NullTrace())
        repeats = [(points[cheapest], passes[0]["results"][cheapest], again)]
    else:
        repeats = [(pt, a, b) for p in passes[1:]
                   for pt, a, b in zip(points, passes[0]["results"], p["results"])]
    problems = [msg for pt, a, b in repeats
                for msg in oracles.same_result(a, b, f"repeat {pt['name']}/{pt['kind']}")]
    failed += not run.check("simulated statistics repeat exactly", not problems,
                            "; ".join(problems))
    # Parity with the pinned reference engine on a shrunken point.
    point = points[-1] if points[-1]["kind"] != "min" else points[0]
    cfg = _config(inputs, PARITY_CYCLES)
    soa = run_point(point, nets, cfg, harness.NullTrace(), engine="soa")
    ref = run_point(point, nets, cfg, harness.NullTrace(), engine="reference")
    problems = oracles.same_result(soa, ref, f"soa vs reference {point['name']}/{point['kind']}")
    run.check("engine parity with the reference", not problems, "; ".join(problems))
    return failed


def measure(run: harness.Run) -> None:
    inputs = plan(run.workload, run.seed)
    run.params = inputs
    store_dir = run.fresh_dir("store")
    setup(run.seed, store_dir)
    passes = harness.timed_passes(run, lambda: one_pass(store_dir, inputs, harness.NullTrace()))
    run.values["peak_rss_mb"] = harness.peak_rss_mb()
    checked = list(passes)
    if run.trace:
        with harness.traced_session() as (trace, registry):
            traced = one_pass(store_dir, inputs, trace)
        run.layers.update(_layers(trace, registry, inputs, traced))
        run.layers["obs.overhead_frac"] = (harness.pass_seconds(traced)
                                           / harness.pass_seconds(passes[0]) - 1.0)
        checked.append(traced)
    failed = check(run, checked, inputs)
    run.ops(sum(len(p["results"]) for p in checked), failed)

    ops = [point_stage(i, point) for i, point in enumerate(inputs["points"])]
    run.values.update(harness.batch_values(passes, ops, hops(passes[0]["results"])))
    run.extra["pass_seconds"] = [harness.pass_seconds(p) for p in passes]
    run.extra["stage_seconds"] = harness.fastest_stages(passes)


def _layers(trace, registry, inputs: dict, traced: dict) -> dict:
    by_kind: dict[str, list] = {"min": [], "ugal": [], "faults": []}
    for point, res in zip(inputs["points"], traced["results"]):
        by_kind[point["kind"]].append(res)
    out = {
        "routing.next_hop_table_s": trace.seconds["routing.next_hop_table"],
        "sim.packet.init_s": trace.seconds["sim.packet.init"],
        "faults.schedule_s": trace.seconds["faults.schedule"],
        "analysis.disconnection_ratio_s": trace.seconds["analysis.disconnection_ratio"],
    }
    for kind, results in by_kind.items():
        run_s = trace.seconds[f"sim.packet.run.{kind}"]
        out[f"sim.packet.run_s.{kind}"] = run_s
        out[f"sim.packet.ns_per_hop.{kind}"] = 1e9 * run_s / hops(results) if results else 0.0
    faulted = by_kind["faults"]
    injected = sum(r.injected for r in faulted)
    delivered = sum(r.delivered for r in faulted)
    out.update({
        "faults.reroutes": sum(r.reroutes for r in faulted),
        "faults.dropped": sum(r.dropped for r in faulted),
        "faults.injected": injected,
        "faults.delivered": delivered,
        "faults.delivered_frac": delivered / injected if injected else 0.0,
        "faults.recompute.dests": harness.counter_total(registry, "faults.recompute.dests"),
    })
    return out
