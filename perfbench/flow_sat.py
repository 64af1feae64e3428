"""``flow_sat``: the cold-store Fig. 9 / Table 3 flow pipeline at full scale.

One pass, every stage timed on its own:

1. cold: from an empty store, resolve all eight Table 3 networks —
   topology, BFS distance table and the paper's router;
2. cells: MIN saturation cells for {PS-IQ, DF} (per-pair ``single``
   routing) and {BF, FT} (vectorized table routing) x {uniform,
   permutation}, each the body of ``fig09.run_trial`` with the permutation
   drawn from the run's seed.  A cell routes the demand towards a seeded
   ``DEST_SHARE`` of the destinations: a whole full-scale uniform
   cell on the per-pair path takes 6-10 s on two cores, too long to repeat
   within one run, and the solver handles each destination column alike;
3. warm: resolve all eight again from the disk tier into a fresh memory
   tier.

Passes repeat until the run's budget is spent, each on a fresh store, and
the metrics describe one pass made of every stage at its fastest
(:func:`harness.fastest_stages`).

Why: the only workload where construction, BFS, the store and the flow
solver do the work.  Uniform demand is dense and permutation demand
sparse, so a change to the per-pair path moves the uniform cells only.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import harness, oracles

NAMES = ("PS-IQ", "PS-Pal", "BF", "HX", "DF", "MF", "FT", "SF")
CELLS = tuple((name, pattern) for name in ("PS-IQ", "DF", "BF", "FT")
              for pattern in ("uniform", "permutation"))
#: Share of each network's destinations a cell routes demand to.
DEST_SHARE = 1 / 16


def plan(seed: int) -> dict:
    """The run's inputs, a pure function of *seed*."""
    rng = np.random.default_rng(seed)
    return {
        "permutation_seed": int(rng.integers(0, 2**31 - 1)),
        "destination_offset": int(rng.integers(0, round(1 / DEST_SHARE))),
        "cell_order": [list(CELLS[i]) for i in rng.permutation(len(CELLS))],
    }


def destinations(n: int, offset: int) -> np.ndarray:
    """Boolean mask of the sampled destinations of an *n*-router network:
    every ``1 / DEST_SHARE``-th router from *offset* on, spread evenly over
    the router ids (and so over the builders' vertex classes)."""
    step = round(1 / DEST_SHARE)
    mask = np.zeros(n, dtype=bool)
    mask[offset % step::step] = True
    return mask


def setup(seed: int, store_dir: str) -> None:
    """Everything before the first op: the layers' imports (the cold pass
    itself is timed work)."""
    import repro.experiments.fig09  # noqa: F401
    import repro.sim.flow  # noqa: F401
    import repro.store  # noqa: F401
    import repro.traffic  # noqa: F401


def _pattern(topo, pattern: str, perm_seed: int):
    from repro.traffic import RandomPermutationPattern, UniformRandomPattern

    if pattern == "uniform":
        return UniformRandomPattern(topo)
    return RandomPermutationPattern(topo, seed=perm_seed)


def cell_demand(topo, pattern: str, inputs: dict, trace) -> np.ndarray:
    """The cell's demand: the pattern's, towards the sampled destinations."""
    pat = _pattern(topo, pattern, inputs["permutation_seed"])
    demand = trace.call("traffic.demand", pat.router_demand)
    return demand * destinations(topo.graph.n, inputs["destination_offset"])


def _resolve(name: str) -> None:
    from repro import store

    topo = store.table3_topology(name)
    store.distance_table(topo)
    store.table3_router(name)


def _cell(name: str, pattern: str, inputs: dict, trace) -> dict:
    from repro import store
    from repro.sim.flow import link_loads

    topo = store.table3_topology(name)
    router, mode = store.table3_router(name)
    demand = cell_demand(topo, pattern, inputs, trace)
    loads = trace.call(f"sim.flow.solve.{mode}", link_loads, topo, router, demand,
                       mode=mode)
    peak = loads.max() if len(loads) else 0.0
    saturation = min(1.0, 1.0 / peak) if peak > 0 else 1.0
    return {"name": name, "pattern": pattern, "loads": loads, "saturation": float(saturation)}


def one_pass(root, inputs: dict, trace) -> dict:
    """Cold resolve, every cell, warm resolve; returns stage times and loads."""
    from repro import store

    stages: dict[str, float] = {}

    def timed(stage: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        stages[stage] = time.perf_counter() - t0
        return out

    timed("cold/configure", store.configure, root)
    for name in NAMES:
        timed(f"cold/{name}", _resolve, name)
    cells = [timed(cell_stage(name, pattern), _cell, name, pattern, inputs, trace)
             for name, pattern in inputs["cell_order"]]
    warm = timed("warm/configure", store.configure, root)
    for name in NAMES:
        timed(f"warm/{name}", _resolve, name)
    return {"stages": stages, "cells": cells, "warm_tiers": warm.resolved(),
            "on_disk": {e.digest for e in warm.entries()}}


def cell_stage(name: str, pattern: str) -> str:
    return f"cell/{name}/{pattern}"


def _route_hops(name: str, topo) -> np.ndarray:
    """Route lengths of the paper router, from the graph alone: BFS for
    every router except Dragonfly's l-g-l, which is not always shortest."""
    if name == "DF":
        return oracles.dragonfly_lgl_hops(topo.graph, topo.groups)
    return oracles.bfs_table(topo.graph)


def check_pass(run: harness.Run, result: dict, inputs: dict, hop_cache: dict) -> int:
    """Oracles for one pass; returns the number of failed cells."""
    from repro import store

    failed = 0
    for cell in result["cells"]:
        name = cell["name"]
        topo = store.table3_topology(name)
        if name not in hop_cache:
            hop_cache[name] = _route_hops(name, topo)
        demand = cell_demand(topo, cell["pattern"], inputs, harness.NullTrace())
        problems = oracles.flow_identity(cell["loads"], demand, hop_cache[name])
        if not 0.0 < cell["saturation"] <= 1.0:
            problems.append(f"saturation {cell['saturation']} outside (0, 1]")
        ok = run.check(f"flow identity {name}/{cell['pattern']}", not problems,
                       "; ".join(problems))
        failed += not ok
    # Artifacts the store can persist must come back from disk; the rest
    # (memory-only topologies and routers) are rebuilt by design.
    warm = result["warm_tiers"]
    rebuilt = [e for e in warm if e["tier"] == "build" and e["digest"] in result["on_disk"]]
    tables = [e for e in warm if e["kind"] == "dist_table"]
    ok = not rebuilt and len(tables) == len(NAMES) and all(e["tier"] == "disk" for e in tables)
    run.check("warm pass served from the disk tier", ok,
              f"rebuilt on the warm pass: {rebuilt[:3]}; tables: {tables[:3]}")
    return failed


def measure(run: harness.Run) -> None:
    inputs = plan(run.seed)
    run.params = {"names": list(NAMES), "destination_share": DEST_SHARE, **inputs}
    passes = harness.timed_passes(
        run, lambda: one_pass(run.fresh_dir("store"), inputs, harness.NullTrace()))
    run.values["peak_rss_mb"] = harness.peak_rss_mb()
    checked = list(passes)
    if run.trace:
        with harness.traced_session() as (trace, registry):
            traced = one_pass(run.fresh_dir("store"), inputs, trace)
            run.layers.update(_layers(trace, registry))
        run.layers["obs.overhead_frac"] = (harness.pass_seconds(traced)
                                           / harness.pass_seconds(passes[0]) - 1.0)
        checked.append(traced)
    hop_cache: dict = {}
    failed = sum(check_pass(run, p, inputs, hop_cache) for p in checked)
    run.ops(sum(len(p["cells"]) for p in checked), failed)

    # Flow-hops: every unit of demand times the links it crosses.
    flow_hops = sum(float(c["loads"].sum()) for c in passes[0]["cells"])
    ops = [cell_stage(name, pattern) for name, pattern in inputs["cell_order"]]
    run.values.update(harness.batch_values(passes, ops, flow_hops))
    run.extra["pass_seconds"] = [harness.pass_seconds(p) for p in passes]
    run.extra["stage_seconds"] = harness.fastest_stages(passes)


def _layers(trace, registry) -> dict:
    return {
        **harness.store_layer_metrics(trace, registry),
        "traffic.demand_s": trace.seconds["traffic.demand"],
        "sim.flow.solve_s.single": trace.seconds["sim.flow.solve.single"],
        "sim.flow.solve_s.all": trace.seconds["sim.flow.solve.all"],
        "sim.flow.solves": harness.counter_total(registry, "sim.flow.solves"),
    }
