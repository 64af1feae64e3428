"""Fig. 14, made dynamic: delivered traffic under live link failures.

The static Fig. 14 study (:mod:`repro.experiments.fig14`) deletes links
from the graph and re-measures diameter / average path length.  This
experiment injects the same seeded random link failures *into a running
packet simulation* (:mod:`repro.faults`): the fault-aware router degrades
through its fallback ladder, packets re-route at blocked routers, and the
figure of merit becomes the **delivered fraction** — what share of the
measured-window traffic still arrives as the failed-link fraction grows.

Sweep points share one seed, so the victim sets are nested-ish across
fractions and the whole artifact is byte-identical across reruns (the
determinism contract ``repro faults sweep`` relies on).  For context each
topology also reports its static disconnection ratio at the same seed —
delivered fraction should stay well above zero until failures approach it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.analysis.faults import disconnection_ratio
from repro.experiments.common import (
    check_choices,
    check_options,
    format_table,
    run_trials,
    table3_instance,
    table3_router,
)
from repro.faults import permanent_link_failures
from repro.sim.packet import PacketSimConfig, PacketSimulator
from repro.topologies.table3 import REDUCED_BUILDERS
from repro.traffic import UniformRandomPattern

__all__ = [
    "TOPOLOGIES",
    "FRACTIONS",
    "TRIAL_FIDELITY",
    "default_config",
    "run",
    "plan_trials",
    "run_trial",
    "merge_trials",
    "format_figure",
]

TOPOLOGIES = ("PS-IQ",)
FRACTIONS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3)

#: Trial API (repro.runtime): sweep points are packet simulations, so the
#: supervisor may degrade a persistently timing-out point to ``flow``.
TRIAL_FIDELITY = "packet"


def default_config(seed: int = 0) -> PacketSimConfig:
    """Sweep-point simulator config (a few seconds per point at PS-IQ
    reduced scale; CI smoke uses a smaller instance via the CLI)."""
    return PacketSimConfig(
        warmup_cycles=400, measure_cycles=1600, drain_cycles=1600, seed=seed
    )


def _finite(x: float) -> float | None:
    """JSON-safe number (``inf`` from an empty latency sample becomes null)."""
    return float(x) if math.isfinite(x) else None


def _point(topo, router, pattern, cfg, frac, load, seed) -> dict:
    """Simulate one packet-level sweep point."""
    schedule = permanent_link_failures(topo.graph, frac, seed=seed, time=0)
    sim = PacketSimulator(topo, router, pattern, cfg, faults=schedule)
    res = sim.run(load)
    return {
        "fraction": float(frac),
        "failed_links": len(schedule),
        "delivered_fraction": float(res.delivered_fraction),
        "throughput": float(res.throughput),
        "avg_latency": _finite(res.avg_latency),
        "p99_latency": _finite(res.p99_latency),
        "injected": res.injected,
        "delivered": res.delivered,
        "dropped": res.dropped,
        "reroutes": res.reroutes,
        "drop_causes": res.drop_causes,
        "fidelity": "packet",
    }


def _flow_point(topo, frac, seed) -> dict:
    """Degraded (flow-fidelity) sweep point: no packet simulation.

    Approximates the delivered fraction by the share of ordered router
    pairs still connected once the same seeded victim links are removed —
    an upper bound on what any router could deliver.  Latency and packet
    accounting are unknowable at this fidelity and reported as null.
    """
    schedule = permanent_link_failures(topo.graph, frac, seed=seed, time=0)
    graph = topo.graph
    down = {(min(ev.u, ev.v), max(ev.u, ev.v)) for ev in schedule}
    e = graph.edge_array
    keep = np.fromiter(
        (
            (min(int(e[i, 0]), int(e[i, 1])), max(int(e[i, 0]), int(e[i, 1])))
            not in down
            for i in range(graph.m)
        ),
        dtype=bool,
        count=graph.m,
    )
    n = graph.n
    if n <= 1:
        connected = 1.0
    else:
        rows, cols = e[keep, 0], e[keep, 1]
        mat = sp.coo_matrix(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n)
        )
        _, labels = sp.csgraph.connected_components(mat, directed=False)
        sizes = np.bincount(labels)
        connected = float((sizes * (sizes - 1)).sum() / (n * (n - 1)))
    return {
        "fraction": float(frac),
        "failed_links": len(schedule),
        "delivered_fraction": connected,
        "throughput": None,
        "avg_latency": None,
        "p99_latency": None,
        "injected": None,
        "delivered": None,
        "dropped": None,
        "reroutes": None,
        "drop_causes": {},
        "fidelity": "flow",
    }


def run(
    names=TOPOLOGIES,
    fractions=FRACTIONS,
    load: float = 0.3,
    seed: int = 0,
    cycles=None,
) -> dict:
    """Delivered fraction / latency / drop accounting per failed-link step.

    The trial API below, run in process; ``cycles`` is its option of the
    same name.  Every value in the returned dict is JSON-serializable and
    free of wall-clock state, so ``json.dumps(..., sort_keys=True)`` of it
    is byte-identical for identical arguments.
    """
    opts = {"names": names, "fractions": fractions, "load": load, "seed": seed}
    if cycles is not None:
        opts["cycles"] = cycles
    return run_trials(plan_trials, run_trial, merge_trials, opts)


# -- trial API (repro.runtime) ------------------------------------------------


def _number(name: str, value: object, hi: float = math.inf) -> float:
    """*value* as a float; ``ValueError`` unless it is a finite number in
    ``[0, hi]``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (math.isfinite(value) and 0 <= value <= hi)
    ):
        raise ValueError(f"{name} must be a finite number in [0, {hi}], got {value!r}")
    return float(value)


def _cycles(cycles: object) -> list[int]:
    """``[warmup, measure, drain]``; ``ValueError`` unless they are three
    integers :class:`PacketSimConfig` accepts."""
    if not (
        isinstance(cycles, (list, tuple))
        and len(cycles) == 3
        and all(isinstance(c, int) and not isinstance(c, bool) for c in cycles)
    ):
        raise ValueError(f"cycles must be three integers [warmup, measure, drain], got {cycles!r}")
    warmup, measure, drain = cycles
    PacketSimConfig(warmup_cycles=warmup, measure_cycles=measure, drain_cycles=drain)
    return list(cycles)


def plan_trials(opts: dict) -> list[dict]:
    """Per topology: one static-summary trial plus one trial per fraction.

    ``opts["cycles"]`` (``[warmup, measure, drain]``) shrinks the simulated
    window for smoke runs; it is part of trial identity, so smoke journals
    never satisfy full-scale resumes.  Raises ``ValueError`` for an unknown
    option, a topology with no reduced-scale network, a fraction outside
    [0, 1], a negative or non-finite load, and bad ``cycles``.
    """
    check_options(opts, ("names", "fractions", "load", "seed", "cycles"))
    names = check_choices("topology", opts.get("names", TOPOLOGIES), REDUCED_BUILDERS)
    raw_fractions = opts.get("fractions", FRACTIONS)
    if not isinstance(raw_fractions, (list, tuple)):
        raise ValueError(f"fractions must be a list, got {raw_fractions!r}")
    fractions = [_number("fraction", f, hi=1.0) for f in raw_fractions]
    load = _number("load", opts.get("load", 0.3))
    seed = int(opts.get("seed", 0))
    cycles = None if opts.get("cycles") is None else _cycles(opts["cycles"])
    trials = []
    for name in names:
        trials.append(
            {"kind": "summary", "topology": str(name), "seed": seed, "load": load}
        )
        for frac in fractions:
            params = {
                "kind": "point",
                "topology": str(name),
                "fraction": frac,
                "load": load,
                "seed": seed,
            }
            if cycles is not None:
                params["cycles"] = list(cycles)
            trials.append(params)
    return trials


def run_trial(params: dict, fidelity: str = "packet", attempt: int = 1) -> dict:
    """Execute one sweep trial at the requested fidelity (workers call this)."""
    name = params["topology"]
    seed = int(params["seed"])
    topo = table3_instance(name, scale="reduced")
    if params["kind"] == "summary":
        return {
            "summary": {
                "load": float(params["load"]),
                "seed": seed,
                "disconnection_ratio": float(
                    disconnection_ratio(topo.graph, seed=seed)
                ),
            }
        }
    frac = float(params["fraction"])
    if fidelity == "flow":
        return {"point": _flow_point(topo, frac, seed)}
    router, _ = table3_router(name, scale="reduced")
    pattern = UniformRandomPattern(topo)
    cycles = params.get("cycles")
    if cycles is None:
        cfg = default_config(seed)
    else:
        warmup, measure, drain = (int(c) for c in cycles)
        cfg = PacketSimConfig(
            warmup_cycles=warmup, measure_cycles=measure, drain_cycles=drain, seed=seed
        )
    return {"point": _point(topo, router, pattern, cfg, frac, params["load"], seed)}


def merge_trials(opts: dict, outcomes: list[dict]) -> dict:
    """Fold finished trials back into the ``run()`` result shape.

    Quarantined or pending trials simply leave their point out (and the
    disconnection ratio null if the summary trial itself failed), so a
    partial sweep still renders.
    """
    load = float(opts.get("load", 0.3))
    seed = int(opts.get("seed", 0))
    out: dict = {}
    for o in outcomes:
        name = o["params"]["topology"]
        entry = out.setdefault(
            name,
            {"load": load, "seed": seed, "disconnection_ratio": None, "points": []},
        )
        if o["status"] != "done" or o["result"] is None:
            continue
        if o["params"]["kind"] == "summary":
            entry.update(o["result"]["summary"])
        else:
            entry["points"].append(o["result"]["point"])
    for entry in out.values():
        entry["points"].sort(key=lambda p: p["fraction"])
    return out


def format_figure(result: dict) -> str:
    """Render one delivered-fraction table per topology."""
    parts = []
    headers = [
        "failed links", "delivered", "throughput", "avg lat", "p99 lat",
        "dropped", "reroutes",
    ]
    for name, data in result.items():
        rows = []
        for pt in data["points"]:
            throughput = pt["throughput"]
            rows.append(
                [
                    f"{pt['fraction']:.0%}",
                    f"{pt['delivered_fraction']:.1%}",
                    "-" if throughput is None else f"{throughput:.3f}",
                    "-" if pt["avg_latency"] is None else f"{pt['avg_latency']:.1f}",
                    "-" if pt["p99_latency"] is None else f"{pt['p99_latency']:.1f}",
                    "-" if pt["dropped"] is None else str(pt["dropped"]),
                    "-" if pt["reroutes"] is None else str(pt["reroutes"]),
                ]
            )
        ratio = data["disconnection_ratio"]
        ratio_txt = "n/a" if ratio is None else f"{ratio:.0%}"
        parts.append(
            f"{name} at load {data['load']:.2f} (static disconnection ratio "
            f"{ratio_txt}, seed {data['seed']}):\n"
            + format_table(headers, rows)
        )
    return "\n\n".join(parts)
