"""Fig. 9: performance under synthetic traffic (MIN and UGAL).

Two reproductions at different fidelity:

* :func:`run` — flow-level saturation loads at **full Table 3 scale** for
  every topology x pattern x routing combination (the trial API below,
  run in process).  The paper's latency curves saturate exactly at these
  loads, so "who saturates where" — the figure's message — is reproduced
  directly.
* :func:`packet_sim_curves` — event-driven packet simulation (VCs, credit
  flow control) of latency vs load on the reduced-scale analogues of
  ``table3.REDUCED_BUILDERS``.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    check_choices,
    check_flag,
    check_options,
    format_table,
    merge_rows,
    run_trials,
    saturation_row,
    table3_instance,
    table3_router,
)
from repro.sim.packet import PacketSimConfig, latency_load_sweep
from repro.topologies.base import Topology
from repro.topologies.table3 import TABLE3_BUILDERS
from repro.traffic import (
    BitReversePattern,
    BitShufflePattern,
    RandomPermutationPattern,
    UniformRandomPattern,
)

__all__ = [
    "PATTERNS",
    "DEFAULT_TOPOLOGIES",
    "TRIAL_FIDELITY",
    "pattern_demand",
    "run",
    "plan_trials",
    "run_trial",
    "merge_trials",
    "packet_sim_curves",
    "format_figure",
]

#: Trial API (repro.runtime): the saturation cells are flow-level already.
TRIAL_FIDELITY = "flow"

PATTERNS = {
    "uniform": UniformRandomPattern,
    "permutation": lambda t: RandomPermutationPattern(t, seed=0),
    "bitreverse": BitReversePattern,
    "bitshuffle": BitShufflePattern,
}

DEFAULT_TOPOLOGIES = ("PS-IQ", "PS-Pal", "BF", "HX", "DF", "MF", "FT", "SF")


def pattern_demand(topo: Topology, pattern: str) -> np.ndarray:
    """Router demand matrix of a named pattern on a topology."""
    return PATTERNS[pattern](topo).router_demand()


def run(
    names=DEFAULT_TOPOLOGIES,
    patterns=("uniform", "permutation", "bitreverse", "bitshuffle"),
    with_ugal: bool = True,
) -> dict:
    """Flow-level saturation per topology x pattern combination."""
    opts = {"names": names, "patterns": patterns, "with_ugal": with_ugal}
    return run_trials(plan_trials, run_trial, merge_trials, opts)


# -- trial API (repro.runtime) ------------------------------------------------


def plan_trials(opts: dict) -> list[dict]:
    """One trial per (topology, pattern) saturation cell; ``ValueError``
    for an unknown option, Table 3 name or pattern, or a non-bool
    ``with_ugal``."""
    check_options(opts, ("names", "patterns", "with_ugal"))
    names = check_choices("topology", opts.get("names", DEFAULT_TOPOLOGIES), TABLE3_BUILDERS)
    patterns = check_choices(
        "pattern",
        opts.get("patterns", ("uniform", "permutation", "bitreverse", "bitshuffle")),
        PATTERNS,
    )
    with_ugal = check_flag("with_ugal", opts.get("with_ugal", True))
    return [
        {"topology": str(n), "pattern": str(p), "with_ugal": with_ugal}
        for n in names
        for p in patterns
    ]


def run_trial(params: dict, fidelity: str = "flow", attempt: int = 1) -> dict:
    """Compute one saturation row (JSON-safe; workers call this)."""
    name, pattern = params["topology"], params["pattern"]
    topo = table3_instance(name)
    router, mode = table3_router(name)
    demand = pattern_demand(topo, pattern)
    row = saturation_row(topo, router, mode, demand, params.get("with_ugal", True))
    return {"row": {"topology": name, "pattern": pattern, **row}}


#: Fold finished trial rows back into the ``run()`` result shape.
merge_trials = merge_rows


def packet_sim_curves(
    names=("PS-IQ", "PS-Pal", "BF", "DF", "HX"),
    pattern: str = "uniform",
    loads=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    adaptive: bool = False,
    config: PacketSimConfig | None = None,
) -> dict:
    """Packet-level latency-vs-load curves on the reduced-scale analogues."""
    out = {}
    for name in names:
        topo = table3_instance(name, scale="reduced")
        router, _ = table3_router(name, scale="reduced")
        pat = PATTERNS[pattern](topo)
        results = latency_load_sweep(
            topo, router, pat, loads, config=config, adaptive=adaptive
        )
        out[name] = [
            {
                "load": r.offered_load,
                "latency": r.avg_latency,
                "throughput": r.throughput,
                "stable": r.stable,
            }
            for r in results
        ]
    return out


def format_figure(result: dict) -> str:
    """Render the saturation table."""
    has_ugal = result["rows"] and "ugal_saturation" in result["rows"][0]
    headers = ["topology", "pattern", "MIN saturation"] + (
        ["UGAL saturation"] if has_ugal else []
    )
    rows = []
    for r in result["rows"]:
        row = [r["topology"], r["pattern"], r["min_saturation"]]
        if has_ugal:
            row.append(r["ugal_saturation"])
        rows.append(row)
    return format_table(headers, rows)
