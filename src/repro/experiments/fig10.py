"""Fig. 10: adversarial traffic on the hierarchical topologies.

Every group sends all of its traffic to one other group (§9.6), so the
inter-group links become the bottleneck.  The figure's message: DF and MF
(one link per group pair) saturate lowest; star products (BF, PS-*) hold
more load thanks to their parallel inter-supernode links; PS-IQ leads due
to its larger share of global links; UGAL recovers much of the loss.
"""

from __future__ import annotations

from repro.experiments.common import (
    format_table,
    saturation_row,
    table3_instance,
    table3_router,
)
from repro.traffic import AdversarialGroupPattern

__all__ = [
    "HIERARCHICAL",
    "TRIAL_FIDELITY",
    "run",
    "plan_trials",
    "run_trial",
    "merge_trials",
    "format_figure",
]

HIERARCHICAL = ("PS-IQ", "PS-Pal", "BF", "DF", "MF")

#: Trial API (repro.runtime): adversarial saturation is a flow-level model.
TRIAL_FIDELITY = "flow"


def run(names=HIERARCHICAL, with_ugal: bool = True) -> dict:
    """Adversarial-pattern saturation per hierarchical topology."""
    return {"rows": [_row(name, with_ugal) for name in names]}


def _row(name: str, with_ugal: bool) -> dict:
    topo = table3_instance(name)
    router, mode = table3_router(name)
    demand = AdversarialGroupPattern(topo).router_demand()
    row = saturation_row(topo, router, mode, demand, with_ugal)
    return {"topology": name, **row}


# -- trial API (repro.runtime) ------------------------------------------------


def plan_trials(opts: dict) -> list[dict]:
    """One trial per hierarchical topology."""
    names = tuple(opts.get("names", HIERARCHICAL))
    with_ugal = bool(opts.get("with_ugal", True))
    return [{"topology": str(n), "with_ugal": with_ugal} for n in names]


def run_trial(params: dict, fidelity: str = "flow", attempt: int = 1) -> dict:
    """Compute one adversarial saturation row (JSON-safe; workers call this)."""
    return {"row": _row(params["topology"], params.get("with_ugal", True))}


def merge_trials(opts: dict, outcomes: list[dict]) -> dict:
    """Fold finished trial rows back into the ``run()`` result shape."""
    rows = [
        o["result"]["row"]
        for o in outcomes
        if o["status"] == "done" and o["result"] is not None
    ]
    return {"rows": rows}


def format_figure(result: dict) -> str:
    """Render the Fig. 10 table."""
    has_ugal = result["rows"] and "ugal_saturation" in result["rows"][0]
    headers = ["topology", "MIN saturation"] + (["UGAL saturation"] if has_ugal else [])
    rows = []
    for r in result["rows"]:
        row = [r["topology"], r["min_saturation"]]
        if has_ugal:
            row.append(r["ugal_saturation"])
        rows.append(row)
    return format_table(headers, rows)
