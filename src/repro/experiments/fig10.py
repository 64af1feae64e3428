"""Fig. 10: adversarial traffic on the hierarchical topologies.

Every group sends all of its traffic to one other group (§9.6), so the
inter-group links become the bottleneck.  The figure's message: DF and MF
(one link per group pair) saturate lowest; star products (BF, PS-*) hold
more load thanks to their parallel inter-supernode links; PS-IQ leads due
to its larger share of global links; UGAL recovers much of the loss.
"""

from __future__ import annotations

from repro.experiments.common import (
    check_choices,
    check_options,
    format_table,
    merge_rows,
    run_trials,
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
    return run_trials(
        plan_trials, run_trial, merge_trials, {"names": names, "with_ugal": with_ugal}
    )


# -- trial API (repro.runtime) ------------------------------------------------


def plan_trials(opts: dict) -> list[dict]:
    """One trial per hierarchical topology; ``ValueError`` for an unknown
    option or a topology outside :data:`HIERARCHICAL`."""
    check_options(opts, ("names", "with_ugal"))
    names = check_choices("topology", opts.get("names", HIERARCHICAL), HIERARCHICAL)
    with_ugal = bool(opts.get("with_ugal", True))
    return [{"topology": str(n), "with_ugal": with_ugal} for n in names]


def run_trial(params: dict, fidelity: str = "flow", attempt: int = 1) -> dict:
    """Compute one adversarial saturation row (JSON-safe; workers call this)."""
    name = params["topology"]
    topo = table3_instance(name)
    router, mode = table3_router(name)
    demand = AdversarialGroupPattern(topo).router_demand()
    row = saturation_row(topo, router, mode, demand, params.get("with_ugal", True))
    return {"row": {"topology": name, **row}}


#: Fold finished trial rows back into the ``run()`` result shape.
merge_trials = merge_rows


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
