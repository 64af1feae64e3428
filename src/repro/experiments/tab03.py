"""Table 3: the simulated network configurations, rebuilt and verified."""

from __future__ import annotations

from repro.experiments.common import (
    check_choices,
    check_options,
    format_table,
    merge_rows,
    run_trials,
    table3_instance,
)
from repro.topologies.table3 import TABLE3_BUILDERS

__all__ = [
    "PAPER_ROWS",
    "TRIAL_FIDELITY",
    "run",
    "plan_trials",
    "run_trial",
    "merge_trials",
    "format_figure",
]

#: Trial API (repro.runtime): construction checks have no simulation fidelity.
TRIAL_FIDELITY = "flow"

PAPER_ROWS = {
    # name: (routers, radix, endpoints) as printed in the paper
    "PS-IQ": (1064, 15, 5320),
    "PS-Pal": (993, 15, 4965),  # construction yields 949/4745; see table3.py
    "BF": (882, 15, 4410),
    "HX": (648, 23, 5184),
    "DF": (876, 17, 5256),
    "SF": (1092, 24, 8736),
    "MF": (1040, 16, 4160),
    "FT": (972, 36, 5832),
}


def run(names=tuple(TABLE3_BUILDERS)) -> dict:
    """Rebuild the Table 3 networks and compare to the printed rows."""
    return run_trials(plan_trials, run_trial, merge_trials, {"names": names})


# -- trial API (repro.runtime) ------------------------------------------------


def plan_trials(opts: dict) -> list[dict]:
    """One trial per Table 3 network; ``ValueError`` for an unknown option
    or name."""
    check_options(opts, ("names",))
    names = check_choices("topology", opts.get("names", tuple(TABLE3_BUILDERS)), TABLE3_BUILDERS)
    return [{"name": str(n)} for n in names]


def run_trial(params: dict, fidelity: str = "flow", attempt: int = 1) -> dict:
    """Rebuild one network and compare it to the printed row."""
    name = params["name"]
    topo = table3_instance(name)
    paper = PAPER_ROWS[name]
    return {
        "row": {
            "name": name,
            "routers": int(topo.num_routers),
            "radix": int(topo.network_radix),
            "endpoints": int(topo.num_endpoints),
            "paper_routers": paper[0],
            "paper_radix": paper[1],
            "paper_endpoints": paper[2],
            "match": (topo.num_routers, topo.network_radix, topo.num_endpoints)
            == paper,
        }
    }


#: Fold finished trial rows back into the ``run()`` result shape.
merge_trials = merge_rows


def format_figure(result: dict) -> str:
    """Render the Table 3 comparison."""
    headers = [
        "network",
        "routers",
        "radix",
        "endpoints",
        "paper routers",
        "paper radix",
        "paper endpoints",
        "match",
    ]
    rows = [
        [
            r["name"],
            r["routers"],
            r["radix"],
            r["endpoints"],
            r["paper_routers"],
            r["paper_radix"],
            r["paper_endpoints"],
            "yes" if r["match"] else "see note",
        ]
        for r in result["rows"]
    ]
    return format_table(headers, rows)
