"""Shared experiment utilities: routers per topology, table rendering,
geometric means, the in-process fold of the trial API with its option
checks, and the observability session every experiment can opt into."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Collection, Sequence

import numpy as np

from repro import obs, store
from repro.routing.base import Router
from repro.sim.flow import link_loads, saturation, ugal_saturation_load
from repro.topologies.base import Topology

__all__ = [
    "check_choices",
    "check_options",
    "geometric_mean",
    "merge_rows",
    "obs_session",
    "run_trials",
    "saturation_row",
    "table3_instance",
    "table3_router",
    "format_table",
]


@contextmanager
def obs_session(metrics_out: str | None, **manifest_fields):
    """Scoped observability for one experiment / simulator run.

    When ``metrics_out`` is ``None`` this is a no-op (ambient observability
    stays disabled, instrumented code pays null-instrument costs only).
    Otherwise an enabled ambient session covers the body, and on exit the
    metrics, span profile tree, and a captured :class:`~repro.obs.RunManifest`
    (``manifest_fields`` land in its ``extra`` section, except the
    recognized ``seed``/``config``/``topology`` keywords) are exported to
    ``metrics_out`` as JSON.  Yields the registry (or ``None``).
    """
    if metrics_out is None:
        yield None
        return
    with obs.session() as (registry, tracer):
        yield registry
        manifest = obs.RunManifest.capture(
            artifacts=store.get_store().resolved(), **manifest_fields
        )
        obs.export_json(metrics_out, registry, tracer, manifest)


def run_trials(
    plan_trials: Callable[[dict], list[dict]],
    run_trial: Callable[[dict], dict],
    merge_trials: Callable[[dict, list[dict]], dict],
    opts: dict,
) -> dict:
    """An experiment's trial API folded in process: plan, run every trial
    at its default fidelity, merge.  ``repro run`` runs the same trials in
    supervised workers."""
    outcomes = [
        {"params": params, "status": "done", "result": run_trial(params)}
        for params in plan_trials(opts)
    ]
    return merge_trials(opts, outcomes)


def merge_rows(opts: dict, outcomes: list[dict]) -> dict:
    """``merge_trials`` of an experiment whose trials each return one
    ``row``: the finished rows, in plan order."""
    return {
        "rows": [
            o["result"]["row"]
            for o in outcomes
            if o["status"] == "done" and o["result"] is not None
        ]
    }


def check_options(opts: dict, known: Collection[str]) -> None:
    """Raise ``ValueError`` for an option key the experiment does not read."""
    for key in opts:
        if key not in known:
            raise ValueError(f"unknown option {key!r}; options: {', '.join(sorted(known))}")


def check_choices(kind: str, values: object, options: Collection[str]) -> tuple[str, ...]:
    """*values* as a tuple, or ``ValueError`` when it is not a list or holds
    a value outside *options* (``kind`` names the values in the message)."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list of {kind} names, got {values!r}")
    allowed = list(options)
    for value in values:
        if value not in allowed:
            raise ValueError(f"unknown {kind} {value!r}; options: {', '.join(allowed)}")
    return tuple(values)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of the positive entries (0.0 if none)."""
    arr = np.asarray([v for v in values if v > 0], dtype=float)
    if not len(arr):
        return 0.0
    return float(np.exp(np.log(arr).mean()))


def table3_instance(name: str, scale: str = "full") -> Topology:
    """Cached Table 3 topology (``scale='reduced'`` for packet-sim work).

    Delegates to :func:`repro.store.table3_topology`: the per-process
    ``lru_cache`` this once used is replaced by the artifact store's memory
    tier (same object-identity guarantee) plus its on-disk tier.
    """
    return store.table3_topology(name, scale=scale)


def table3_router(name: str, scale: str = "full") -> tuple[Router, str]:
    """Cached (router, flow-mode) pair for a Table 3 topology."""
    return store.table3_router(name, scale=scale)


def saturation_row(
    topo: Topology, router: Router, mode: str, demand: np.ndarray, with_ugal: bool
) -> dict:
    """One Fig. 9/10 flow cell: the MIN saturation of *demand* and, when
    *with_ugal*, UGAL's from the same MIN loads."""
    loads = link_loads(topo, router, demand, mode=mode)
    row = {"min_saturation": saturation(loads)}
    if with_ugal:
        row["ugal_saturation"] = ugal_saturation_load(topo, router, demand, mode, loads=loads)
    return row


def format_table(headers: Sequence[str], rows: Sequence[Sequence], floatfmt: str = ".3f") -> str:
    """Render a plain-text table (monospace, right-aligned numbers)."""

    def fmt(x):
        if isinstance(x, float):
            return format(x, floatfmt)
        return str(x)

    cells = [[fmt(x) for x in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for r in cells:
        out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(out)
