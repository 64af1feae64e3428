"""Ablations of PolarStar design choices (DESIGN.md §5).

1. **Supernode kind** at fixed radix: IQ vs Paley vs BDF vs complete —
   scale, bisection, and diameter all from the same star-product machinery.
2. **Degree split** (q vs d') around the Eq. 1 optimum: order and bisection
   as the split moves away from ``q ≈ 2d*/3``.
3. **Single vs all minimal paths**: §9.3 notes SF and BF degrade badly with
   one minpath per pair while PolarStar does not — measured as uniform /
   permutation saturation under the flow model.
4. **UGAL sample count**: adversarial-pattern saturation as the number of
   sampled Valiant intermediates grows (paper uses 4).
"""

from __future__ import annotations

import numpy as np

from repro import store
from repro.core.polarstar import design_space
from repro.core.star_product import star_product
from repro.experiments.common import format_table, table3_instance, table3_router
from repro.graphs.bdf import bdf_supernode
from repro.graphs.complete import complete_supernode
from repro.graphs.er_polarity import er_polarity_graph
from repro.graphs.inductive_quad import inductive_quad
from repro.graphs.paley import paley_graph
from repro.sim.flow import saturation_load
from repro.sim.packet import PacketSimConfig, PacketSimulator
from repro.traffic import AdversarialGroupPattern, RandomPermutationPattern, UniformRandomPattern

__all__ = [
    "supernode_kind_ablation",
    "degree_split_ablation",
    "minpath_diversity_ablation",
    "ugal_samples_ablation",
    "routing_storage_comparison",
    "format_routing_storage",
    "format_supernode_kind",
    "format_degree_split",
    "format_minpath",
    "format_ugal_samples",
]


def supernode_kind_ablation(q: int = 7, dprime: int = 4) -> dict:
    """Same structure graph, same supernode degree, different supernode kind."""
    er = er_polarity_graph(q)
    builders = {
        "inductive-quad": lambda: inductive_quad(dprime),
        "paley": lambda: paley_graph(2 * dprime + 1),
        "bdf": lambda: bdf_supernode(dprime),
        "complete": lambda: complete_supernode(dprime),
    }
    rows = []
    for kind, build in builders.items():
        try:
            sn, f = build()
        except ValueError:
            rows.append({"kind": kind, "feasible": False})
            continue
        sp = star_product(er, sn, f, name=f"ER_{q}*{sn.name}")
        rows.append(
            {
                "kind": kind,
                "feasible": True,
                "order": sp.graph.n,
                "diameter": store.diameter(sp.graph),
                "bisection": store.bisection_fraction(sp.graph, restarts=1, seed=0),
            }
        )
    return {"q": q, "dprime": dprime, "rows": rows}


def degree_split_ablation(radix: int = 16) -> dict:
    """Every feasible (q, d') split at one radix: order + bisection."""
    rows = []
    for cfg in design_space(radix, kinds=("iq",)):
        from repro.core.polarstar import build_polarstar

        sp = build_polarstar(cfg)
        rows.append(
            {
                "q": cfg.q,
                "dprime": cfg.dprime,
                "order": cfg.order,
                "bisection": store.bisection_fraction(sp.graph, restarts=1, seed=cfg.q),
            }
        )
    return {"radix": radix, "rows": sorted(rows, key=lambda r: r["q"])}


def minpath_diversity_ablation(names=("PS-IQ", "BF", "SF")) -> dict:
    """§9.3: saturation with a single minpath vs all minpaths per pair."""
    rows = []
    for name in names:
        topo = table3_instance(name)
        router = store.table_router(topo)
        demand = RandomPermutationPattern(topo, seed=0).router_demand()
        uni = UniformRandomPattern(topo).router_demand()
        rows.append(
            {
                "topology": name,
                "uniform_single": saturation_load(topo, router, uni, mode="single"),
                "uniform_all": saturation_load(topo, router, uni, mode="all"),
                "perm_single": saturation_load(topo, router, demand, mode="single"),
                "perm_all": saturation_load(topo, router, demand, mode="all"),
            }
        )
    return {"rows": rows}


def ugal_samples_ablation(
    name: str = "DF",
    samples=(1, 2, 4, 8),
    load: float = 0.35,
) -> dict:
    """Packet-sim delivery under adversarial traffic vs UGAL sample count."""
    topo = table3_instance(name, scale="reduced")
    router, _ = table3_router(name, scale="reduced")
    pattern = AdversarialGroupPattern(topo)
    rows = []
    for k in samples:
        cfg = PacketSimConfig(
            warmup_cycles=400, measure_cycles=1600, drain_cycles=2000, ugal_samples=k
        )
        res = PacketSimulator(topo, router, pattern, cfg, adaptive=True).run(load)
        rows.append(
            {
                "samples": k,
                "latency": res.avg_latency,
                "throughput": res.throughput,
                "stable": res.stable,
            }
        )
    return {"topology": name, "load": load, "rows": rows}


def routing_storage_comparison(names=("PS-IQ", "PS-Pal", "BF", "SF", "DF")) -> dict:
    """§9.3: per-router routing-state comparison.

    PolarStar's analytic scheme stores structure-graph tables plus tiny
    supernode tables; SF/BF need all-minpath tables over every router pair;
    Dragonfly needs only the group gateway table.
    """
    rows = []
    for name in names:
        topo = table3_instance(name)
        router, _ = table3_router(name)
        table = store.table_router(topo)
        analytic_bytes = getattr(router, "table_bytes", table.table_bytes)
        rows.append(
            {
                "topology": name,
                "routers": topo.num_routers,
                "policy_bytes": int(analytic_bytes),
                "full_table_bytes": int(table.table_bytes),
                "ratio": table.table_bytes / max(analytic_bytes, 1),
            }
        )
    return {"rows": rows}


def format_routing_storage(result: dict) -> str:
    """Render the storage table."""
    headers = ["topology", "routers", "policy state (KiB)", "minpath tables (KiB)", "saving"]
    rows = [
        [
            r["topology"],
            r["routers"],
            r["policy_bytes"] / 1024,
            r["full_table_bytes"] / 1024,
            f"{r['ratio']:.1f}x",
        ]
        for r in result["rows"]
    ]
    return format_table(headers, rows, floatfmt=".0f")


def format_supernode_kind(result: dict) -> str:
    """Render the supernode-kind table."""
    headers = ["supernode", "order", "diameter", "bisection"]
    rows = []
    for r in result["rows"]:
        if not r["feasible"]:
            rows.append([r["kind"], "-", "-", "-"])
        else:
            rows.append([r["kind"], r["order"], int(r["diameter"]), r["bisection"]])
    return f"ER_{result['q']} * <supernode degree {result['dprime']}>:\n" + format_table(
        headers, rows
    )


def format_degree_split(result: dict) -> str:
    """Render the degree-split table."""
    headers = ["q", "d'", "order", "bisection"]
    rows = [[r["q"], r["dprime"], r["order"], r["bisection"]] for r in result["rows"]]
    return f"radix {result['radix']} splits:\n" + format_table(headers, rows)


def format_minpath(result: dict) -> str:
    """Render the minpath-diversity table."""
    headers = ["topology", "uniform 1-path", "uniform all", "perm 1-path", "perm all"]
    rows = [
        [r["topology"], r["uniform_single"], r["uniform_all"], r["perm_single"], r["perm_all"]]
        for r in result["rows"]
    ]
    return format_table(headers, rows)


def format_ugal_samples(result: dict) -> str:
    """Render the UGAL-samples table."""
    headers = ["samples", "latency", "throughput", "stable"]
    rows = [[r["samples"], r["latency"], r["throughput"], str(r["stable"])] for r in result["rows"]]
    return f"{result['topology']} adversarial @ load {result['load']}:\n" + format_table(
        headers, rows
    )
