"""Flow-level network model: link loads and saturation throughput.

Given a router-to-router demand matrix (endpoint injection rate 1 per
endpoint — see :mod:`repro.traffic.patterns`) and a routing policy, compute
the steady-state load on every directed link.  The saturation injection
rate is then ``1 / max_link_load`` (links have unit capacity, one flit per
cycle), capped at 1 — exactly the quantity the latency-vs-load plots of
Fig. 9/10 saturate at.  This runs at full Table 3 scale where the
cycle-level simulator cannot.

Routing modes, one array path each:

* ``all`` — traffic splits evenly over all minimal next hops at every
  router (what Booksim's table-based MIN with random tie-breaking does):
  the graph's minimal-path DAG whatever the router, walked level by level
  over a BFS table (``TableRouter.dist``, else the store's);
* ``single`` — traffic follows the router's single deterministic next hop
  (PolarStar's analytic routing, Dragonfly l-g-l): all demanded pairs walk
  in lockstep, one ``Router.next_hop_batch`` call per hop.

Demand towards an unreachable router raises ``ValueError`` in both modes.
Valiant and UGAL are modeled on top: Valiant = two minimal phases through a
uniformly random intermediate; UGAL = the best fixed minimal/Valiant split,
a standard throughput-level approximation of per-packet adaptivity.
"""

from __future__ import annotations

import numpy as np

from repro import obs, store
from repro.graphs.base import Graph
from repro.routing.base import Router
from repro.routing.table import TableRouter
from repro.topologies.base import Topology

__all__ = [
    "link_loads",
    "saturation",
    "saturation_load",
    "valiant_link_loads",
    "ugal_saturation_load",
]

#: Minimal/Valiant splits UGAL's saturation is the best of (0, 0.1, ..., 1).
_UGAL_MIXTURES = 11


def link_loads(
    topology: Topology,
    router: Router,
    demand: np.ndarray,
    mode: str = "all",
) -> np.ndarray:
    """Per-directed-link load under minimal routing of *demand*.

    Returns an array over directed links in CSR order.  *demand* is the
    ``(n, n)`` router demand matrix, finite and non-negative; its diagonal
    is ignored.  Raises ``ValueError`` on an unknown *mode*, on any other
    *demand*, and on demand towards a router its source cannot reach.
    """
    g = topology.graph
    if mode not in ("all", "single"):
        raise ValueError(f"unknown flow mode {mode!r}; expected 'all' or 'single'")
    demand = np.asarray(demand)
    if demand.shape != (g.n, g.n):
        raise ValueError(f"demand has shape {demand.shape}; expected ({g.n}, {g.n})")
    if not np.isfinite(demand).all() or (demand < 0).any():
        raise ValueError("demand must be finite and non-negative")
    cols = np.flatnonzero(demand.any(axis=0))
    with obs.span(f"sim.flow.link_loads.{mode}"):
        if mode == "single":
            loads = _link_loads_single(g, router, demand)
        else:
            dist = router.dist if isinstance(router, TableRouter) else store.distance_table(g)
            loads = _link_loads_all(g, dist, demand, cols)
    _record_flow_metrics(loads, columns=len(cols))
    return loads


def _record_flow_metrics(loads: np.ndarray, columns: int) -> None:
    """Publish one link_loads solve into the ambient registry (no-op when
    observability is disabled: disabled registries hand out null instruments)."""
    reg = obs.get_registry()
    if not reg.enabled:
        return
    reg.counter(
        "sim.flow.dest_columns",
        help="destination columns propagated through the minimal-path DAG",
    ).inc(columns)
    reg.counter(
        "sim.flow.solves", help="link_loads invocations (flow-model iterations)"
    ).inc()
    reg.gauge(
        "sim.flow.max_link_load",
        help="peak per-link load of the most recent worst solve (saturation = 1/peak)",
    ).set_max(float(loads.max()) if len(loads) else 0.0)


def _link_loads_all(
    g: Graph, dist: np.ndarray, demand: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """All-minpath link loads from a BFS distance matrix: per demanded
    destination column, flow moves down the shortest-path DAG level by
    level, farthest first; O(len(cols) · E) NumPy work."""
    dcols = dist[:, cols]
    cut = (dcols == np.iinfo(np.int16).max) & (demand[:, cols] != 0)
    if cut.any():
        s, j = np.argwhere(cut)[0]
        raise ValueError(f"demand from router {s} to {cols[j]}, which it cannot reach")
    u_arr = np.repeat(np.arange(g.n), np.diff(g.indptr))
    v_arr = g.indices
    loads = np.zeros(len(u_arr), dtype=np.float64)
    dag = dcols[u_arr] == dcols[v_arr] + 1  # (E, C) minimal-DAG membership

    # k[u, j]: number of minimal next hops of u toward cols[j].  A CSR row
    # is one contiguous run of dag rows, so a reduceat over the starts of
    # the non-empty rows sums each; zero-degree rows keep 0.
    k = np.zeros((g.n, len(cols)), dtype=np.int32)
    rows = np.flatnonzero(np.diff(g.indptr))
    if len(rows):
        k[rows] = np.add.reduceat(dag, g.indptr[:-1][rows], axis=0, dtype=np.int32)
    k[k == 0] = 1

    for j, t in enumerate(cols):
        f = demand[:, t].astype(np.float64)
        e_ids = np.flatnonzero(dag[:, j])
        d_tail = dcols[u_arr[e_ids], j]
        order = np.argsort(-d_tail, kind="stable")
        e_ids, d_tail = e_ids[order], d_tail[order]
        eu, ev = u_arr[e_ids], v_arr[e_ids]
        # One level per tail distance, farthest first, so a level's flow is
        # complete before it moves one hop closer.
        bounds = [0, *(np.flatnonzero(np.diff(d_tail)) + 1).tolist(), len(e_ids)]
        for seg in map(slice, bounds[:-1], bounds[1:]):
            share = f[eu[seg]] / k[eu[seg], j]
            loads[e_ids[seg]] += share
            np.add.at(f, ev[seg], share)
    return loads


def _link_loads_single(g: Graph, router: Router, demand: np.ndarray) -> np.ndarray:
    """Single-path link loads: every demanded pair advances one hop per
    step, with one router call for the distinct (router, destination) pairs."""
    n = g.n
    # Sorted link keys u·n + v (CSR order); the trailing sentinel keeps the
    # lookup of a hop past the last key in range.
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    keys = np.append(rows * n + g.indices, n * n)
    loads = np.zeros(len(rows), dtype=np.float64)
    # The demanded off-diagonal pairs in row-major order, read without an
    # (n, n) copy of the demand.
    cur, dst = (a.astype(np.int64, copy=False) for a in np.nonzero(demand))
    off = cur != dst
    cur, dst = cur[off], dst[off]
    weight = demand[cur, dst].astype(np.float64, copy=False)
    for _ in range(n):
        if not len(cur):
            return loads
        pairs, inverse = np.unique(cur * n + dst, return_inverse=True)
        hop = router.next_hop_batch(pairs // n, pairs % n)[inverse]
        if (hop < 0).any():
            i = np.argmax(hop < 0)
            raise ValueError(f"no next hop from router {cur[i]} towards {dst[i]}")
        link = cur * n + hop
        eid = np.searchsorted(keys, link)
        stray = (hop >= n) | (keys[np.minimum(eid, len(rows))] != link)
        if stray.any():
            i = np.argmax(stray)
            raise ValueError(f"next hop {hop[i]} of router {cur[i]} is not a neighbour")
        loads += np.bincount(eid, weights=weight, minlength=len(rows))
        going = hop != dst
        cur, dst, weight = hop[going], dst[going], weight[going]
    if len(cur):
        raise RuntimeError(f"routing loop: {len(cur)} demand pairs under way after {n} hops")
    return loads


def saturation(loads: np.ndarray) -> float:
    """Saturation injection rate of per-link *loads*: ``1 / peak``, capped
    at 1 (and 1 when no link carries load)."""
    peak = loads.max() if len(loads) else 0.0
    return float(min(1.0, 1.0 / peak)) if peak > 0 else 1.0


def saturation_load(
    topology: Topology,
    router: Router,
    demand: np.ndarray,
    mode: str = "all",
) -> float:
    """Saturation injection rate (fraction of full per-endpoint bandwidth)."""
    return saturation(link_loads(topology, router, demand, mode=mode))


def valiant_link_loads(
    topology: Topology,
    router: Router,
    demand: np.ndarray,
    mode: str = "all",
) -> np.ndarray:
    """Valiant routing: phase 1 spreads each source's traffic uniformly over
    all routers, phase 2 delivers — each phase routed minimally."""
    n = topology.num_routers
    out_rate = demand.sum(axis=1)
    in_rate = demand.sum(axis=0)
    spread1 = np.outer(out_rate, np.full(n, 1.0 / n, dtype=np.float64))
    np.fill_diagonal(spread1, 0.0)
    spread2 = np.outer(np.full(n, 1.0 / n, dtype=np.float64), in_rate)
    np.fill_diagonal(spread2, 0.0)
    return link_loads(topology, router, spread1, mode) + link_loads(
        topology, router, spread2, mode
    )


def ugal_saturation_load(
    topology: Topology,
    router: Router,
    demand: np.ndarray,
    mode: str = "all",
    loads: np.ndarray | None = None,
) -> float:
    """UGAL throughput approximation: the adaptive policy can realize any
    fixed minimal/Valiant traffic split, so its saturation point is the best
    over the split parameter.  Pass *loads* to reuse MIN link loads of
    *demand* already solved."""
    l_min = link_loads(topology, router, demand, mode) if loads is None else loads
    l_val = valiant_link_loads(topology, router, demand, mode)
    return max(saturation((1 - a) * l_min + a * l_val) for a in np.linspace(0, 1, _UGAL_MIXTURES))

