"""Table-based all-minimal-path routing.

This is the reference policy: a full BFS distance matrix, with the minimal
next hops of ``(u, t)`` being the neighbors of *u* one step closer to *t*.
It is exact for every topology, at ``O(n²)`` memory — the storage cost the
paper calls out for SF and BF (§9.3, Fig. 9 caption).  PolarStar's analytic
router avoids it; we use the table router for baselines and as the oracle
in tests.

Distance tables are expensive (one BFS per vertex), so they are a first
class artifact: :func:`build_distance_table` is the only code path that
constructs one, it counts each construction in the ``routing.table.builds``
metric, and :func:`repro.store.distance_table` caches the result by graph
content so warm runs never rebuild (see ``docs/ARCHITECTURE.md``).  The
table comes from the bitset BFS kernel
:func:`repro.analysis.distances.hop_distances`, 512 sources per pass
(about 9 ms for full PS-IQ's 1064 routers on a 2-core x86-64 host,
against about 160 ms for SciPy's one-BFS-per-source Dijkstra); its blocks
are written straight into the ``int16`` table.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import obs
from repro.graphs.base import Graph
from repro.routing.base import HopView, Router

__all__ = [
    "TableRouter",
    "build_distance_table",
    "first_minimal_hops",
    "next_hop_table",
]


def build_distance_table(graph: Graph) -> np.ndarray:
    """All-pairs BFS distance matrix of *graph* as a read-only int16 array
    (unreachable pairs hold ``iinfo(int16).max``).

    Every call performs the full ``n``-source BFS and increments the
    ``routing.table.builds`` counter — callers wanting reuse go through
    :func:`repro.store.distance_table`, which shares one table per graph
    digest across routers, processes and runs.
    """
    # Imported here, not at module level: repro.analysis pulls in the
    # topologies/store stack, which circularly imports repro.routing — a
    # module-level import makes `import repro.routing` order-dependent.
    from repro.analysis.distances import hop_distances

    obs.get_registry().counter(
        "routing.table.builds",
        help="BFS distance-table constructions performed by this process",
    ).inc()
    dist = hop_distances(graph, np.arange(graph.n))
    dist.setflags(write=False)
    return dist


def first_minimal_hops(
    graph: Graph, dist: np.ndarray, cur: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Vectorized single-next-hop kernel over a shared distance table.

    For every pair ``(cur[i], dst[i])`` returns the smallest-id neighbor of
    ``cur[i]`` that is one step closer to ``dst[i]`` — the same hop
    :meth:`TableRouter.next_hop` picks, computed for thousands of pairs in
    a handful of NumPy passes instead of one Python call each.  Entries
    where ``cur == dst`` or ``dst`` is unreachable come back as ``-1``.

    This is the walking step of the batched path-reconstruction service
    (:mod:`repro.serve.engine`); a diameter-3 table needs at most three
    applications to materialize every path in a batch.
    """
    cur = np.asarray(cur, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if cur.shape != dst.shape or cur.ndim != 1:
        raise ValueError("cur and dst must be matching 1-D index arrays")
    out = np.full(cur.shape, -1, dtype=np.int64)
    if cur.size == 0:
        return out
    d = dist[cur, dst].astype(np.int32)
    active = (cur != dst) & (d < np.iinfo(np.int16).max)
    if not active.any():
        return out
    acur = cur[active]
    adst = dst[active]
    starts = graph.indptr[acur]
    lens = (graph.indptr[acur + 1] - starts).astype(np.int64)
    total = int(lens.sum())
    # Flat gather of every active pair's neighbor list (CSR segments).
    seg_start = np.cumsum(lens) - lens
    flat = np.repeat(starts - seg_start, lens) + np.arange(total, dtype=np.int64)
    nbrs = graph.indices[flat]
    closer = dist[nbrs, np.repeat(adst, lens)] == np.repeat(d[active] - 1, lens)
    hit = np.flatnonzero(closer)
    # First hit per segment = smallest-id closer neighbor (CSR is sorted).
    seg_of_hit = np.searchsorted(seg_start, hit, side="right") - 1
    first_seg, first_idx = np.unique(seg_of_hit, return_index=True)
    picked = np.full(acur.shape, -1, dtype=np.int64)
    picked[first_seg] = nbrs[hit[first_idx]]
    out[active] = picked
    return out


#: Per-router-object next-hop table memo.  ``next_hop`` answers are
#: deterministic and history-free for every policy in this package, so one
#: table per router object is safe to share across simulator instances and
#: load points (the SoA packet engine builds one per sweep, not per run).
_NEXT_HOP_TABLES: "weakref.WeakKeyDictionary[Router, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)


def next_hop_table(router: Router) -> np.ndarray:
    """Dense single-next-hop matrix ``T`` with ``T[u, t] == router.next_hop(u, t)``.

    Read-only ``(n, n)`` int32; the diagonal and unreachable pairs hold
    ``-1``.  The matrix is one :meth:`~repro.routing.base.Router.next_hop_batch`
    call over all ``n²`` pairs (a one-time cost, memoized per router
    object).  The fault-free packet-engine loops read routes from it
    instead of calling ``next_hop`` once per event.
    """
    try:
        cached = _NEXT_HOP_TABLES.get(router)
    except TypeError:
        cached = None
    if cached is not None:
        return cached
    n = router.graph.n
    obs.get_registry().counter(
        "routing.nexthop_table.builds",
        help="dense next-hop-table constructions performed by this process",
    ).inc()
    with obs.span("routing.nexthop_table"):
        cur = np.repeat(np.arange(n, dtype=np.int64), n)
        dst = np.tile(np.arange(n, dtype=np.int64), n)
        tab = router.next_hop_batch(cur, dst).reshape(n, n).astype(np.int32)
    tab.setflags(write=False)
    try:
        _NEXT_HOP_TABLES[router] = tab
    except TypeError:
        pass  # non-weakref-able router: still correct, just unmemoized
    return tab


class TableRouter(Router):
    """All-minpath routing from a precomputed distance matrix.

    Pass ``dist=`` to share a cached table (the store does this); without
    it the constructor builds a fresh table via :func:`build_distance_table`.
    """

    def __init__(self, graph: Graph, dist: np.ndarray | None = None):
        self.graph = graph
        if dist is None:
            dist = build_distance_table(graph)
        elif dist.shape != (graph.n, graph.n):
            raise ValueError(
                f"distance table shape {dist.shape} does not match "
                f"graph with {graph.n} vertices"
            )
        self.dist = dist

    def distance(self, current: int, dest: int) -> int:
        return int(self.dist[current, dest])

    def next_hops(self, current: int, dest: int) -> HopView:
        if current == dest:
            return HopView(np.empty(0, dtype=np.int64))
        nbrs = self.graph.neighbors(current)
        closer = nbrs[self.dist[nbrs, dest] == self.dist[current, dest] - 1]
        return HopView(closer)

    def next_hop_batch(self, current: np.ndarray, dest: np.ndarray) -> np.ndarray:
        return first_minimal_hops(self.graph, self.dist, current, dest)

    def num_minimal_paths(self, src: int, dest: int) -> int:
        """Count of distinct minimal paths (path-diversity metric)."""
        if src == dest:
            return 1
        counts = {src: 1}
        order = [src]
        seen = {src}
        qi = 0
        while qi < len(order):
            u = order[qi]
            qi += 1
            if u == dest:
                continue
            for v in self.next_hops(u, dest):
                if v not in seen:
                    seen.add(v)
                    order.append(v)
                    counts[v] = 0
                counts[v] += counts[u]
        return counts.get(dest, 0)

    @property
    def table_bytes(self) -> int:
        """Memory footprint of the routing table (§9.3 comparison)."""
        return self.dist.nbytes
