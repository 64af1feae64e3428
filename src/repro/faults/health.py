"""Live link/node health state for one graph.

:class:`LinkHealth` is the single source of truth the fault-aware router
and the packet simulator share: a boolean mask over the graph's directed
CSR adjacency entries plus a node-alive mask, mutated by applying
:class:`~repro.faults.model.FaultEvent` records in timestamp order.  Every
mutation bumps ``epoch`` — consumers cache routing state keyed by epoch and
invalidate when it moves (see :class:`~repro.faults.router.FaultAwareRouter`).

The state is CSR-aligned, so whole-network answers come back as arrays:
:meth:`LinkHealth.entry_up` and :meth:`LinkHealth.entry_factor` give one
value per directed CSR entry (the packet engines' link ids), and the
degraded-graph BFS behind recomputed routes is SciPy's C-level BFS over a
CSR masked once per epoch.  Distance *tables* come from the bitset kernel
:func:`repro.analysis.distances.hop_distances` instead; the fault router
asks for one destination column at a time, and for one source SciPy's
BFS is the faster of the two (see :meth:`LinkHealth.bfs_many`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.faults.model import FaultEvent, FaultSchedule
from repro.graphs.base import Graph

__all__ = [
    "UNREACHABLE",
    "LinkHealth",
]

#: Distance sentinel for vertices cut off on the healthy subgraph (large
#: enough that cost arithmetic never wraps int64, small enough to add to).
UNREACHABLE = 1 << 30


class LinkHealth:
    """Mutable health mask over one :class:`~repro.graphs.base.Graph`."""

    def __init__(self, graph: Graph):
        if graph.n < 1:
            raise ValueError("LinkHealth needs a non-empty graph")
        self.graph = graph
        #: Monotone state version; bumped by every applied event.
        self.epoch = 0
        n = graph.n
        entries = len(graph.indices)
        # Source vertex of every directed CSR entry (parallel to indices).
        self._rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        # CSR position of each canonical (u < v) edge, in edge_array order:
        # the CSR is (row, column)-sorted, so its u < v entries are exactly
        # the canonical edges in lexicographic order.
        self._edge_pos = np.flatnonzero(self._rows < graph.indices)
        # Packed ``u * n + v`` -> CSR position, built once for O(1) lookups.
        self._pos = dict(
            zip((self._rows * n + graph.indices).tolist(), range(entries))
        )
        # CSR-aligned directed-entry state (parallel to graph.indices).
        self._edge_ok = np.ones(entries, dtype=bool)
        self._factor = np.ones(entries, dtype=np.float64)
        self._node_ok = np.ones(n, dtype=bool)
        # Canonical links in a degraded state (a factor-1.0 degrade counts).
        self._degraded: set[tuple[int, int]] = set()
        # ``clean`` is read on every routing decision, so it is kept as a
        # flag that each mutation recomputes.
        self._clean = True
        # (epoch, CSR of the up entries) for the BFS; rebuilt per epoch.
        self._masked: tuple[int, sp.csr_matrix] | None = None

    # -- CSR positions -------------------------------------------------------

    def _entry(self, u: int, v: int) -> int:
        """Position of directed entry (u -> v) in the CSR ``indices`` array."""
        n = self.graph.n
        pos = self._pos.get(u * n + v) if 0 <= u < n and 0 <= v < n else None
        if pos is None:
            raise ValueError(f"({u}, {v}) is not a link of {self.graph.name!r}")
        return pos

    # -- event application ---------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        """Apply one fault event; bumps ``epoch``.

        ``link_up`` clears both a down and a degraded state; ``node_up``
        restores the node but leaves independently-failed links down.
        """
        if event.is_node_event:
            if not 0 <= event.u < self.graph.n:
                raise ValueError(f"node event names vertex {event.u} outside graph")
            self._node_ok[event.u] = event.kind == "node_up"
        else:
            u, v = event.edge()
            fwd, rev = self._entry(u, v), self._entry(v, u)
            if event.kind == "link_degrade":  # up (or still down), but slow
                self._factor[fwd] = self._factor[rev] = event.factor
                self._degraded.add((u, v))
            else:  # link_down / link_up: either clears a degraded state
                self._edge_ok[fwd] = self._edge_ok[rev] = event.kind == "link_up"
                self._factor[fwd] = self._factor[rev] = 1.0
                self._degraded.discard((u, v))
        self._clean = (
            not self._degraded
            and bool(self._edge_ok.all())
            and bool(self._node_ok.all())
        )
        self.epoch += 1

    def apply_schedule(self, schedule: FaultSchedule) -> None:
        """Apply every event of *schedule* in time order (static studies)."""
        for ev in schedule:
            self.apply(ev)

    def reset(self) -> None:
        """Return to the pristine all-up state (bumps ``epoch`` if dirty)."""
        if self.clean:
            return
        self._edge_ok[:] = True
        self._factor[:] = 1.0
        self._node_ok[:] = True
        self._degraded.clear()
        self._clean = True
        self.epoch += 1

    # -- queries -------------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True iff no link or node is currently down or degraded."""
        return self._clean

    def node_up(self, v: int) -> bool:
        return bool(self._node_ok[v])

    def is_up(self, u: int, v: int) -> bool:
        """Can a packet traverse the (existing) link u -> v right now?"""
        return bool(
            self._node_ok[u] and self._node_ok[v] and self._edge_ok[self._entry(u, v)]
        )

    def degrade_factor(self, u: int, v: int) -> float:
        """Serialization multiplier for link (u, v); 1.0 when healthy."""
        e = (u, v) if u < v else (v, u)
        return float(self._factor[self._entry(*e)]) if e in self._degraded else 1.0

    def entry_up(self) -> np.ndarray:
        """:meth:`is_up` of every directed CSR entry at once: entry ``i``
        (``rows[i] -> graph.indices[i]``) is up iff both endpoints are up
        and the link is not down.  The packet engines' link ids are CSR
        positions, so this is their per-link health vector."""
        return self._node_ok[self._rows] & self._node_ok[self.graph.indices] & self._edge_ok

    def entry_factor(self) -> np.ndarray:
        """:meth:`degrade_factor` of every directed CSR entry at once, as a
        read-only view (a link degraded while down keeps its factor)."""
        view = self._factor.view()
        view.flags.writeable = False
        return view

    def healthy_neighbors(self, u: int) -> np.ndarray:
        """Neighbors of *u* reachable over currently-up links (sorted)."""
        g = self.graph
        if not self._node_ok[u]:
            return np.empty(0, dtype=np.int64)
        lo, hi = int(g.indptr[u]), int(g.indptr[u + 1])
        nbrs = g.indices[lo:hi]
        return nbrs[self._edge_ok[lo:hi] & self._node_ok[nbrs]]

    def links_down_count(self) -> int:
        """Undirected links currently unusable (down, or touching a down
        node) — the ``faults.links_down`` gauge value."""
        return self.graph.m - int(np.count_nonzero(self.entry_up()[self._edge_pos]))

    def nodes_down_count(self) -> int:
        return int((~self._node_ok).sum())

    # -- derived structures --------------------------------------------------

    def _masked_csr(self) -> sp.csr_matrix:
        """The graph's CSR restricted to up entries, built once per epoch.

        A down node keeps its row but loses every entry, so no BFS enters
        it; float64 weights spare SciPy a conversion on every call.
        """
        if self._masked is None or self._masked[0] != self.epoch:
            g = self.graph
            up = self.entry_up()
            # Up entries before each row start: the masked CSR's indptr.
            before = np.zeros(len(up) + 1, dtype=np.int64)
            np.cumsum(up, out=before[1:])
            weights = np.ones(int(before[-1]), dtype=np.float64)
            csr = sp.csr_matrix(
                (weights, g.indices[up], before[g.indptr]), shape=(g.n, g.n)
            )
            self._masked = (self.epoch, csr)
        return self._masked[1]

    def bfs_many(self, sources) -> np.ndarray:
        """:meth:`bfs_from` for every vertex of *sources*, in one SciPy call.

        Returns a ``(len(sources), n)`` ``int64`` array whose row ``i`` is
        ``bfs_from(sources[i])``.

        This stays on SciPy rather than the bitset kernel that builds the
        distance tables (:func:`repro.analysis.distances.hop_distances`):
        the fault router's lazy columns are single-source and sit on the
        faulted packet loop's hot path, and one source is where SciPy
        wins.  Per column, on a 2-core x86-64 host with 5 % of links down:
        127 µs against 171 µs for the kernel on reduced PS-IQ (248
        routers), 226 µs against 243 µs on full PS-IQ (1064 routers).
        """
        src = np.asarray(sources, dtype=np.int64).reshape(-1)
        out = np.full((len(src), self.graph.n), UNREACHABLE, dtype=np.int64)
        live = self._node_ok[src]
        if live.any():
            d = csgraph.shortest_path(
                self._masked_csr(), method="D", unweighted=True, indices=src[live]
            )
            d[np.isinf(d)] = UNREACHABLE
            out[live] = d.astype(np.int64)
        return out

    def bfs_from(self, source: int) -> np.ndarray:
        """Hop distances from *source* over the healthy subgraph.

        Returns an ``int64`` vector with :data:`UNREACHABLE` for cut-off
        vertices (including every down node, and everything if *source*
        itself is down).  Because links fail bidirectionally this is also
        the distance *to* ``source`` — the router's distance-to-destination
        table.  Computed by SciPy's BFS over the epoch's masked CSR.
        """
        return self.bfs_many((source,))[0]

    def healthy_graph(self) -> Graph:
        """Materialized copy of the graph with down links/nodes removed
        (for static analyses, serve epochs and tests; routing uses the
        masks directly)."""
        g = self.graph
        keep = self.entry_up()[self._edge_pos]
        loops = g.self_loops[self._node_ok[g.self_loops]]
        return Graph(g.n, g.edge_array[keep], self_loops=loops, name=f"{g.name}~faulty")

    def __repr__(self) -> str:
        return (
            f"LinkHealth({self.graph.name!r}, epoch={self.epoch}, "
            f"links_down={self.links_down_count()}, "
            f"nodes_down={self.nodes_down_count()})"
        )
