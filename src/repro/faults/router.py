"""Fault-aware routing: graceful degradation around a live health mask.

:class:`FaultAwareRouter` wraps any :class:`~repro.routing.base.Router` and
consults a shared :class:`~repro.faults.health.LinkHealth`.  On a clean
network it is hop-for-hop identical to the wrapped router (the fast path
delegates without touching any fault state).  Under faults it walks a
fallback ladder, counting which rung served each decision:

1. **primary** — the wrapped router's minimal hops, filtered to healthy
   links that still make progress on the degraded graph;
2. **alternate** — the wrapped router's *other* minimal hops
   (``all_minimal_hops``, where available — PolarStar's path diversity,
   cf. arXiv:2403.12231), same filter;
3. **recomputed** — minimal hops on the degraded graph itself, from
   BFS distance-to-destination vectors recomputed after topology changes;
4. **detour** — a bounded non-minimal (Valiant-style) sidestep, used only
   when a caller excludes blocked ports (the simulator's reroute path);
   progress is bounded by ``detour_slack`` extra hops.

If the destination is unreachable on the healthy subgraph,
:meth:`~FaultAwareRouter.next_hop` and the ladder raise
:class:`RouteUnavailableError` — callers decide the drop policy — while
``next_hops`` returns ``[]`` and ``next_hop_batch`` gives ``-1``, as for
any router.

Distance vectors are cached per destination and keyed by the health
``epoch``.  When the epoch moves, the cache is invalidated and at most
``recompute_budget`` of the most recently used destinations are recomputed
*eagerly*, in one :meth:`~repro.faults.health.LinkHealth.bfs_many` call
(inside an ``obs.span("faults.recompute")`` so the latency lands in the
profile tree); the rest recompute lazily on first use.  The budget models
a router control plane that must bound its convergence burst.

Store-bypass contract: these epoch-keyed distance vectors deliberately do
**not** go through the content-addressed artifact store
(:mod:`repro.store`).  A degraded graph is an ephemeral mid-run state —
its distances are invalidated by the next health event, not by a schema
bump, and persisting them would poison warm runs with fault history.  Only
the pristine-topology table behind the *inner* router may come from the
store (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.faults.health import UNREACHABLE, LinkHealth
from repro.routing.base import Router

__all__ = [
    "FaultAwareRouter",
    "RouteUnavailableError",
]

#: Fallback-ladder rung names, in the order they are tried.
RUNGS = ("primary", "alternate", "recomputed", "detour")


class RouteUnavailableError(RuntimeError):
    """No healthy path exists from the current router to the destination."""


class FaultAwareRouter(Router):
    """Wrap *inner* with fault masking, fallback routing and recompute."""

    def __init__(
        self,
        inner: Router,
        health: LinkHealth,
        recompute_budget: int = 32,
        detour_slack: int = 2,
    ):
        if health.graph is not inner.graph and not (
            health.graph.n == inner.graph.n
            and np.array_equal(health.graph.indptr, inner.graph.indptr)
            and np.array_equal(health.graph.indices, inner.graph.indices)
        ):
            raise ValueError("health mask and wrapped router disagree on the graph")
        if recompute_budget < 0 or detour_slack < 0:
            raise ValueError("recompute_budget and detour_slack must be >= 0")
        self.inner = inner
        self.graph = inner.graph
        self.health = health
        self.recompute_budget = recompute_budget
        self.detour_slack = detour_slack
        self._epoch = health.epoch
        #: dest -> distance-to-dest vector on the healthy subgraph
        #: (insertion order doubles as a recency approximation).
        self._dist_cache: dict[int, np.ndarray] = {}
        #: Plain tallies, bulk-flushed by the simulator (see sim/packet.py).
        self.rung_counts: dict[str, int] = {r: 0 for r in RUNGS}
        self.unreachable_count = 0
        self.recompute_eager = 0
        self.recompute_lazy = 0
        #: Eager batch sizes per epoch change (histogram fodder).
        self.recompute_batches: list[int] = []

    # -- cache maintenance ---------------------------------------------------

    def sync(self) -> None:
        """Invalidate per-epoch state and eagerly recompute the budgeted
        most-recent destinations.  Called lazily on every query, and
        explicitly by the simulator right after it applies a fault event."""
        if self._epoch == self.health.epoch:
            return
        recent = list(self._dist_cache)[-self.recompute_budget :] if self.recompute_budget else []
        self._dist_cache.clear()
        self._epoch = self.health.epoch
        with obs.span("faults.recompute"):
            self._dist_cache.update(zip(recent, self.health.bfs_many(recent)))
        self.recompute_eager += len(recent)
        self.recompute_batches.append(len(recent))

    def _dist_to(self, dest: int) -> np.ndarray:
        self.sync()
        vec = self._dist_cache.get(dest)
        if vec is None:
            vec = self.health.bfs_from(dest)
            self._dist_cache[dest] = vec
            self.recompute_lazy += 1
        return vec

    # -- Router interface ----------------------------------------------------

    def distance(self, current: int, dest: int) -> int:
        """Healthy-subgraph distance; the wrapped router's answer when the
        network is clean, :data:`UNREACHABLE` when *dest* is cut off."""
        if self.health.clean:
            return self.inner.distance(current, dest)
        return int(self._dist_to(dest)[current])

    def next_hops(self, current: int, dest: int) -> list[int]:
        """The ladder's candidate hops; empty when ``current == dest`` or
        *dest* is cut off by faults, as the :class:`Router` contract says."""
        if current == dest:
            return []
        try:
            return self.route_hops(current, dest)[0]
        except RouteUnavailableError:
            return []

    def next_hop(self, current: int, dest: int) -> int:
        """First candidate hop.  Raises :class:`RouteUnavailableError` when
        *dest* is cut off (the packet engines drop such packets as
        ``unreachable``) and ``ValueError`` when ``current == dest``."""
        if current == dest:
            raise ValueError(f"no next hop from {current} to {dest}")
        return int(self.route_hops(current, dest)[0][0])

    # -- the fallback ladder -------------------------------------------------

    def route_hops(
        self, current: int, dest: int, exclude: tuple[int, ...] = ()
    ) -> tuple[list[int], str]:
        """Candidate next hops and the ladder rung that produced them.

        ``exclude`` removes specific neighbor routers from consideration
        (the simulator passes ports it just found blocked); only with
        exclusions can the non-minimal **detour** rung fire, since the
        recomputed rung always succeeds on a reachable destination.
        """
        if self.health.clean and not exclude:
            hops = self.inner.next_hops(current, dest)
            if not hops:
                raise RouteUnavailableError(
                    f"no route from {current} to {dest} (wrapped router)"
                )
            self.rung_counts["primary"] += 1
            return hops, "primary"

        dvec = self._dist_to(dest)
        du = int(dvec[current])
        if du >= UNREACHABLE or not self.health.node_up(current):
            self.unreachable_count += 1
            raise RouteUnavailableError(
                f"{dest} unreachable from {current} on the degraded network"
            )

        def usable(h: int) -> bool:
            return h not in exclude and self.health.is_up(current, h)

        # 1) the wrapped router's own choice, if it survives the fault mask
        #    and still makes progress on the degraded graph.
        primary = [
            h for h in self.inner.next_hops(current, dest) if usable(h) and dvec[h] < du
        ]
        if primary:
            self.rung_counts["primary"] += 1
            return primary, "primary"

        # 2) its other minimal hops (path diversity), same filter.
        all_min = getattr(self.inner, "all_minimal_hops", None)
        if all_min is not None:
            alternate = [h for h in all_min(current, dest) if usable(h) and dvec[h] < du]
            if alternate:
                self.rung_counts["alternate"] += 1
                return alternate, "alternate"

        # 3) minimal hops of the degraded graph itself (recomputed tables).
        nbrs = self.health.healthy_neighbors(current)
        recomputed = [int(h) for h in nbrs if int(h) not in exclude and dvec[h] == du - 1]
        if recomputed:
            self.rung_counts["recomputed"] += 1
            return recomputed, "recomputed"

        # 4) bounded non-minimal sidestep: any healthy neighbor within
        #    detour_slack extra hops, nearest (then lowest id) first.
        detour = sorted(
            (int(dvec[h]), int(h))
            for h in nbrs
            if int(h) not in exclude and dvec[h] < UNREACHABLE and dvec[h] <= du + self.detour_slack - 1
        )
        if detour:
            self.rung_counts["detour"] += 1
            return [h for _, h in detour], "detour"

        self.unreachable_count += 1
        raise RouteUnavailableError(
            f"all usable ports from {current} toward {dest} are excluded or down"
        )
