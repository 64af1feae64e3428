"""Fault-epoch table overlays: keep serving while the network degrades.

The serving layer answers from read-only distance tables; ``repro.faults``
models a network whose links and nodes go down underneath those tables.
This module joins the two: a :class:`FaultEpochManager` holds one
:class:`~repro.faults.health.LinkHealth` mask per served topology, applies
fault events to it, and materializes an :class:`EpochShard` — a complete
replacement distance table built on the *healthy subgraph* — that the
registry swaps in atomically (``ShardRegistry.set_overlay`` is one dict
assignment).

**Epoch lifecycle.**  Every install carries a monotone integer *label*
(the pristine base table is label 0).  The server stamps the label of the
shard a batch executed against into each response, so clients — and the
chaos harness's offline oracle — can attribute every answer to exactly
one network state.  Because batch flushing is synchronous in the event
loop and the swap is a single assignment, an in-flight coalesced batch
never straddles two epochs.

**Parity contract.**  An overlay is built by
``build_distance_table(health.healthy_graph())`` — the same builder the
store uses for pristine tables, on the healthy subgraph the mask
defines; its BFS is the bitset kernel
:func:`~repro.analysis.distances.hop_distances`.  ``FaultAwareRouter``
routes on ``LinkHealth.bfs_from``, SciPy's BFS over the CSR of that
subgraph.  BFS distances are unique, so served distances under an epoch
are byte-equal to offline fault-aware routing on the same mask across
the two implementations (``tests/test_serve_faults.py`` asserts this),
with the int16 sentinel mapped to ``-1``/``None`` on the wire exactly
like :data:`~repro.faults.health.UNREACHABLE` marks cut-off vertices
offline.

**Store bypass.**  Epoch tables are deliberately *not* store artifacts:
the content-addressed cache holds durable, pristine state only
(``docs/ARCHITECTURE.md``, fault-epoch invalidation contract).  An
overlay is ephemeral — it dies with the fault state that produced it.

Everything here is synchronous.  The server runs :meth:`stage` (the
expensive build) in an executor thread and :meth:`install` on the event
loop; staging touches only the manager's own health state, so queries
keep flowing against the old epoch while the new table builds.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro import obs
from repro.faults.health import LinkHealth
from repro.faults.model import FaultEvent, FaultSchedule
from repro.routing.table import build_distance_table
from repro.serve.engine import ShardRegistry, TableShard

__all__ = ["EpochShard", "FaultEpochManager"]

#: Epoch-table build-time histogram buckets (seconds): 1ms .. ~16s.
_BUILD_BOUNDS = obs.exponential_buckets(1e-3, 2.0, 15)


class EpochShard(TableShard):
    """One fault epoch of a base shard: healthy subgraph + rebuilt table.

    Answers exactly like a :class:`TableShard` (same vectorized kernels),
    but for the degraded network: pairs cut apart by the fault mask come
    back ``-1``/``None``, and reconstructed paths only traverse healthy
    links.  ``epoch`` is the install label stamped into responses.
    """

    # No __slots__: instances carry overlay metadata in a regular __dict__.

    def __init__(
        self,
        base: TableShard,
        epoch_graph,
        dist,
        label: int,
        links_down: int,
        nodes_down: int,
        events_applied: int,
    ) -> None:
        super().__init__(base.name, epoch_graph, dist, topology=base.topology)
        if label < 1:
            raise ValueError(f"epoch label must be >= 1, got {label}")
        self.base = base
        self.epoch = int(label)
        self.links_down = int(links_down)
        self.nodes_down = int(nodes_down)
        self.events_applied = int(events_applied)


class _TopologyFaults:
    """Per-topology fault state: the live mask plus install bookkeeping."""

    __slots__ = ("health", "label", "swaps", "events_applied")

    def __init__(self, health: LinkHealth) -> None:
        self.health = health
        self.label = 0
        self.swaps = 0
        self.events_applied = 0


class FaultEpochManager:
    """Applies fault events to served topologies as atomic table overlays.

    The manager is the *sync* side of fault-aware serving: ``stage`` is
    expensive (a BFS table build) and safe to run off the event loop;
    ``install``/``clear`` are cheap swaps the server performs on the loop
    after flushing pending batches, so every admitted pair answers against
    exactly one epoch.  The server serializes stage/install per topology;
    the manager itself holds no locks.
    """

    def __init__(self, registry: ShardRegistry) -> None:
        self.registry = registry
        self._states: dict[str, _TopologyFaults] = {}

    def _state(self, name: str) -> _TopologyFaults:
        state = self._states.get(name)
        if state is None:
            base = self.registry.base(name)
            state = self._states[name] = _TopologyFaults(LinkHealth(base.graph))
        return state

    def stage(
        self,
        name: str,
        events: Sequence[FaultEvent],
        label: int | None = None,
    ) -> EpochShard:
        """Apply *events* to the topology's health mask and build the next
        epoch's overlay shard.

        Validates the whole event batch against the base graph *before*
        mutating anything (a bad event cannot leave the mask half-applied),
        then rebuilds the distance table on the healthy subgraph.  Does
        **not** swap — pass the returned shard to :meth:`install` (the
        server does so after flushing in-flight batches).  Raises
        :class:`ValueError` on unknown links/vertices or a non-increasing
        label.
        """
        state = self._state(name)
        base = self.registry.base(name)
        events = list(events)
        FaultSchedule(events, graph=base.graph)  # batch validation only
        if label is None:
            label = state.label + 1
        elif label < 1:
            raise ValueError(f"epoch label must be >= 1, got {label}")
        for ev in events:
            state.health.apply(ev)
        t0 = time.perf_counter()
        epoch_graph = state.health.healthy_graph()
        # Deliberate store bypass: epoch tables are ephemeral fault state,
        # and the artifact store only holds durable pristine artifacts
        # (docs/ARCHITECTURE.md fault-epoch contract).
        dist = build_distance_table(epoch_graph)  # repro-lint: disable=RL107
        dt = time.perf_counter() - t0
        obs.get_registry().histogram(
            "serve.epoch.build.seconds",
            help="fault-epoch overlay table build time",
            bounds=_BUILD_BOUNDS,
        ).observe(dt)
        state.events_applied += len(events)
        return EpochShard(
            base,
            epoch_graph,
            dist,
            label=label,
            links_down=state.health.links_down_count(),
            nodes_down=state.health.nodes_down_count(),
            events_applied=state.events_applied,
        )

    def install(self, name: str, shard: EpochShard) -> None:
        """Swap *shard* in as the serving overlay for *name* (atomic)."""
        state = self._state(name)
        self.registry.set_overlay(name, shard)
        state.label = shard.epoch
        state.swaps += 1
        obs.get_registry().counter(
            "serve.epoch.swaps",
            help="fault-epoch overlay installs (clears included)",
        ).inc()

    def clear(self, name: str) -> None:
        """Reset *name* to the pristine epoch-0 table (counts as a swap)."""
        state = self._state(name)
        state.health.reset()
        state.label = 0
        state.events_applied = 0
        state.swaps += 1
        self.registry.clear_overlay(name)
        obs.get_registry().counter(
            "serve.epoch.swaps",
            help="fault-epoch overlay installs (clears included)",
        ).inc()

    def status(self) -> dict:
        """Per-topology fault-epoch status for ``stats`` / admin responses."""
        out: dict = {}
        for name in self.registry.names():
            state = self._states.get(name)
            if state is None:
                out[name] = {
                    "epoch": 0,
                    "links_down": 0,
                    "nodes_down": 0,
                    "swaps": 0,
                    "events_applied": 0,
                }
            else:
                out[name] = {
                    "epoch": state.label,
                    "links_down": state.health.links_down_count(),
                    "nodes_down": state.health.nodes_down_count(),
                    "swaps": state.swaps,
                    "events_applied": state.events_applied,
                }
        return out
