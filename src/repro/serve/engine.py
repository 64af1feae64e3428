"""Pure-sync batched route-query core over shared distance tables.

The engine answers vectorized batches of ``(src, dst)`` pairs — thousands
per call — against **store-resolved, read-only int16 distance tables**
(the ``TableRouter(dist=)`` sharing contract from ``docs/ARCHITECTURE.md``):

* :class:`TableShard` — one topology's routing state: the graph's CSR
  adjacency plus the shared distance table.  Distance lookups are a single
  fancy-indexing pass; path reconstruction walks next hops for the whole
  batch at once via :func:`repro.routing.table.first_minimal_hops`, so a
  diameter-3 network needs at most three vectorized steps per batch.
* :class:`ShardRegistry` — the per-topology table registry for multi-graph
  deployments.  :meth:`ShardRegistry.load` is the **only** resolution
  path, and it is synchronous by design: the serving layer calls it at
  startup (the warm path, fed by ``repro store warm``), never from inside
  a request handler (lint rule RL112 enforces this).
* :class:`QueryEngine` — batch planning + dispatch with
  :mod:`repro.obs` wiring (``serve.queries``/``serve.batches`` counters,
  batch-size histogram).

Everything here is thread-safe for concurrent readers: the distance table
is a read-only array shared across threads (and, through the store's disk
tier, across spawn workers), and lookups allocate only their outputs.
"""

from __future__ import annotations

import numpy as np

from repro import obs, store
from repro.graphs.base import Graph
from repro.routing.table import first_minimal_hops
from repro.topologies.base import Topology

__all__ = [
    "BadBatchError",
    "QueryEngine",
    "ShardRegistry",
    "TableShard",
    "UnknownTopologyError",
    "plan_batch",
]

#: Sentinel the distance table stores for unreachable pairs.
_UNREACHABLE = np.iinfo(np.int16).max

#: Batch-size histogram buckets: 1 .. 32768 pairs, powers of two-ish.
_BATCH_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 32768.0)

#: Query operations the engine answers.
OPS = ("distance", "path")


class UnknownTopologyError(KeyError):
    """A query named a topology the registry has not loaded."""


class BadBatchError(ValueError):
    """A pair batch failed validation (shape, dtype, or vertex bounds)."""


def plan_batch(pairs: object, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate and plan one query batch: ``pairs`` → ``(src, dst)`` arrays.

    ``pairs`` is anything array-like of shape ``(k, 2)`` (a list of
    ``[src, dst]`` pairs, the protocol's JSON payload).  Raises
    :class:`BadBatchError` on ragged or wrong-shape input, non-integer
    entries, or vertex ids outside ``[0, n)``.  Entries are judged by the
    dtype NumPy infers: floats, bools, strings and ints beyond int64
    (inferred as float or object) are rejected, never cast.
    """
    try:
        arr = np.asarray(pairs)
    except (ValueError, TypeError) as exc:
        raise BadBatchError(f"pairs must be an array of [src, dst]: {exc}") from exc
    if arr.size and arr.dtype.kind not in "iu":
        raise BadBatchError(
            f"pairs must hold integer vertex ids, got {arr.dtype} entries"
        )
    arr = arr.astype(np.int64, copy=False)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise BadBatchError(
            f"pairs must have shape (k, 2), got {arr.shape}"
        )
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise BadBatchError(
            f"vertex id out of range [0, {n}) in pair batch"
        )
    return arr[:, 0].copy(), arr[:, 1].copy()


class TableShard:
    """One topology's routing state: CSR graph + shared read-only table.

    The ``dist`` array is the store's cached int16 table — never copied,
    never written.  Two shards for the same graph (or the same shard read
    from many threads) share one table object.
    """

    __slots__ = ("name", "graph", "dist", "topology")

    #: Fault-epoch label of the answers this shard produces.  The pristine
    #: store-resolved table is epoch 0; overlays built by
    #: :mod:`repro.serve.epochs` carry the label they were installed under.
    epoch = 0

    def __init__(
        self,
        name: str,
        graph: Graph,
        dist: np.ndarray,
        topology: Topology | None = None,
    ) -> None:
        if dist.shape != (graph.n, graph.n):
            raise ValueError(
                f"distance table shape {dist.shape} does not match graph "
                f"with {graph.n} vertices"
            )
        self.name = name
        self.graph = graph
        self.dist = dist
        self.topology = topology

    @property
    def n(self) -> int:
        """Router count (valid vertex ids are ``0..n-1``)."""
        return self.graph.n

    @property
    def table_bytes(self) -> int:
        """Memory footprint of the shared distance table."""
        return int(self.dist.nbytes)

    def distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized distance lookup; ``-1`` marks unreachable pairs."""
        d = self.dist[src, dst].astype(np.int64)
        d[d == _UNREACHABLE] = -1
        return d

    def paths(self, src: np.ndarray, dst: np.ndarray) -> list[list[int] | None]:
        """Minimal paths for the whole batch via next-hop walking.

        Returns one vertex list per pair (both endpoints included; a
        single-element list when ``src == dst``) or ``None`` where *dst*
        is unreachable.  Each walking step advances **every** unfinished
        pair at once, so the Python-level loop runs at most
        ``max(distance)`` times — three for a diameter-3 network.
        """
        npairs = int(src.shape[0])
        d16 = self.dist[src, dst]
        reach = d16 != _UNREACHABLE
        dmax = int(d16[reach].max()) if bool(reach.any()) else 0
        cols = np.full((npairs, dmax + 1), -1, dtype=np.int64)
        if npairs:
            cols[:, 0] = src
        cur = src.copy()
        for step in range(dmax):
            active = reach & (cur != dst)
            if not active.any():
                break
            nxt = first_minimal_hops(self.graph, self.dist, cur[active], dst[active])
            if (nxt < 0).any():
                raise RuntimeError(
                    f"inconsistent distance table for {self.name!r}: no "
                    "closer neighbor found mid-walk"
                )
            cur[active] = nxt
            cols[active, step + 1] = nxt
        out: list[list[int] | None] = []
        for i in range(npairs):
            if not reach[i]:
                out.append(None)
            else:
                out.append([int(v) for v in cols[i, : int(d16[i]) + 1]])
        return out


class ShardRegistry:
    """Per-topology table registry for multi-graph deployments.

    ``load`` is the synchronous startup/warm path: it resolves the
    topology and its distance table through :mod:`repro.store` (one BFS
    build cold, zero warm) and registers the shard under its spec string.
    ``get`` is the hot path: a dict lookup, no store traffic, safe to call
    from request handlers.

    A registry may additionally carry one **fault-epoch overlay** per
    topology (:mod:`repro.serve.epochs`): ``get`` prefers the overlay when
    one is installed, ``base`` always answers the pristine shard, and
    ``set_overlay``/``clear_overlay`` swap atomically (a single dict
    assignment — readers see either the old epoch or the new one, never a
    mixture).
    """

    def __init__(self) -> None:
        self._shards: dict[str, TableShard] = {}
        self._overlays: dict[str, TableShard] = {}

    def load(self, spec: str, scale: str = "full") -> TableShard:
        """Resolve (or recall) the shard for topology *spec*.

        This touches the artifact store and may run a BFS table build on a
        cold store — call it at startup or from ``repro store warm``-style
        warm paths only, never inside an async request handler (RL112).
        """
        shard = self._shards.get(spec)
        if shard is not None:
            return shard
        topo = store.resolve_topology(spec, scale=scale)
        dist = store.distance_table(topo)
        shard = TableShard(spec, topo.graph, dist, topology=topo)
        self._shards[spec] = shard
        self._update_gauges()
        return shard

    def get(self, name: str) -> TableShard:
        """The serving shard for *name* — the installed fault-epoch overlay
        when one is active, else the pristine base shard; raises
        :class:`UnknownTopologyError`."""
        shard = self._overlays.get(name)
        if shard is not None:
            return shard
        return self.base(name)

    def base(self, name: str) -> TableShard:
        """The pristine (epoch-0) shard for *name*, overlay or not."""
        shard = self._shards.get(name)
        if shard is None:
            raise UnknownTopologyError(
                f"topology {name!r} is not loaded; serving: {self.names()}"
            )
        return shard

    def overlay(self, name: str) -> TableShard | None:
        """The installed fault-epoch overlay for *name* (``None`` = pristine)."""
        return self._overlays.get(name)

    def set_overlay(self, name: str, shard: TableShard) -> None:
        """Atomically install *shard* as the serving overlay for *name*.

        The base shard must already be loaded; the swap is one dict
        assignment, so concurrent readers (the synchronous batch-flush
        path) see exactly one epoch per batch.
        """
        base = self.base(name)
        if shard.n != base.n:
            raise ValueError(
                f"overlay for {name!r} has {shard.n} vertices, base has {base.n}"
            )
        self._overlays[name] = shard
        self._update_gauges()

    def clear_overlay(self, name: str) -> None:
        """Drop the overlay for *name*; ``get`` answers the pristine shard."""
        self._overlays.pop(name, None)
        self._update_gauges()

    def names(self) -> list[str]:
        return sorted(self._shards)

    def shards(self) -> list[TableShard]:
        return [self._shards[k] for k in self.names()]

    def __len__(self) -> int:
        return len(self._shards)

    def total_table_bytes(self) -> int:
        """Combined footprint of every loaded table (shared, not copied),
        fault-epoch overlays included."""
        return sum(s.table_bytes for s in self._shards.values()) + sum(
            s.table_bytes for s in self._overlays.values()
        )

    def _update_gauges(self) -> None:
        reg = obs.get_registry()
        reg.gauge(
            "serve.shards", help="distance-table shards loaded in the registry"
        ).set(len(self._shards))
        reg.gauge(
            "serve.table.bytes",
            help="combined bytes of the shared distance tables",
        ).set(self.total_table_bytes())
        reg.gauge(
            "serve.epoch.active",
            help="topologies currently serving a fault-epoch overlay",
        ).set(len(self._overlays))


class QueryEngine:
    """Batched query dispatch over a :class:`ShardRegistry`.

    The engine is pure-sync and stateless apart from the registry: the
    asyncio front end (:mod:`repro.serve.server`), the CLI ``repro route``
    command, perfbench's ``serve_mixed`` workload, CI and tests all share
    this one code path.
    """

    def __init__(self, registry: ShardRegistry) -> None:
        self.registry = registry

    def lookup(
        self, topology: str, op: str, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray | list[list[int] | None]:
        """Answer one planned batch (``src``/``dst`` from :func:`plan_batch`)."""
        if op not in OPS:
            raise ValueError(f"unknown op {op!r}; expected one of {OPS}")
        shard = self.registry.get(topology)
        reg = obs.get_registry()
        npairs = int(src.shape[0])
        reg.counter(
            "serve.queries",
            help="individual (src, dst) pairs answered",
            labels=("op",),
        ).labels(op=op).inc(npairs)
        reg.counter(
            "serve.batches",
            help="vectorized batches executed by the engine",
            labels=("op",),
        ).labels(op=op).inc()
        reg.histogram(
            "serve.batch.pairs",
            help="pairs per executed batch",
            bounds=_BATCH_BUCKETS,
        ).observe(npairs)
        with obs.span(f"serve.{op}"):
            if op == "distance":
                return shard.distances(src, dst)
            return shard.paths(src, dst)

    def distances(self, topology: str, pairs: object) -> np.ndarray:
        """Plan + answer a distance batch (``-1`` = unreachable)."""
        src, dst = plan_batch(pairs, self.registry.get(topology).n)
        result = self.lookup(topology, "distance", src, dst)
        return result  # type: ignore[return-value]

    def paths(self, topology: str, pairs: object) -> list[list[int] | None]:
        """Plan + answer a path batch (``None`` = unreachable)."""
        src, dst = plan_batch(pairs, self.registry.get(topology).n)
        result = self.lookup(topology, "path", src, dst)
        return result  # type: ignore[return-value]
