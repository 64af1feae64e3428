"""Asyncio NDJSON front end for the batched route-query engine.

Protocol — one JSON object per line, in both directions::

    -> {"op": "distance", "topology": "PS-IQ", "pairs": [[0, 7], ...], "id": 3}
    <- {"ok": true, "id": 3, "op": "distance", "result": [2, ...]}

    -> {"op": "path", "topology": "PS-IQ", "pairs": [[0, 7]]}
    <- {"ok": true, "op": "path", "result": [[0, 12, 7]]}

    -> {"op": "ping"}          <- {"ok": true, "op": "ping", "topologies": [...]}
    -> {"op": "stats"}         <- {"ok": true, "op": "stats", "stats": {...}}

    -> {"op": "faults", "action": "apply", "topology": "PS-IQ",
        "events": [{"kind": "link_down", "u": 3, "v": 17}], "label": 1}
    <- {"ok": true, "op": "faults", "topology": "PS-IQ", "epoch": 1, ...}

Errors answer ``{"ok": false, "code": <int>, "error": "..."}`` with
HTTP-flavored codes: 400 malformed request, 404 unknown topology (or,
with ``"kind": "route_unavailable"``, a strict query whose pairs are cut
apart by the current fault epoch), 429 backpressure, 500 batch execution
failure (``"kind": "engine"``), 503 draining, 504 deadline shed
(``"kind": "deadline"``).

Design constraints (docs/SERVING.md, lint rule RL112):

* **All store traffic happens before the event loop runs.**  Tables are
  resolved in :meth:`ServeServer.warm` — the synchronous startup path fed
  by ``repro store warm`` — so async handlers never block on a BFS build
  or disk I/O; they only do dict lookups and NumPy kernels.
* **Coalescing.**  The first request for a ``(topology, op)`` opens a
  bucket and schedules its flush for the next event-loop turn
  (``call_soon``); requests for the same key that the loop reads in the
  same turn join the bucket and execute in the same vectorized engine
  call, each requester getting its slice of the result.  No request waits
  for one that has not arrived.  Work whose ``deadline_ms`` has expired
  is shed with 504, at admission or at the flush, never computed late.
* **Fault epochs.**  The ``faults`` admin op applies
  :class:`~repro.faults.model.FaultEvent` records to a per-topology
  :class:`~repro.serve.epochs.FaultEpochManager`; the expensive overlay
  build runs in an executor (queries keep answering the old epoch: the
  build's short NumPy calls hand the interpreter lock back, so on full
  PS-IQ the loop waits at most about 2 ms at a time, against about 100 ms
  while the table came from SciPy's Dijkstra, on a 2-core x86-64 host),
  then pending buckets are flushed and the new table swaps in atomically.
  Every query response carries the ``epoch`` label its batch executed
  against (0 = pristine).
* **Bounded in-flight queue.**  Admitted-but-unanswered pairs are capped
  at ``max_inflight``; excess requests are rejected immediately with 429
  (and counted in ``serve.rejected``) instead of queueing unboundedly.
* **Graceful drain.**  SIGTERM finishes admitted work then exits 0;
  SIGINT does the same but exits 130 (the repo-wide interrupt code); a
  second signal aborts immediately.

This module is the only place in ``src/repro`` allowed to create an event
loop (RL112); everything reusable lives in the sync engine.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import obs, store
from repro.faults.model import FaultEvent
from repro.serve.engine import (
    OPS,
    BadBatchError,
    QueryEngine,
    ShardRegistry,
    UnknownTopologyError,
    plan_batch,
)
from repro.serve.epochs import EpochShard, FaultEpochManager

__all__ = [
    "DeadlineExceededError",
    "EngineFailureError",
    "ServerConfig",
    "ServeServer",
    "run_server",
]

#: Request-latency histogram buckets (seconds): 50us .. ~1.6s.
_LATENCY_BOUNDS = obs.exponential_buckets(5e-5, 2.0, 15)

#: Ready banner prefix; tests and the CI smoke job parse the JSON after it.
READY_PREFIX = "REPRO_SERVE_READY "


@dataclass(frozen=True)
class ServerConfig:
    """Static configuration for one :class:`ServeServer` process."""

    topologies: tuple[str, ...]
    scale: str = "full"
    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 65536
    metrics_out: str | None = None
    #: Optional path to a JSON fault schedule applied during warm() — the
    #: server comes up already degraded (see docs/SERVING.md).
    fault_schedule: str | None = None


class DeadlineExceededError(Exception):
    """An admitted request's ``deadline_ms`` expired before execution."""


class EngineFailureError(Exception):
    """A coalesced batch raised inside the engine; waiters get a 500."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.cause = cause


@dataclass
class _Waiter:
    """One admitted request waiting for its slice of a coalesced batch."""

    src: np.ndarray
    dst: np.ndarray
    future: asyncio.Future
    #: Absolute loop-clock deadline (None = no deadline).
    deadline: float | None = None


class ServeServer:
    """Batched NDJSON TCP server over a :class:`QueryEngine`."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.registry = ShardRegistry()
        self.engine = QueryEngine(self.registry)
        self.epochs = FaultEpochManager(self.registry)
        # Local (non-ambient) latency histogram: `stats` answers work even
        # when the process runs without an obs session.
        self.latency = obs.Histogram(_LATENCY_BOUNDS)
        self.requests = 0
        self.rejected = 0
        self.batches = 0
        #: Error-response tally by kind (mirrors the serve.errors counter).
        self.errors: dict[str, int] = {}
        self.started_at = time.monotonic()
        self._inflight = 0
        #: Waiters per ``(topology, op)`` whose flush is scheduled.
        self._buckets: dict[tuple[str, str], list[_Waiter]] = {}
        #: Per-topology serialization of stage/install admin operations.
        self._fault_locks: dict[str, asyncio.Lock] = {}
        self._draining = False
        self._exit_code = 0
        self._signals = 0
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Set once the listening socket is bound; ``port`` is valid then.
        self.ready = threading.Event()
        self.port: int | None = None

    # -- startup (sync; the only store-facing path) ------------------------

    def warm(self) -> None:
        """Resolve every configured topology through the store.

        Runs before the event loop starts: on a cold store this is where
        the single BFS table build happens; on a warm store (after
        ``repro store warm``) it is pure cache reads.
        """
        for spec in self.config.topologies:
            shard = self.registry.load(spec, scale=self.config.scale)
            print(
                f"repro-serve: loaded {spec!r} "
                f"(n={shard.n}, table={shard.table_bytes >> 20} MiB)",
                file=sys.stderr,
                flush=True,
            )
        if self.config.fault_schedule:
            self._apply_schedule_file(self.config.fault_schedule)

    def _apply_schedule_file(self, path: str) -> None:
        """Apply a JSON fault schedule during startup (still sync).

        The file is an object with an ``events`` array (the
        ``FaultEvent.to_jsonable`` form, as written by ``repro faults
        schedule``), an optional ``topology`` spec (required when the
        server hosts several) and an optional epoch ``label`` (default 1).
        """
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or not isinstance(doc.get("events"), list):
            raise ValueError(
                f"fault schedule {path!r} must be a JSON object with an "
                "'events' array"
            )
        events = [FaultEvent.from_jsonable(o) for o in doc["events"]]
        label = int(doc.get("label", 1))
        target = doc.get("topology")
        names = self.registry.names()
        if target is None:
            if len(names) != 1:
                raise ValueError(
                    f"fault schedule {path!r} needs an explicit 'topology' "
                    f"when serving several ({names})"
                )
            target = names[0]
        elif target not in names:
            raise ValueError(
                f"fault schedule topology {target!r} is not served ({names})"
            )
        shard = self.epochs.stage(target, events, label=label)
        self.epochs.install(target, shard)
        print(
            f"repro-serve: fault epoch {shard.epoch} applied to {target!r} "
            f"(links_down={shard.links_down}, nodes_down={shard.nodes_down})",
            file=sys.stderr,
            flush=True,
        )

    # -- protocol ----------------------------------------------------------

    def _error(
        self,
        code: int,
        message: str,
        req_id: object = None,
        kind: str | None = None,
    ) -> dict:
        if code == 429:
            self.rejected += 1
            obs.get_registry().counter(
                "serve.rejected",
                help="requests rejected by in-flight backpressure",
            ).inc()
        if kind is not None:
            self.errors[kind] = self.errors.get(kind, 0) + 1
            obs.get_registry().counter(
                "serve.errors",
                help="error responses by kind",
                labels=("kind",),
            ).labels(kind=kind).inc()
        out: dict = {"ok": False, "code": code, "error": message}
        if kind is not None:
            out["kind"] = kind
        if req_id is not None:
            out["id"] = req_id
        return out

    def _stats(self) -> dict:
        return {
            "uptime_s": time.monotonic() - self.started_at,
            "topologies": self.registry.names(),
            "topology_sizes": {
                s.name: s.n for s in self.registry.shards()
            },
            "shards": len(self.registry),
            "table_bytes": self.registry.total_table_bytes(),
            "requests": self.requests,
            "rejected": self.rejected,
            "batches": self.batches,
            "errors": dict(sorted(self.errors.items())),
            "faults": self.epochs.status(),
            "inflight_pairs": self._inflight,
            "latency": {
                "count": self.latency.count,
                "mean_s": self.latency.mean(),
                "p50_s": self.latency.quantile(0.50),
                "p99_s": self.latency.quantile(0.99),
                "max_s": self.latency.max if self.latency.count else None,
            },
        }

    async def _answer(self, req: dict) -> dict:
        """Answer one decoded request object (never raises)."""
        req_id = req.get("id")
        op = req.get("op")
        if op == "ping":
            return {"ok": True, "id": req_id, "op": "ping",
                    "topologies": self.registry.names()}
        if op == "stats":
            return {"ok": True, "id": req_id, "op": "stats",
                    "stats": self._stats()}
        if op == "faults":
            return await self._faults_admin(req, req_id)
        if op not in OPS:
            return self._error(400, f"unknown op {op!r}", req_id)
        if self._draining:
            return self._error(503, "server is draining", req_id)
        topology = req.get("topology")
        if not isinstance(topology, str):
            return self._error(400, "missing 'topology'", req_id)
        try:
            shard = self.registry.get(topology)
        except UnknownTopologyError as exc:
            return self._error(404, str(exc), req_id)
        try:
            src, dst = plan_batch(req.get("pairs", []), shard.n)
        except BadBatchError as exc:
            return self._error(400, str(exc), req_id)
        deadline_ms = req.get("deadline_ms")
        deadline: float | None = None
        if deadline_ms is not None:
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms < 0
            ):
                return self._error(
                    400, "deadline_ms must be a non-negative number", req_id
                )
            deadline = asyncio.get_running_loop().time() + float(deadline_ms) / 1e3
        strict = bool(req.get("strict", False))
        npairs = int(src.shape[0])
        if npairs == 0:
            return {"ok": True, "id": req_id, "op": op, "result": [],
                    "epoch": int(shard.epoch)}
        if self._inflight + npairs > self.config.max_inflight:
            return self._error(
                429,
                f"in-flight pair budget exhausted "
                f"({self._inflight}+{npairs} > {self.config.max_inflight})",
                req_id,
            )
        if deadline is not None and deadline <= asyncio.get_running_loop().time():
            return self._error(
                504, "deadline already expired at admission", req_id,
                kind="deadline",
            )
        t0 = time.monotonic()
        self.requests += 1
        self._inflight += npairs
        obs.get_registry().counter(
            "serve.requests", help="admitted query requests", labels=("op",)
        ).labels(op=op).inc()
        try:
            result, epoch = await self._enqueue(topology, op, src, dst, deadline)
        except DeadlineExceededError:
            return self._error(
                504,
                f"deadline_ms={deadline_ms} expired before the batch executed",
                req_id,
                kind="deadline",
            )
        except EngineFailureError as exc:
            return self._error(
                500, f"batch execution failed: {exc}", req_id, kind="engine"
            )
        finally:
            self._inflight -= npairs
        if strict:
            unreachable = (
                sum(1 for v in result if v == -1)
                if op == "distance"
                else sum(1 for p in result if p is None)
            )
            if unreachable:
                return self._error(
                    404,
                    f"{unreachable}/{npairs} pairs unreachable under fault "
                    f"epoch {epoch}",
                    req_id,
                    kind="route_unavailable",
                )
        dt = time.monotonic() - t0
        self.latency.observe(dt)
        obs.get_registry().histogram(
            "serve.request.seconds",
            help="request latency (admission to answer)",
            bounds=_LATENCY_BOUNDS,
        ).observe(dt)
        return {"ok": True, "id": req_id, "op": op, "result": result,
                "epoch": epoch}

    # -- fault-epoch administration ---------------------------------------

    async def _faults_admin(self, req: dict, req_id: object) -> dict:
        """Handle the ``faults`` admin op: ``status``/``apply``/``clear``.

        ``apply`` stages the overlay build in an executor thread — queries
        keep answering the old epoch meanwhile — then flushes the
        topology's pending buckets and installs the new table, all within
        one event-loop step, so no batch ever straddles two epochs.
        """
        action = req.get("action", "status")
        if action == "status":
            return {"ok": True, "id": req_id, "op": "faults",
                    "status": self.epochs.status()}
        if self._draining:
            return self._error(503, "server is draining", req_id)
        topology = req.get("topology")
        if not isinstance(topology, str):
            return self._error(400, "missing 'topology'", req_id)
        try:
            self.registry.base(topology)
        except UnknownTopologyError as exc:
            return self._error(404, str(exc), req_id)
        lock = self._fault_locks.setdefault(topology, asyncio.Lock())
        async with lock:
            if action == "clear":
                for op_name in OPS:
                    self._flush((topology, op_name))
                self.epochs.clear(topology)
                return {"ok": True, "id": req_id, "op": "faults",
                        "topology": topology,
                        **self.epochs.status()[topology]}
            if action != "apply":
                return self._error(
                    400, f"unknown faults action {action!r}", req_id
                )
            raw = req.get("events")
            if not isinstance(raw, list):
                return self._error(
                    400, "faults apply needs an 'events' array", req_id
                )
            label = req.get("label")
            if label is not None and (
                isinstance(label, bool) or not isinstance(label, int) or label < 1
            ):
                return self._error(
                    400, "label must be a positive integer", req_id
                )
            try:
                events = [FaultEvent.from_jsonable(o) for o in raw]
            except ValueError as exc:
                return self._error(400, str(exc), req_id)
            loop = asyncio.get_running_loop()
            try:
                shard = await loop.run_in_executor(
                    None, self.epochs.stage, topology, events, label
                )
            except ValueError as exc:
                return self._error(400, f"bad fault event: {exc}", req_id)
            self._install_epoch(topology, shard)
            return {"ok": True, "id": req_id, "op": "faults",
                    "topology": topology, **self.epochs.status()[topology]}

    def _install_epoch(self, topology: str, shard: EpochShard) -> None:
        """Flush *topology*'s pending buckets, then swap in *shard*.

        Synchronous, so no handler runs in between: every already-admitted
        pair answers the old epoch and every later one the new.
        """
        for op_name in OPS:
            self._flush((topology, op_name))
        self.epochs.install(topology, shard)
        print(
            f"repro-serve: fault epoch {shard.epoch} installed for "
            f"{topology!r} (links_down={shard.links_down}, "
            f"nodes_down={shard.nodes_down})",
            file=sys.stderr,
            flush=True,
        )

    # -- coalescing --------------------------------------------------------

    async def _enqueue(
        self,
        topology: str,
        op: str,
        src: np.ndarray,
        dst: np.ndarray,
        deadline: float | None = None,
    ) -> tuple[list, int]:
        """Admit one planned batch into its ``(topology, op)`` bucket.

        Resolves to ``(result_slice, epoch_label)``.  The first waiter of
        a bucket schedules the bucket's flush for the next event-loop turn;
        later waiters of the same turn join it, so requests that arrive
        together share one engine call and none waits for a later one.
        """
        loop = asyncio.get_running_loop()
        key = (topology, op)
        waiter = _Waiter(src, dst, loop.create_future(), deadline=deadline)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [waiter]
            loop.call_soon(self._flush, key)
        else:
            bucket.append(waiter)
        return await waiter.future

    def _flush(self, key: tuple[str, str]) -> None:
        """Execute one coalesced batch and distribute the slices.

        Runs synchronously in the event loop, one turn after the bucket's
        first waiter arrived, or earlier when a fault epoch swap flushes
        the topology; a flush that finds its bucket already gone returns.
        The serving shard (and its epoch label) is read exactly once per
        batch, so every pair in the batch answers against one fault epoch.
        Waiters whose deadline already expired are shed with
        :class:`DeadlineExceededError` (the 504 path) before the engine
        runs; an engine failure resolves every live waiter to
        :class:`EngineFailureError` (the structured 500 path) without
        killing the connection.
        """
        waiters = self._buckets.pop(key, None)
        if not waiters:
            return
        topology, op = key
        now = time.monotonic()
        live: list[_Waiter] = []
        for w in waiters:
            if w.deadline is not None and now > w.deadline:
                if not w.future.done():
                    w.future.set_exception(DeadlineExceededError())
            else:
                live.append(w)
        if not live:
            return
        src = np.concatenate([w.src for w in live])
        dst = np.concatenate([w.dst for w in live])
        self.batches += 1
        try:
            epoch = int(self.registry.get(topology).epoch)
            result = self.engine.lookup(topology, op, src, dst)
        except Exception as exc:
            print(
                f"repro-serve: batch {key} of {int(src.shape[0])} pairs "
                f"failed: {exc!r}",
                file=sys.stderr,
                flush=True,
            )
            failure = EngineFailureError(exc)
            for w in live:
                if not w.future.done():
                    w.future.set_exception(failure)
            return
        # Distances leave as Python ints (``tolist``), paths are lists already.
        items = result.tolist() if isinstance(result, np.ndarray) else result
        offset = 0
        for w in live:
            k = int(w.src.shape[0])
            chunk = items[offset : offset + k]
            offset += k
            if not w.future.done():
                w.future.set_result((chunk, epoch))

    # -- connections -------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    resp = self._error(400, f"bad request line: {exc}")
                else:
                    resp = await self._answer(req)
                writer.write(json.dumps(resp).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- lifecycle ---------------------------------------------------------

    def _begin_drain(self, code: int) -> None:
        self._draining = True
        self._exit_code = code
        if self._stopped is None:
            raise RuntimeError("drain requested before the server started")
        self._stopped.set()

    def request_stop(self, code: int = 0) -> None:
        """Thread-safe programmatic drain (embedding, tests)."""
        if self._loop is None:
            raise RuntimeError("server is not running")
        self._loop.call_soon_threadsafe(self._begin_drain, code)

    def _on_signal(self, signame: str, code: int) -> None:
        self._signals += 1
        if self._signals > 1:
            print(f"repro-serve: second signal ({signame}), aborting",
                  file=sys.stderr, flush=True)
            raise SystemExit(code)
        print(f"repro-serve: {signame} received, draining",
              file=sys.stderr, flush=True)
        self._begin_drain(code)

    async def _main(self) -> int:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stopped = asyncio.Event()
        try:
            loop.add_signal_handler(
                signal.SIGINT, self._on_signal, "SIGINT", 130
            )
            loop.add_signal_handler(
                signal.SIGTERM, self._on_signal, "SIGTERM", 0
            )
        except (NotImplementedError, RuntimeError):
            # Non-main thread (embedded/tests) or platform without signal
            # support: request_stop() is the drain path instead.
            pass
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        port = self._server.sockets[0].getsockname()[1]
        self.port = int(port)
        self.ready.set()
        print(
            READY_PREFIX
            + json.dumps(
                {
                    "port": int(port),
                    "host": self.config.host,
                    "topologies": self.registry.names(),
                },
                sort_keys=True,
            ),
            flush=True,
        )
        await self._stopped.wait()
        # Drain: stop accepting, answer everything already admitted (each
        # admitted request's bucket has its flush scheduled).  A handler
        # that decremented the in-flight count has already buffered its
        # response bytes (write() is synchronous into the transport), so
        # once the count hits zero it is safe to wind the tasks down —
        # closing transports flushes, never truncates.
        self._server.close()
        await self._server.wait_closed()
        deadline = time.monotonic() + 5.0
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        await asyncio.sleep(0)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        return self._exit_code

    def serve_forever(self) -> int:
        """Run the server until a signal drains it; returns the exit code."""
        return asyncio.run(self._main())


def run_server(config: ServerConfig) -> int:
    """Warm the registry, serve until drained, export metrics; exit code.

    When ``config.metrics_out`` is set an enabled observability session
    covers the whole lifetime — including the warm path, so the exported
    ``routing.table.builds`` counter distinguishes cold starts (one build
    per distinct graph) from warm restarts (zero).
    """
    if config.metrics_out is None:
        server = ServeServer(config)
        server.warm()
        return server.serve_forever()
    with obs.session() as (registry, tracer):
        server = ServeServer(config)
        server.warm()
        try:
            code = server.serve_forever()
        finally:
            manifest = obs.RunManifest.capture(
                artifacts=store.get_store().resolved(),
                topologies=",".join(config.topologies),
                scale=config.scale,
            )
            obs.export_json(config.metrics_out, registry, tracer, manifest)
    return code
