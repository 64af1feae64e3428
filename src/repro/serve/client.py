"""Synchronous batch client for the NDJSON route-query protocol.

The client is deliberately plain-socket (no event loop — RL112 keeps
loop creation inside :mod:`repro.serve.server`): tests, the CLI and the
load generator all speak through :class:`ServeClient`, one JSON line per
request, blocking for the matching response line.

:func:`wait_until_ready` pairs with the server's ready banner — start the
server as a subprocess, hand its stdout here, get the bound port back.

For a client that survives restarts, drains and backpressure, wrap the
connection details in :class:`repro.serve.reliability.RetryingClient`.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time
from typing import IO

__all__ = ["BaseClient", "ServeClient", "ServeError", "wait_until_ready"]

from repro.serve.server import READY_PREFIX


class ServeError(RuntimeError):
    """A protocol-level error response (carries the HTTP-flavored code).

    ``kind`` refines the code when the server sent one: ``"engine"``
    (500), ``"deadline"`` (504), ``"route_unavailable"`` (the 404 variant
    for strict queries cut apart by a fault epoch).
    """

    def __init__(self, code: int, message: str, kind: str | None = None) -> None:
        label = f"[{code}]" if kind is None else f"[{code}/{kind}]"
        super().__init__(f"{label} {message}")
        self.code = code
        self.kind = kind


def _banner_payload(line: str) -> dict:
    payload = json.loads(line[len(READY_PREFIX):])
    if not isinstance(payload, dict):
        raise ServeError(500, "malformed ready banner")
    return payload


def wait_until_ready(stdout: IO[str], timeout: float = 60.0) -> dict:
    """Read a server subprocess's stdout until the ready banner appears.

    Returns the banner payload (``{"port": ..., "host": ...,
    "topologies": [...]}``).  The deadline is real: the pipe is polled
    with :mod:`selectors` and drained with non-blocking ``os.read``, so a
    wedged server raises :class:`TimeoutError` carrying whatever partial
    output was seen instead of blocking forever.  Pass the stdout of a
    freshly-spawned process nothing else has read (the poll loop bypasses
    the text wrapper's buffer); objects without a real file descriptor
    (e.g. ``io.StringIO``) fall back to plain line iteration, where only
    EOF ends the wait.
    """
    deadline = time.monotonic() + timeout
    try:
        fd: int | None = stdout.fileno()
    except (OSError, ValueError, AttributeError):
        fd = None
    if fd is None:
        for line in stdout:
            if line.startswith(READY_PREFIX):
                return _banner_payload(line)
        raise ServeError(500, "server exited before becoming ready")
    buf = ""
    sel = selectors.DefaultSelector()
    sel.register(fd, selectors.EVENT_READ)
    try:
        while True:
            while "\n" in buf:
                line, buf = buf.split("\n", 1)
                if line.startswith(READY_PREFIX):
                    return _banner_payload(line)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"server not ready within {timeout:.1f}s; partial "
                    f"output: {buf[-500:]!r}"
                )
            if not sel.select(min(remaining, 0.25)):
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ServeError(500, "server exited before becoming ready")
            buf += chunk.decode("utf-8", errors="replace")
    finally:
        sel.close()


class BaseClient:
    """The query and admin ops of the NDJSON protocol, each one
    :meth:`request` call.

    :class:`ServeClient` sends a request once over one connection;
    :class:`~repro.serve.reliability.RetryingClient` resends it across
    reconnects.  Every op raises :class:`ServeError` on an ``ok: false``
    response (``exc.code`` holds 400/404/429/500/503/504, ``exc.kind``
    the refinement when sent).
    """

    def request(self, req: dict) -> dict:
        """Send one request object, return its ``ok`` response object."""
        raise NotImplementedError

    # -- queries -----------------------------------------------------------

    def ping(self) -> list[str]:
        """Liveness probe; returns the served topology names."""
        return list(self.request({"op": "ping"})["topologies"])

    def stats(self) -> dict:
        """Server-side counters and latency quantiles."""
        stats = self.request({"op": "stats"})["stats"]
        if not isinstance(stats, dict):
            raise ServeError(500, "malformed stats response")
        return stats

    def query(
        self,
        op: str,
        topology: str,
        pairs: object,
        *,
        deadline_ms: float | None = None,
        strict: bool = False,
    ) -> dict:
        """One distance/path request, returning the full response object
        (``result`` plus the fault-epoch label the batch answered under)."""
        req: dict = {
            "op": op, "topology": topology, "pairs": _pairs_payload(pairs)
        }
        if deadline_ms is not None:
            req["deadline_ms"] = deadline_ms
        if strict:
            req["strict"] = True
        return self.request(req)

    def distance(
        self,
        topology: str,
        pairs: object,
        *,
        deadline_ms: float | None = None,
        strict: bool = False,
    ) -> list[int]:
        """Batched distance lookup; ``-1`` marks unreachable pairs."""
        resp = self.query(
            "distance", topology, pairs, deadline_ms=deadline_ms, strict=strict
        )
        return resp["result"]

    def path(
        self,
        topology: str,
        pairs: object,
        *,
        deadline_ms: float | None = None,
        strict: bool = False,
    ) -> list[list[int] | None]:
        """Batched minimal-path lookup; ``None`` marks unreachable pairs."""
        resp = self.query(
            "path", topology, pairs, deadline_ms=deadline_ms, strict=strict
        )
        return resp["result"]

    # -- fault-epoch administration ----------------------------------------

    def apply_faults(
        self, topology: str, events: object, label: int | None = None
    ) -> dict:
        """Admin op: apply fault events as a new epoch overlay.

        ``events`` is a sequence of :class:`~repro.faults.model.FaultEvent`
        (or their ``to_jsonable`` dict form); the response reports the
        installed epoch label and the degraded-link/node counts.
        """
        payload = [
            e.to_jsonable() if hasattr(e, "to_jsonable") else e
            for e in events  # type: ignore[attr-defined,union-attr]
        ]
        req: dict = {
            "op": "faults", "action": "apply",
            "topology": topology, "events": payload,
        }
        if label is not None:
            req["label"] = label
        return self.request(req)

    def clear_faults(self, topology: str) -> dict:
        """Admin op: drop the fault overlay, back to the pristine table."""
        return self.request(
            {"op": "faults", "action": "clear", "topology": topology}
        )

    def fault_status(self) -> dict:
        """Admin op: per-topology fault-epoch status."""
        status = self.request({"op": "faults", "action": "status"})["status"]
        if not isinstance(status, dict):
            raise ServeError(500, "malformed faults status response")
        return status


class ServeClient(BaseClient):
    """One blocking NDJSON connection to a :class:`~repro.serve.server.ServeServer`.

    Usable as a context manager; the query and admin ops are
    :class:`BaseClient`'s, each one request on this connection.
    """

    def __init__(
        self, host: str, port: int, timeout: float | None = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._next_id = 0

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def request(self, req: dict) -> dict:
        """Send one request object, block for its response object.

        A caller-supplied ``id`` is preserved verbatim (the idempotent
        resend contract :class:`~repro.serve.reliability.RetryingClient`
        relies on); otherwise a connection-local counter is stamped in.
        """
        if "id" not in req:
            self._next_id += 1
            req = dict(req, id=self._next_id)
        self._sock.sendall(json.dumps(req).encode() + b"\n")
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        resp = json.loads(line)
        if not isinstance(resp, dict):
            raise ServeError(500, "malformed response line")
        if not resp.get("ok", False):
            raise ServeError(
                int(resp.get("code", 500)),
                str(resp.get("error", "unknown")),
                kind=resp.get("kind"),
            )
        return resp


def _pairs_payload(pairs: object) -> list[list[int]]:
    """Normalize array-likes (lists, ndarrays) to the JSON wire shape."""
    return [[int(s), int(d)] for s, d in pairs]  # type: ignore[union-attr]
