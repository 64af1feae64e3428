"""Client reliability kit: seeded backoff, circuit breaker, RetryingClient.

This module is the **sanctioned home for retry loops** — lint rule RL113
flags ad-hoc sleep-and-retry loops anywhere else in the library, for the
same reason RL105 bans unseeded RNGs in fault scenarios: an improvised
retry loop has unseeded jitter (unreproducible load patterns), no
deadline budget (unbounded hangs), no breaker (thundering herds against
a restarting server) and no accounting.  Here every piece is explicit:

* :class:`BackoffPolicy` — exponential backoff whose jitter is drawn from
  a seeded ``np.random.default_rng``, so two clients with the same seed
  produce byte-identical retry timelines;
* :class:`CircuitBreaker` — consecutive-failure breaker (closed →
  open → half-open) with an injectable clock, exported as the
  ``serve.breaker.state`` gauge;
* :class:`RetryingClient` — a :class:`~repro.serve.client.ServeClient`
  wrapper that rides out server restarts, drains (503), backpressure
  (429), engine failures (500) and deadline sheds (504).  Each *logical*
  request gets one idempotent id (``"<client_id>:<seq>"``) reused
  verbatim across resends and reconnects — the served ops are pure reads,
  so replaying an id is always safe — and one overall deadline budget.
  Retried attempts are counted in ``serve.retries{cause}`` and redials in
  ``serve.client.reconnects``.

Everything is synchronous (RL112: no event loop outside the server) and
deterministic under a seed, with ``sleep``/``clock`` injectable so tests
run on a fake clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.serve.client import BaseClient, ServeClient, ServeError

__all__ = [
    "RETRYABLE_CODES",
    "BackoffPolicy",
    "BreakerOpenError",
    "CircuitBreaker",
    "RetryingClient",
]

#: Server responses worth retrying: backpressure, engine failure, drain,
#: deadline shed.  400/404 are contract errors — resending cannot help.
RETRYABLE_CODES = frozenset({429, 500, 503, 504})

#: ``serve.breaker.state`` gauge encoding.
_BREAKER_GAUGE = {"closed": 0, "half_open": 1, "open": 2}


@dataclass(frozen=True)
class BackoffPolicy:
    """Seeded exponential backoff with multiplicative jitter.

    Retry attempt *k* (0-based) sleeps ``min(cap, base * multiplier**k)``
    scaled by ``1 - jitter * rng.random()`` — full delay down to
    ``1 - jitter`` of it, drawn from the caller's seeded generator.
    """

    base: float = 0.05
    cap: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base <= 0 or self.cap < self.base:
            raise ValueError(
                f"need 0 < base <= cap, got base={self.base} cap={self.cap}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Sleep before retry *attempt* (0-based), jittered from *rng*."""
        raw = min(self.cap, self.base * self.multiplier ** attempt)
        return raw * (1.0 - self.jitter * float(rng.random()))


class BreakerOpenError(RuntimeError):
    """The circuit breaker is open and the caller chose not to wait."""

    def __init__(self, remaining: float) -> None:
        super().__init__(
            f"circuit breaker open for another {remaining:.3f}s"
        )
        self.remaining = remaining


class CircuitBreaker:
    """Consecutive-failure circuit breaker: closed → open → half-open.

    ``failure_threshold`` consecutive failures open the breaker; after
    ``reset_after`` seconds it half-opens and admits one probe — a success
    closes it, a failure re-opens it immediately.  State transitions drive
    the ``serve.breaker.state`` gauge (0 closed, 1 half-open, 2 open).
    The clock is injectable so tests advance time explicitly.
    """

    def __init__(
        self,
        failure_threshold: int = 8,
        reset_after: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after <= 0:
            raise ValueError(f"reset_after must be > 0, got {reset_after}")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        #: Times the breaker tripped open (reported by the chaos harness).
        self.opens = 0
        self._export()

    def _export(self) -> None:
        obs.get_registry().gauge(
            "serve.breaker.state",
            help="client circuit-breaker state (0 closed, 1 half-open, 2 open)",
        ).set(_BREAKER_GAUGE[self._state])

    @property
    def state(self) -> str:
        """Current state, promoting open → half-open once the reset lapses."""
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_after
        ):
            self._state = "half_open"
            self._export()
        return self._state

    def remaining(self) -> float:
        """Seconds until an open breaker half-opens (0 when not open)."""
        if self.state != "open":
            return 0.0
        return max(0.0, self._opened_at + self.reset_after - self._clock())

    def allow(self) -> bool:
        """May a request attempt go out right now?"""
        return self.state != "open"

    def record_success(self) -> None:
        self._failures = 0
        if self._state != "closed":
            self._state = "closed"
            self._export()

    def record_failure(self) -> None:
        self._failures += 1
        state = self.state
        if state == "half_open" or self._failures >= self.failure_threshold:
            if state != "open":
                self.opens += 1
            self._state = "open"
            self._opened_at = self._clock()
            self._export()


class RetryingClient(BaseClient):
    """A route-query client that transparently rides out server trouble.

    Wraps a lazily-dialed :class:`ServeClient` connection; the query and
    admin ops are :class:`~repro.serve.client.BaseClient`'s.  Each call to
    :meth:`request` is one *logical* request: it gets a stable idempotent
    id, an overall deadline budget (``deadline_s``), and is retried —
    with seeded exponential backoff and breaker gating — across
    disconnects (server SIGKILLed mid-burst), connection refusals (server
    restarting), 503 drains, 429 backpressure, structured 500s and 504
    deadline sheds.  Non-retryable responses (400/404, including strict
    ``route_unavailable``) raise immediately.

    When the breaker is open the client sleeps out the cooldown and
    probes (``fail_fast=False``, the default) or raises
    :class:`BreakerOpenError` (``fail_fast=True``).  ``dial``, ``sleep``
    and ``clock`` are injectable for tests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: BackoffPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        max_attempts: int = 12,
        deadline_s: float = 60.0,
        connect_timeout: float = 10.0,
        seed: int = 0,
        client_id: str | None = None,
        fail_fast: bool = False,
        dial: Callable[[], ServeClient] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.host = host
        self.port = port
        self.policy = policy if policy is not None else BackoffPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            clock=clock
        )
        self.max_attempts = max_attempts
        self.deadline_s = deadline_s
        self.fail_fast = fail_fast
        self.client_id = client_id if client_id is not None else f"rc{seed}"
        self._rng = np.random.default_rng(seed)
        self._dial = dial if dial is not None else (
            lambda: ServeClient(host, port, timeout=connect_timeout)
        )
        self._sleep = sleep
        self._clock = clock
        self._conn: ServeClient | None = None
        self._ever_connected = False
        self._seq = 0
        #: Retried attempts by cause (mirrors the serve.retries counter).
        self.retries: dict[str, int] = {}
        #: Successful redials after a dropped connection.
        self.reconnects = 0

    # -- connection management --------------------------------------------

    def _connection(self) -> ServeClient:
        if self._conn is None:
            self._conn = self._dial()
            if self._ever_connected:
                self.reconnects += 1
                obs.get_registry().counter(
                    "serve.client.reconnects",
                    help="successful redials after a dropped connection",
                ).inc()
            self._ever_connected = True
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "RetryingClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the retry loop -----------------------------------------------------

    def _note_retry(self, cause: str) -> None:
        self.retries[cause] = self.retries.get(cause, 0) + 1
        obs.get_registry().counter(
            "serve.retries",
            help="client request attempts that were retried",
            labels=("cause",),
        ).labels(cause=cause).inc()

    def request(self, req: dict) -> dict:
        """Send one logical request, retrying transient failures.

        The idempotent id is assigned here — once per logical request,
        **not** per attempt — so a resend after a reconnect presents the
        same id to the (read-only) server.  Raises the last transient
        error once ``max_attempts`` or the deadline budget is exhausted,
        :class:`BreakerOpenError` when the breaker blocks a fail-fast
        client, and non-retryable :class:`ServeError` immediately.
        """
        self._seq += 1
        req = dict(req, id=f"{self.client_id}:{self._seq}")
        deadline = self._clock() + self.deadline_s
        attempt = 0
        while True:
            if not self.breaker.allow():
                wait = self.breaker.remaining()
                if self.fail_fast or self._clock() + wait > deadline:
                    raise BreakerOpenError(wait)
                self._note_retry("breaker_open")
                self._sleep(wait)
                continue
            cause: str
            error: Exception
            try:
                resp = self._connection().request(req)
            except ServeError as exc:
                if exc.code not in RETRYABLE_CODES:
                    # The server answered; the contract error is the
                    # caller's problem, not the connection's.
                    self.breaker.record_success()
                    raise
                cause, error = f"code_{exc.code}", exc
                if exc.code == 503:
                    # Draining: this server instance is going away.
                    self._drop_connection()
            except (ConnectionError, OSError, EOFError, ValueError) as exc:
                # Socket died, dial refused, or a half-written response
                # line (SIGKILL mid-reply) failed to parse.
                cause, error = "disconnect", exc
                self._drop_connection()
            else:
                self.breaker.record_success()
                return resp
            self.breaker.record_failure()
            attempt += 1
            if attempt >= self.max_attempts:
                raise error
            delay = self.policy.delay(attempt - 1, self._rng)
            if self._clock() + delay > deadline:
                raise error
            self._note_retry(cause)
            self._sleep(delay)
