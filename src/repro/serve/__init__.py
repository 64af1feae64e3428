"""``repro.serve`` — batched route-query service over shared distance tables.

The serving layer turns the store's cached int16 distance tables (the
``TableRouter(dist=)`` sharing contract) into an online query surface:

* :mod:`repro.serve.engine` — pure-sync core: batch planning, vectorized
  distance lookup, path reconstruction by next-hop walking, and the
  per-topology :class:`ShardRegistry` (with atomic fault-epoch overlays);
* :mod:`repro.serve.epochs` — fault-epoch tables: apply a fault mask,
  rebuild the distance table on the healthy subgraph, swap atomically;
* :mod:`repro.serve.server` — asyncio NDJSON TCP front end with request
  coalescing, bounded in-flight backpressure, deadline-aware admission,
  live ``faults`` admin ops and graceful drain;
* :mod:`repro.serve.client` — blocking batch client (tests, CI, the retrying client);
* :mod:`repro.serve.reliability` — client reliability kit: seeded backoff,
  circuit breaker, idempotent retrying client;
* :mod:`repro.serve.chaos` — chaos harness: query burst vs fault epochs
  and SIGKILL/restart cycles, checked against the offline oracle.

See ``docs/SERVING.md`` for the protocol, operational semantics, the
resilience model and the RL112/RL113 serve-discipline rules this package
is written under.
"""

from repro.serve.chaos import ChaosConfig, format_chaos, run_chaos
from repro.serve.client import ServeClient, ServeError, wait_until_ready
from repro.serve.engine import (
    BadBatchError,
    QueryEngine,
    ShardRegistry,
    TableShard,
    UnknownTopologyError,
    plan_batch,
)
from repro.serve.epochs import EpochShard, FaultEpochManager
from repro.serve.reliability import (
    BackoffPolicy,
    BreakerOpenError,
    CircuitBreaker,
    RetryingClient,
)
from repro.serve.server import (
    DeadlineExceededError,
    EngineFailureError,
    ServeServer,
    ServerConfig,
    run_server,
)

__all__ = [
    "BackoffPolicy",
    "BadBatchError",
    "BreakerOpenError",
    "ChaosConfig",
    "CircuitBreaker",
    "DeadlineExceededError",
    "EngineFailureError",
    "EpochShard",
    "FaultEpochManager",
    "QueryEngine",
    "RetryingClient",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "ServerConfig",
    "ShardRegistry",
    "TableShard",
    "UnknownTopologyError",
    "format_chaos",
    "plan_batch",
    "run_chaos",
    "run_server",
    "wait_until_ready",
]
