"""``serve_mixed``: a live ``repro serve start`` process under mixed traffic.

Load comes from this one process over two connections and two threads (a
sender and a receiver), which matches the two cores the benchmark is
sized for.  Phases, in order:

1. set-up: the server is spawned three times, each on an empty store, and
   timed until its ``REPRO_SERVE_READY`` banner (construction, BFS table,
   store write); the third one is kept;
2. nominal (open loop), in sub-phases of ``SUBPHASE_S``: seeded arrivals at
   ``NOMINAL_RPS`` mixing small and large ``distance`` batches with
   ``path`` batches in fixed shares, plus a ``faults`` apply (an off-loop
   BFS rebuild) ``ADMIN_PERIOD_S / 2`` into each sub-phase and its clear
   one period later.  Query latency is timed from each request's due time
   and pooled over the sub-phases;
3. bursts (closed loop): a fixed seeded set of requests, each connection
   sending its next request when the previous answer arrives; one round
   before each sub-phase and one after the last.  ``wall_s`` is the
   fastest round (every round does the same work);
4. ladder (traced runs only; open loop): fixed multiples of the nominal
   rate, queries only; ``max_rate_rps`` is the highest step whose tail
   latency meets ``LATENCY_LIMIT_MS`` with no growing backlog and no failure.

Why: the only online path.  ``distance`` is a fancy-indexed gather and
``path`` a lockstep reconstruction, so they load the engine very
differently; the epoch apply is the write beside the reads.

Basis of the traffic.  No trace of production traffic exists for this
service, so:

- ``NOMINAL_RPS`` is half the median ``max_rate_rps`` (300 req/s, steps of
  200 req/s x 1, 1.5, 2; range 200-300) that this ladder measured on the
  unchanged server over 25 runs on a 2-core x86-64 host: the nominal
  phase sits inside capacity, where latency is service time rather than
  queueing;
- the op shares (60 % 64-pair distance, 10 % 4096-pair distance, 30 %
  64-pair path) are an unverified assumption; 4096 is the server's
  ``--max-batch`` default;
- a fault epoch fails 5 % of the links, the smallest non-zero fraction of
  the Fig. 14 sweep (``fig14.FRACTIONS``);
- an apply or a clear every ``ADMIN_PERIOD_S`` = 2 s (the server degraded
  half the time) is an unverified assumption.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import selectors
import socket
import sys
import threading
import time
import zlib
from collections import deque
from contextlib import contextmanager

import numpy as np

from perfbench import harness, oracles

TOPOLOGY = "PS-IQ"
#: (op, pairs per request, percent of requests)
MIX = (("distance", 64, 60), ("distance", 4096, 10), ("path", 64, 30))
NOMINAL_RPS = 150.0
NOMINAL_SHARE = 0.8  # of --seconds
#: An apply or a clear every period; a sub-phase holds one of each.
ADMIN_PERIOD_S = 2.0
SUBPHASE_S = 2 * ADMIN_PERIOD_S
FAIL_FRACTION = 0.05
BURST_REQUESTS = 500
LADDER = (1, 1.5, 2, 2.5, 3, 4, 6, 8)  # multiples of NOMINAL_RPS
LADDER_STEP_S = 1.5
LATENCY_LIMIT_MS = 25.0
#: A run whose generator ran later than this (p99) is invalid, not slow:
#: a tenth of the nominal query p99 (about 190 ms), the figure lateness
#: can distort most.  Typical lateness p99 is 2-4 ms, 6 ms on a slow host.
LATENESS_LIMIT_MS = 20.0
#: Failed requests over attempted at the nominal rate that a run may show.
FAILED_FRAC_LIMIT = 0.0
SETUP_SPAWNS = 3
#: Wait this long past the last due time for stragglers.
GRACE_S = 10.0


# -- inputs (pure functions of the seed) ---------------------------------------------


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def mixed_requests(rng: np.random.Generator, count: int, n: int) -> list:
    """*count* requests ``[(op, pairs), ...]`` in exactly the ``MIX``
    shares (the rounding remainder goes to the first kind), in seeded order."""
    kinds = [k for k, (_op, _size, pct) in enumerate(MIX) for _ in range(count * pct // 100)]
    kinds += [0] * (count - len(kinds))
    out = []
    for k in rng.permutation(kinds):
        op, size, _pct = MIX[k]
        out.append((op, rng.integers(0, n, size=(size, 2), dtype=np.int64)))
    return out


def query_schedule(seed: int, stream: str, rate: float, duration: float, n: int) -> list:
    """Seeded open-loop queries ``[(due_s, op, pairs), ...]``: exactly
    ``rate * duration`` requests, due at uniform random times (a Poisson
    stream conditioned on its count)."""
    rng = _rng(seed, stream)
    reqs = mixed_requests(rng, round(rate * duration), n)
    dues = np.sort(rng.uniform(0.0, duration, size=len(reqs)))
    return [(float(due), op, pairs) for due, (op, pairs) in zip(dues, reqs)]


def ladder_schedule(seed: int, multiple: float, n: int) -> list:
    return query_schedule(seed, f"ladder{multiple}", NOMINAL_RPS * multiple, LADDER_STEP_S, n)


def plan(seed: int, seconds: float, n: int, graph) -> dict:
    """The burst and the nominal sub-phases, each with its fault epoch:
    ``admin`` is ``[(due_s, "apply", label, events), (due_s, "clear", 0, [])]``."""
    from repro.faults import permanent_link_failures

    burst = [(0.0, op, pairs) for op, pairs in mixed_requests(_rng(seed, "burst"),
                                                                BURST_REQUESTS, n)]
    rng = _rng(seed, "admin")
    subphases = []
    for k in range(max(1, round(NOMINAL_SHARE * seconds / SUBPHASE_S))):
        events = list(permanent_link_failures(graph, FAIL_FRACTION,
                                              seed=int(rng.integers(0, 2**31 - 1))))
        subphases.append({
            "queries": query_schedule(seed, f"nominal{k}", NOMINAL_RPS, SUBPHASE_S, n),
            "admin": [(ADMIN_PERIOD_S / 2, "apply", k + 1, events),
                      (1.5 * ADMIN_PERIOD_S, "clear", 0, [])],
        })
    return {"burst": burst, "subphases": subphases}


def input_digest(inputs: dict) -> str:
    """SHA-256 of the generated requests, so a record shows which inputs it ran."""
    h = hashlib.sha256()
    for phase, schedule in ([("burst", inputs["burst"])]
                            + [(f"nominal{k}", sub["queries"])
                               for k, sub in enumerate(inputs["subphases"])]):
        for due, op, pairs in schedule:
            h.update(f"{phase}{due!r}{op}".encode())
            h.update(pairs.tobytes())
    for sub in inputs["subphases"]:
        for due, action, label, events in sub["admin"]:
            h.update(json.dumps([due, action, label, [e.to_jsonable() for e in events]]).encode())
    return h.hexdigest()


def _encode(rid: int, op: str, pairs) -> bytes:
    return (json.dumps({"id": rid, "op": op, "topology": TOPOLOGY,
                        "pairs": pairs.tolist()}) + "\n").encode()


def _encode_admin(rid: int, action: str, label: int, events) -> bytes:
    req = {"id": rid, "op": "faults", "action": action, "topology": TOPOLOGY}
    if action == "apply":
        req.update(label=label, events=[e.to_jsonable() for e in events])
    return (json.dumps(req) + "\n").encode()


# -- the load generator ----------------------------------------------------------------


class Conn:
    """One NDJSON connection with FIFO bookkeeping of outstanding requests."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.outstanding: deque = deque()
        #: Admin ops awaiting an answer: queries avoid their connection, whose
        #: answers come back in order behind them.  The sender and receiver
        #: threads both update it.
        self.admin_in_flight = 0
        self.admin_lock = threading.Lock()
        self.buf = b""

    def close(self) -> None:
        self.sock.close()


class Requests:
    """Pre-encoded requests of one phase and what happened to each."""

    def __init__(self, items: list) -> None:
        #: (due_s, kind, payload, meta) with kind in distance/path/apply/clear
        self.items = items
        n = len(items)
        self.sent = [0.0] * n
        self.recv = [0.0] * n
        self.raw: list = [None] * n

    def __len__(self) -> int:
        return len(self.items)


def open_loop(conns: list[Conn], reqs: Requests, t_base: float) -> None:
    """Send each request at its due time (least-loaded connection) while a
    receiver thread timestamps answers; returns once all are answered or
    ``GRACE_S`` after the last due time."""
    done = threading.Event()
    receiver = threading.Thread(target=_receive, args=(conns, reqs, done, None), daemon=True)
    with _generator_mode():
        receiver.start()
        try:
            _send_on_time(conns, reqs, t_base)
        finally:
            last_due = t_base + (reqs.items[-1][0] if reqs.items else 0.0)
            while any(c.outstanding for c in conns) and time.perf_counter() < last_due + GRACE_S:
                time.sleep(0.005)
            done.set()
            receiver.join(timeout=GRACE_S)


def _send_on_time(conns: list[Conn], reqs: Requests, t_base: float) -> None:
    for i, (due, kind, payload, _meta) in enumerate(reqs.items):
        delay = t_base + due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        conn = min(conns, key=lambda c: (c.admin_in_flight, len(c.outstanding)))
        if kind in ("apply", "clear"):
            with conn.admin_lock:
                conn.admin_in_flight += 1
        conn.outstanding.append(i)
        reqs.sent[i] = time.perf_counter()
        conn.sock.sendall(payload)


@contextmanager
def _generator_mode():
    """While load is generated: no collector pauses (they stalled the
    sender by tens of ms), and a short GIL switch interval so the sender
    runs soon after its sleep ends."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        sys.setswitchinterval(switch)


def closed_loop(conns: list[Conn], reqs: Requests) -> None:
    """Each connection sends its next request when the previous one is
    answered; a single thread drives both."""
    queue = deque(range(len(reqs)))
    done = threading.Event()

    def send_next(conn: Conn) -> None:
        if queue:
            i = queue.popleft()
            conn.outstanding.append(i)
            reqs.sent[i] = time.perf_counter()
            conn.sock.sendall(reqs.items[i][2])
        elif not any(c.outstanding for c in conns):
            done.set()

    with _generator_mode():
        for conn in conns:
            send_next(conn)
        _receive(conns, reqs, done, send_next, deadline=time.perf_counter() + 60.0)


def _receive(conns, reqs: Requests, done: threading.Event, on_answer, deadline=None) -> None:
    sel = selectors.DefaultSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    try:
        while not done.is_set():
            if deadline is not None and time.perf_counter() > deadline:
                return
            for key, _ in sel.select(timeout=0.05):
                conn = key.data
                chunk = conn.sock.recv(1 << 20)
                if not chunk:
                    raise ConnectionError("server closed a connection")
                now = time.perf_counter()
                *lines, conn.buf = (conn.buf + chunk).split(b"\n")
                for line in lines:
                    i = conn.outstanding.popleft()
                    reqs.recv[i] = now
                    reqs.raw[i] = line
                    if reqs.items[i][1] in ("apply", "clear"):
                        with conn.admin_lock:
                            conn.admin_in_flight -= 1
                    if on_answer is not None:
                        on_answer(conn)
    finally:
        sel.close()


# -- oracles -----------------------------------------------------------------------------


class EpochOracle:
    """Offline tables per epoch label: the store's table for the pristine
    network, a BFS of ``LinkHealth.healthy_graph()`` for each fault epoch."""

    def __init__(self, topo, admin: list) -> None:
        from repro import store
        from repro.faults import LinkHealth

        self.tables = {0: store.distance_table(topo).astype(np.int16)}
        self.links_down = {}
        for _due, action, label, events in admin:
            if action != "apply":
                continue
            health = LinkHealth(topo.graph)
            for ev in events:
                health.apply(ev)
            self.tables[label] = oracles.bfs_table(health.healthy_graph())
            self.links_down[label] = health.links_down_count()


def verify(reqs: Requests, oracle: EpochOracle) -> dict:
    """Tally every answer as ok, rejected (429), shed (504), error, wrong
    or missing."""
    tally = {"ok": 0, "rejected": 0, "shed": 0, "error": 0, "wrong": 0, "missing": 0}
    for (_due, kind, _payload, meta), raw in zip(reqs.items, reqs.raw):
        if raw is None:
            tally["missing"] += 1
            continue
        resp = json.loads(raw)
        if not resp.get("ok"):
            code = resp.get("code")
            tally["rejected" if code == 429 else "shed" if code == 504 else "error"] += 1
            continue
        if kind == "clear":
            good = resp.get("epoch") == 0
        elif kind == "apply":
            label = meta
            good = (resp.get("epoch") == label
                    and resp.get("links_down") == oracle.links_down[label])
        else:
            table = oracle.tables.get(resp.get("epoch"))
            if table is None:
                good = False
            elif kind == "distance":
                good = oracles.served_distances(meta, resp["result"], table) == 0
            else:
                good = oracles.served_paths(meta, resp["result"], table) == 0
        tally["ok" if good else "wrong"] += 1
    return tally


def _failures(tally: dict) -> int:
    return sum(v for k, v in tally.items() if k != "ok")


# -- measurement ---------------------------------------------------------------------


def _query_items(schedule: list, ids) -> list:
    return [(due, op, _encode(next(ids), op, pairs), pairs) for due, op, pairs in schedule]


def _latencies(reqs: Requests, from_due: bool, t_base: float = 0.0, kinds=None) -> list:
    out = []
    for (due, kind, _p, _m), sent, recv in zip(reqs.items, reqs.sent, reqs.recv):
        if recv and (kinds is None or kind in kinds):
            out.append(recv - (t_base + due if from_due else sent))
    return out


def _pooled(phases: list, from_due: bool, kinds) -> list:
    return [lat for reqs, t_base in phases for lat in _latencies(reqs, from_due, t_base, kinds)]


def _spawn(run: harness.Run, metrics_out=None):
    """Start a server on an empty store; ``(seconds to banner, proc, port)``."""
    argv = [sys.executable, "-m", "repro", "serve", "start", "--topology", TOPOLOGY]
    if metrics_out is not None:
        argv += ["--metrics-out", str(metrics_out)]
    env = harness.capped_env(REPRO_STORE_DIR=str(run.fresh_dir("serve-store")))
    seconds, banner, proc = harness.spawn_until_ready(argv, env)
    return seconds, proc, banner["port"]


def _stats(port: int) -> dict:
    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", port) as client:
        return client.stats()


def _open_loop_phase(port: int, items: list) -> tuple[Requests, float]:
    reqs = Requests(sorted(items, key=lambda it: it[0]))
    conns = [Conn(port) for _ in range(harness.nproc())]
    try:
        t_base = time.perf_counter() + 0.05
        open_loop(conns, reqs, t_base)
    finally:
        for c in conns:
            c.close()
    return reqs, t_base


def _burst(port: int, items: list) -> tuple[Requests, float]:
    conns = [Conn(port) for _ in range(harness.nproc())]
    try:
        reqs = Requests(items)
        t0 = time.perf_counter()
        closed_loop(conns, reqs)
        return reqs, max(reqs.recv) - t0
    finally:
        for c in conns:
            c.close()


def measure(run: harness.Run) -> None:
    from repro import store

    store.configure(root=run.fresh_dir("client-store"))
    topo = store.table3_topology(TOPOLOGY)
    inputs = plan(run.seed, run.seconds, topo.graph.n, topo.graph)
    run.params = {"topology": TOPOLOGY, "mix": MIX, "nominal_rps": NOMINAL_RPS,
                  "inputs_sha256": input_digest(inputs),
                  "ladder": [NOMINAL_RPS * m for m in LADDER],
                  "latency_limit_ms": LATENCY_LIMIT_MS, "admin_period_s": ADMIN_PERIOD_S,
                  "fail_fraction": FAIL_FRACTION, "burst_requests": BURST_REQUESTS,
                  "subphases": len(inputs["subphases"]), "subphase_s": SUBPHASE_S}

    setup_samples = []
    for _ in range(SETUP_SPAWNS - 1):
        seconds, proc, _port = _spawn(run)
        harness.stop(proc)
        setup_samples.append(seconds)
    seconds, server, port = _spawn(run)
    setup_samples.append(seconds)
    run.values["setup_s"] = harness.median(setup_samples)
    run.extra["setup_samples_s"] = setup_samples
    try:
        _drive(run, topo, port, server, inputs)
    finally:
        code = harness.stop(server)
        run.check("server drains and exits 0 on SIGTERM", code == 0, f"exit {code}")


def _drive(run, topo, port, server, inputs) -> None:
    ids = itertools.count(1)
    # Warm-up: the first requests of each kind, unmeasured but checked.
    warm, _ = _burst(port, _query_items(inputs["burst"][:30], ids))
    bursts: list[tuple[Requests, float]] = []
    phases: list[tuple[Requests, float]] = []
    stats0 = _stats(port)
    for sub in inputs["subphases"]:
        bursts.append(_burst(port, _query_items(inputs["burst"], ids)))
        items = _query_items(sub["queries"], ids) + [
            (due, action, _encode_admin(next(ids), action, label, events), label)
            for due, action, label, events in sub["admin"]]
        phases.append(_open_loop_phase(port, items))
    stats1 = _stats(port)
    bursts.append(_burst(port, _query_items(inputs["burst"], ids)))
    ladder = _ladder(run.seed, port, topo.graph.n, ids) if run.trace else []
    run.values["peak_rss_mb"] = harness.peak_rss_mb() + harness.proc_peak_rss_mb(server.pid)

    # -- checks, outside the timed phases ------------------------------------
    oracle = EpochOracle(topo, [a for sub in inputs["subphases"] for a in sub["admin"]])
    tallies = {name: verify(reqs, oracle) for name, reqs in
               [("warm-up", warm)]
               + [(f"nominal {k + 1}", reqs) for k, (reqs, _t) in enumerate(phases)]
               + [(f"burst {k + 1}", reqs) for k, (reqs, _wall) in enumerate(bursts)]
               + [(f"ladder x{step['multiple']}", step.pop("reqs")) for step in ladder]}
    for name, tally in tallies.items():
        run.check(f"{name}: every answer matches its epoch's offline table",
                  tally["wrong"] == 0, json.dumps(tally))
    attempted = sum(len(reqs) for reqs, _ in phases + bursts)
    failed = sum(_failures(t) for name, t in tallies.items()
                 if name.startswith(("nominal", "burst")))
    run.ops(attempted, failed)
    run.check(f"failed fraction of bursts and nominal phase <= {FAILED_FRAC_LIMIT}",
              failed <= FAILED_FRAC_LIMIT * attempted, f"{failed}/{attempted}")
    lateness = [s - (t_base + it[0]) for reqs, t_base in phases
                for it, s in zip(reqs.items, reqs.sent)]
    lateness_p99_ms = 1e3 * float(np.percentile(lateness, 99))
    run.check(f"generator lateness p99 <= {LATENESS_LIMIT_MS} ms (run valid)",
              lateness_p99_ms <= LATENESS_LIMIT_MS, f"{lateness_p99_ms:.3f} ms")

    queries = _pooled(phases, True, ("distance", "path"))
    applies = _pooled(phases, True, ("apply",))
    burst, _ = bursts[0]
    path_hops = sum(len(p) - 1 for (_d, kind, _p, _m), raw in zip(burst.items, burst.raw)
                    if kind == "path" and raw is not None
                    for p in json.loads(raw).get("result", []) if p is not None)
    burst_wall = min(wall for _reqs, wall in bursts)
    run.values.update({
        "wall_s": burst_wall,
        "ops_per_s": len(burst) / burst_wall,
        # Hops of the served paths (the same in every round).
        "sim_hops_per_s": path_hops / burst_wall,
        "query_p50_ms": 1e3 * harness.median(queries),
        "query_p99_ms": 1e3 * harness.tail(queries),
    })
    run.extra["burst_walls"] = [wall for _reqs, wall in bursts]
    per_phase = [_latencies(reqs, True, t_base, ("distance", "path")) for reqs, t_base in phases]
    run.extra["subphase_p50_ms"] = [1e3 * harness.median(lat) for lat in per_phase]
    run.extra["subphase_tail_ms"] = [1e3 * harness.tail(lat) for lat in per_phase]
    met = True
    for step in ladder:
        met = met and step["met"] and _failures(tallies[f"ladder x{step['multiple']}"]) == 0
        step["met"] = met
    run.extra["ladder"] = ladder
    # Serve-only outcomes: reported by the traced run (every workload must
    # print the same end-to-end set, and these have no batch counterpart).
    outcomes = {
        "epoch_apply_p50_ms": 1e3 * harness.median(applies),
        "serve.lateness_p99_ms": lateness_p99_ms,
    }
    if run.trace:
        outcomes["max_rate_rps"] = max([s["rate"] for s in ladder if s["met"]], default=0.0)
    run.extra.update(outcomes)
    if run.trace:
        run.layers.update(outcomes)
        run.layers.update(_layers(run, phases, bursts, stats0, stats1, inputs, burst_wall))


def _ladder(seed: int, port: int, n: int, ids) -> list[dict]:
    """Open-loop steps at rising rates until one misses the latency limit
    or shows a growing backlog; answers are checked afterwards."""
    steps = []
    conns = [Conn(port) for _ in range(harness.nproc())]
    try:
        for m in LADDER:
            reqs = Requests(_query_items(ladder_schedule(seed, m, n), ids))
            t_base = time.perf_counter() + 0.05
            open_loop(conns, reqs, t_base)
            lat = _latencies(reqs, True, t_base)
            quarter = max(1, len(lat) // 4)
            growing = (len(lat) >= 8 and harness.median(lat[-quarter:])
                       > 2 * harness.median(lat[:quarter]) + 0.002)
            tail_ms = 1e3 * harness.tail(lat) if lat else float("inf")
            steps.append({"multiple": m, "rate": NOMINAL_RPS * m, "requests": len(reqs),
                          "tail_ms": tail_ms, "p50_ms": 1e3 * harness.median(lat),
                          "backlog_growing": bool(growing),
                          "met": tail_ms <= LATENCY_LIMIT_MS and not growing,
                          "reqs": reqs})
            if not steps[-1]["met"]:
                break
    finally:
        for c in conns:
            c.close()
    return steps


def _layers(run, phases, bursts, stats0, stats1, inputs, burst_wall) -> dict:
    from repro.serve.engine import QueryEngine, ShardRegistry

    rtt = {kind: harness.median(_pooled(phases, False, kinds))
           for kind, kinds in (("distance", ("distance",)), ("path", ("path",)),
                               ("faults", ("apply", "clear")))}
    # Between the two stats reads: a burst before each sub-phase, and the sub-phase.
    batches = stats1["batches"] - stats0["batches"]
    nominal = [q for sub in inputs["subphases"] for q in sub["queries"]]
    pairs = (sum(len(pairs) for _d, _op, pairs in nominal)
             + len(phases) * sum(len(pairs) for _d, _op, pairs in inputs["burst"]))
    out = {
        "serve.rtt_ms.distance": 1e3 * rtt["distance"],
        "serve.rtt_ms.path": 1e3 * rtt["path"],
        "serve.rtt_ms.faults": 1e3 * rtt["faults"],
        "serve.server_ms.p50": 1e3 * stats1["latency"]["p50_s"],
        "serve.server_ms.p99": 1e3 * stats1["latency"]["p99_s"],
        "serve.pairs_per_batch": pairs / batches if batches else 0.0,
        "serve.rejected": stats1["rejected"] - stats0["rejected"],
        "serve.deadline_shed": (stats1["errors"].get("deadline", 0)
                                - stats0["errors"].get("deadline", 0)),
    }
    # The server's start-up (cold store) and then its engine alone,
    # in-process, on the same seeded pair stream.
    from repro import store

    store.configure(root=run.fresh_dir("engine-store"))
    with harness.traced_session() as (trace, registry):
        shards = ShardRegistry()
        trace.call("serve.load", shards.load, TOPOLOGY)
        engine = QueryEngine(shards)
        for op in ("distance", "path"):
            batches = [pairs for _d, kind, pairs in nominal if kind == op]
            t0 = time.perf_counter()
            for pairs in batches:
                engine.lookup(TOPOLOGY, op, pairs[:, 0], pairs[:, 1])
            dt = time.perf_counter() - t0
            out[f"serve.engine.{op}_pairs_per_s"] = sum(len(p) for p in batches) / dt
        out.update(harness.store_layer_metrics(trace, registry))
    # Tracing overhead: bursts again, against a server with repro.obs on.
    _seconds, traced_server, port = _spawn(run, metrics_out=run.workdir / "server-metrics.json")
    try:
        ids = itertools.count(1)
        traced_wall = min(_burst(port, _query_items(inputs["burst"], ids))[1]
                          for _ in range(2))
    finally:
        harness.stop(traced_server)
    out["obs.overhead_frac"] = traced_wall / burst_wall - 1.0
    return out
