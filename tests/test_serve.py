"""Tests for repro.serve: engine parity, table sharing, protocol, lifecycle.

The acceptance bar (ISSUE 7): a 4096-pair batch answered byte-identical to
the offline ``store.distance_table``, exactly one BFS build on a cold
store and zero on a warm restart, deterministic 429 backpressure, and the
repo-wide signal semantics (SIGTERM drain → 0, SIGINT drain → 130).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs, store
from repro.graphs.base import Graph
from repro.routing.base import route_path
from repro.serve import (
    BadBatchError,
    QueryEngine,
    ServeClient,
    ServeError,
    ServerConfig,
    ServeServer,
    ShardRegistry,
    TableShard,
    UnknownTopologyError,
    plan_batch,
    wait_until_ready,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TOPO = "PS-IQ"
SCALE = "reduced"
UNREACHABLE = np.iinfo(np.int16).max


@pytest.fixture(scope="module")
def engine():
    registry = ShardRegistry()
    registry.load(TOPO, scale=SCALE)
    return QueryEngine(registry)


@pytest.fixture(scope="module")
def shard(engine):
    return engine.registry.get(TOPO)


def random_pairs(n: int, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(count, 2), dtype=np.int64)


# -- engine: batch planning ---------------------------------------------------


class TestPlanBatch:
    def test_plans_lists_and_arrays(self):
        src, dst = plan_batch([[0, 1], [2, 3]], 10)
        assert src.tolist() == [0, 2] and dst.tolist() == [1, 3]
        src, dst = plan_batch(np.array([[4, 5]]), 10)
        assert src.tolist() == [4] and dst.tolist() == [5]

    def test_empty_batch_is_legal(self):
        src, dst = plan_batch([], 10)
        assert src.shape == (0,) and dst.shape == (0,)

    def test_ragged_input_rejected(self):
        with pytest.raises(BadBatchError):
            plan_batch([[0, 1], [2]], 10)

    def test_wrong_width_rejected(self):
        with pytest.raises(BadBatchError):
            plan_batch([[0, 1, 2]], 10)

    def test_non_integer_rejected(self):
        # Floats, numeric strings and ints beyond int64 are rejected, never
        # cast to an id.
        for pairs in ([["a", "b"]], [[0.5, 1]], [["3", 4]], [[1e300, 1]],
                      [[1, 10**30]]):
            with pytest.raises(BadBatchError):
                plan_batch(pairs, 10)

    def test_out_of_range_rejected(self):
        with pytest.raises(BadBatchError):
            plan_batch([[0, 10]], 10)
        with pytest.raises(BadBatchError):
            plan_batch([[-1, 0]], 10)


# -- engine: distances and paths ----------------------------------------------


class TestEngineParity:
    def test_distance_batch_byte_identical_to_offline_table(self, engine, shard):
        """The acceptance criterion: 4096 pairs, answers byte-identical to
        the offline store.distance_table lookup."""
        pairs = random_pairs(shard.n, 4096)
        got = engine.distances(TOPO, pairs)
        offline = store.distance_table(shard.graph)
        expected = offline[pairs[:, 0], pairs[:, 1]].astype(np.int64)
        expected[expected == UNREACHABLE] = -1
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_distance_table_is_shared_not_copied(self, engine, shard):
        assert shard.dist is store.distance_table(shard.graph)

    def test_paths_identical_to_per_call_routing(self, engine, shard):
        """Engine paths must equal route_path over the per-call TableRouter
        (both pick the smallest-id closer neighbor at every step)."""
        pairs = random_pairs(shard.n, 256, seed=1)
        got = engine.paths(TOPO, pairs)
        router = store.table_router(shard.graph)
        for (s, d), path in zip(pairs.tolist(), got):
            assert path == route_path(router, s, d)

    def test_paths_are_valid_walks(self, engine, shard):
        pairs = random_pairs(shard.n, 512, seed=2)
        dists = engine.distances(TOPO, pairs)
        for (s, d), dist, path in zip(
            pairs.tolist(), dists, engine.paths(TOPO, pairs)
        ):
            assert path is not None
            assert path[0] == s and path[-1] == d
            assert len(path) == dist + 1
            for a, b in zip(path, path[1:]):
                assert b in shard.graph.neighbors(a)

    def test_self_pairs(self, engine):
        assert engine.distances(TOPO, [[5, 5]]).tolist() == [0]
        assert engine.paths(TOPO, [[5, 5]]) == [[5]]

    def test_unknown_topology(self, engine):
        with pytest.raises(UnknownTopologyError):
            engine.distances("no-such-net", [[0, 1]])

    def test_unreachable_pairs(self):
        """Two-component graph: cross-component queries answer -1 / None."""
        # 0-1 and 2-3 as two disjoint edges.
        graph = Graph(4, [(0, 1), (2, 3)], name="twocomp")
        dist = np.full((4, 4), UNREACHABLE, dtype=np.int16)
        for a, b in ((0, 0), (1, 1), (2, 2), (3, 3)):
            dist[a, b] = 0
        for a, b in ((0, 1), (1, 0), (2, 3), (3, 2)):
            dist[a, b] = 1
        shard = TableShard("twocomp", graph, dist)
        assert shard.distances(
            np.array([0, 0, 2]), np.array([1, 2, 3])
        ).tolist() == [1, -1, 1]
        assert shard.paths(np.array([0, 0]), np.array([2, 1])) == [
            None,
            [0, 1],
        ]

    def test_shard_rejects_mismatched_table(self, shard):
        with pytest.raises(ValueError):
            TableShard("bad", shard.graph, shard.dist[:-1])


# -- engine: shared tables under concurrency ----------------------------------


def _spawn_worker(root: str, pairs: list[list[int]], out: object) -> None:
    """Spawn-safe worker: resolve the shard from the warm disk store and
    answer a batch, reporting (answers, bfs-builds, store hit/miss)."""
    from repro import obs as w_obs
    from repro import store as w_store
    from repro.serve import QueryEngine as W_Engine
    from repro.serve import ShardRegistry as W_Registry

    w_store.configure(root=Path(root))
    with w_obs.session() as (registry, _):
        reg = W_Registry()
        reg.load("PS-IQ", scale="reduced")
        d = W_Engine(reg).distances("PS-IQ", pairs)
        builds = (
            registry.get("routing.table.builds").value
            if "routing.table.builds" in registry
            else 0.0
        )
        hits = sum(
            s["value"] for s in registry.get("store.hit").samples()
        ) if "store.hit" in registry else 0.0
    out.put({"answers": [int(v) for v in d], "builds": builds, "hits": hits})


class TestSharedTables:
    def test_threads_share_one_table_zero_extra_builds(self, tmp_path):
        """Eight threads resolving the same shard: one BFS build total,
        every resolution returning the identical read-only array."""
        prev_root = store.get_store().root
        store.configure(root=tmp_path / "store")
        try:
            with obs.session() as (registry, _):
                reg = ShardRegistry()
                shard = reg.load(TOPO, scale=SCALE)
                engine = QueryEngine(reg)
                pairs = random_pairs(shard.n, 1024, seed=3)
                expected = engine.distances(TOPO, pairs).tolist()

                results: list[dict] = [{} for _ in range(8)]

                def worker(i: int) -> None:
                    # Each thread resolves its own router through the store
                    # and answers the same batch.
                    router = store.table_router(shard.graph)
                    local = ShardRegistry()
                    local_shard = local.load(TOPO, scale=SCALE)
                    d = QueryEngine(local).distances(TOPO, pairs)
                    results[i] = {
                        "same_table": router.dist is shard.dist
                        and local_shard.dist is shard.dist,
                        "answers": d.tolist(),
                    }

                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

                assert all(r["same_table"] for r in results)
                assert all(r["answers"] == expected for r in results)
                assert registry.get("routing.table.builds").value == 1
        finally:
            store.configure(root=prev_root)

    def test_spawn_workers_zero_builds_identical_answers(self, tmp_path):
        """Two spawn workers against a pre-warmed disk store: zero BFS
        builds each (pure disk hits), answers identical to the parent."""
        root = tmp_path / "store"
        prev_root = store.get_store().root
        store.configure(root=root)
        try:
            reg = ShardRegistry()
            shard = reg.load(TOPO, scale=SCALE)  # warms the disk tier
            pairs = random_pairs(shard.n, 256, seed=4).tolist()
            expected = QueryEngine(reg).distances(TOPO, pairs).tolist()
        finally:
            store.configure(root=prev_root)

        ctx = multiprocessing.get_context("spawn")
        out = ctx.Queue()
        procs = [
            ctx.Process(target=_spawn_worker, args=(str(root), pairs, out))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        reports = [out.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        for rep in reports:
            assert rep["builds"] == 0, "spawn worker rebuilt a shared table"
            assert rep["hits"] >= 1
            assert rep["answers"] == expected


# -- server: in-process protocol ----------------------------------------------


def warm_server(**overrides) -> ServeServer:
    """A warmed server that is not listening: tests drive its handlers on
    their own event loop, turn by turn."""
    server = ServeServer(
        ServerConfig(topologies=(TOPO,), scale=SCALE, port=0, **overrides)
    )
    server.warm()
    return server


def distance_request(pairs) -> dict:
    return {"op": "distance", "topology": TOPO, "pairs": np.asarray(pairs).tolist()}


@pytest.fixture()
def live_server():
    """An in-process server on an ephemeral port, drained at teardown."""
    started: list[tuple[ServeServer, threading.Thread]] = []

    def factory():
        server = warm_server()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        assert server.ready.wait(timeout=30), "server never became ready"
        started.append((server, thread))
        return server

    yield factory
    for server, thread in started:
        try:
            server.request_stop(0)
        except RuntimeError:
            pass
        thread.join(timeout=15)
        assert not thread.is_alive(), "server failed to drain"


class TestServerProtocol:
    def test_batch_round_trip_matches_engine(self, live_server, engine, shard):
        server = live_server()
        pairs = random_pairs(shard.n, 4096, seed=5)
        expected = engine.distances(TOPO, pairs).tolist()
        with ServeClient("127.0.0.1", server.port) as client:
            assert client.ping() == [TOPO]
            assert client.distance(TOPO, pairs) == expected
            paths = client.path(TOPO, pairs[:64])
            assert paths == engine.paths(TOPO, pairs[:64])

    def test_stats_and_latency_histogram(self, live_server, shard):
        server = live_server()
        with ServeClient("127.0.0.1", server.port) as client:
            client.distance(TOPO, random_pairs(shard.n, 128, seed=6))
            stats = client.stats()
        assert stats["topologies"] == [TOPO]
        assert stats["topology_sizes"] == {TOPO: shard.n}
        assert stats["requests"] == 1
        assert stats["latency"]["count"] == 1
        assert stats["latency"]["p99_s"] > 0

    def test_error_codes(self, live_server):
        server = live_server()
        with ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServeError) as e404:
                client.distance("no-such-net", [[0, 1]])
            assert e404.value.code == 404
            with pytest.raises(ServeError) as e400:
                client.distance(TOPO, [[0, 10**9]])
            assert e400.value.code == 400
            # an id beyond int64 -> 400, not a dropped connection
            with pytest.raises(ServeError) as ebig:
                client.distance(TOPO, [[1, 10**30]])
            assert ebig.value.code == 400
            with pytest.raises(ServeError) as eop:
                client.request({"op": "bogus"})
            assert eop.value.code == 400
            # malformed JSON line -> 400, connection stays usable
            client._sock.sendall(b"not json\n")
            resp = json.loads(client._rfile.readline())
            assert resp["ok"] is False and resp["code"] == 400
            assert client.ping() == [TOPO]

    def test_empty_batch(self, live_server):
        server = live_server()
        with ServeClient("127.0.0.1", server.port) as client:
            assert client.distance(TOPO, []) == []

    def test_coalescing_merges_concurrent_requests(self, engine, shard):
        """Requests the loop reads in one turn run as one engine batch, and
        each requester gets the engine's answer for its own pairs."""
        server = warm_server()
        batches = [random_pairs(shard.n, 64, seed=7 + i) for i in range(8)]

        async def scenario():
            return await asyncio.gather(
                *(server._answer(distance_request(p)) for p in batches)
            )

        responses = asyncio.run(scenario())
        assert server.batches == 1
        assert server.requests == len(batches)
        for pairs, resp in zip(batches, responses):
            assert resp["ok"] and resp["epoch"] == 0
            assert resp["result"] == engine.distances(TOPO, pairs).tolist()

    def test_lone_request_answered_without_a_timer(self, engine, shard):
        """A request that arrives alone is answered within a few loop
        turns: its bucket flushes on the next turn, not after a delay."""
        server = warm_server()
        pairs = random_pairs(shard.n, 64, seed=21)

        async def scenario():
            task = asyncio.ensure_future(server._answer(distance_request(pairs)))
            for _ in range(5):
                await asyncio.sleep(0)
            assert task.done(), "a lone request is still waiting"
            return task.result()

        resp = asyncio.run(scenario())
        assert resp["result"] == engine.distances(TOPO, pairs).tolist()

    def test_backpressure_429_is_deterministic(self):
        """With a 4-pair in-flight budget, a 4-pair request admitted in the
        same turn as a 1-pair one forces the second to a 429."""
        server = warm_server(max_inflight=4)
        held_pairs = [[0, 1], [0, 2], [0, 3], [0, 4]]

        async def scenario():
            held = asyncio.ensure_future(server._answer(distance_request(held_pairs)))
            over = asyncio.ensure_future(server._answer(distance_request([[1, 2]])))
            return await held, await over

        held, over = asyncio.run(scenario())
        assert over["ok"] is False and over["code"] == 429
        assert held["ok"] and held["result"] == server.engine.distances(
            TOPO, held_pairs
        ).tolist()
        assert server.rejected == 1

    def test_drain_answers_inflight_before_exit(self, live_server, engine, shard):
        """A drain requested after a request is admitted but before its
        bucket flushes: the client still gets the whole answer."""
        server = live_server()
        pairs = random_pairs(shard.n, 512, seed=8)
        enqueue = server._enqueue

        def drain_then_enqueue(*args, **kwargs):
            server._begin_drain(0)  # on the loop: admitted, not yet flushed
            return enqueue(*args, **kwargs)

        server._enqueue = drain_then_enqueue
        with ServeClient("127.0.0.1", server.port) as client:
            got = client.distance(TOPO, pairs)
        assert server._draining
        assert got == engine.distances(TOPO, pairs).tolist()


# -- server: subprocess lifecycle (signals, cold/warm builds) -----------------


def _serve_cmd(store_dir: Path, metrics_out: Path | None, *extra: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_STORE_DIR"] = str(store_dir)
    cmd = [
        sys.executable, "-m", "repro", "serve", "start",
        "--topology", TOPO, "--scale", SCALE, "--port", "0",
    ]
    if metrics_out is not None:
        cmd += ["--metrics-out", str(metrics_out)]
    cmd += list(extra)
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _builds_from_metrics(path: Path) -> float:
    doc = json.loads(path.read_text())
    fams = {m["name"]: m for m in doc["metrics"]}
    fam = fams.get("routing.table.builds")
    return sum(s["value"] for s in fam["samples"]) if fam else 0.0


class TestServerLifecycle:
    def test_cold_start_one_build_warm_restart_zero(self, tmp_path, engine, shard):
        """Kill-and-restart: cold start does exactly one BFS build, the
        restarted server none — and both answer the 4096-pair acceptance
        batch byte-identically to the offline table."""
        store_dir = tmp_path / "store"
        pairs = random_pairs(shard.n, 4096, seed=9)
        expected = engine.distances(TOPO, pairs).tolist()

        cold_metrics = tmp_path / "cold.json"
        proc = _serve_cmd(store_dir, cold_metrics)
        info = wait_until_ready(proc.stdout)
        with ServeClient("127.0.0.1", info["port"]) as client:
            assert client.distance(TOPO, pairs) == expected
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        assert _builds_from_metrics(cold_metrics) == 1

        warm_metrics = tmp_path / "warm.json"
        proc = _serve_cmd(store_dir, warm_metrics)
        info = wait_until_ready(proc.stdout)
        with ServeClient("127.0.0.1", info["port"]) as client:
            assert client.distance(TOPO, pairs) == expected
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        assert _builds_from_metrics(warm_metrics) == 0

    def test_sigterm_under_inflight_load_drains_clean(self, tmp_path, engine, shard):
        """SIGTERM while a client keeps 4096-pair requests in flight: every
        line the client reads is a complete answer or a 503, and the server
        exits 0."""
        proc = _serve_cmd(tmp_path / "store", None)
        info = wait_until_ready(proc.stdout)
        pairs = random_pairs(shard.n, 4096, seed=10)
        expected = engine.distances(TOPO, pairs).tolist()
        line = (json.dumps(distance_request(pairs)) + "\n").encode()
        answered = threading.Event()
        lines: list[str] = []

        def requester() -> None:
            with ServeClient("127.0.0.1", info["port"]) as client:
                while True:
                    try:
                        client._sock.sendall(line)
                        got = client._rfile.readline()
                    except (BrokenPipeError, ConnectionResetError):
                        return
                    if not got:
                        return
                    lines.append(got)
                    answered.set()

        t = threading.Thread(target=requester, daemon=True)
        t.start()
        assert answered.wait(timeout=60), "no answer before SIGTERM"
        proc.send_signal(signal.SIGTERM)
        t.join(timeout=60)
        assert not t.is_alive()
        assert proc.wait(timeout=60) == 0
        assert lines
        for got in lines:
            assert got.endswith("\n"), "a truncated response line"
            resp = json.loads(got)
            if resp["ok"]:
                assert resp["result"] == expected
            else:
                assert resp["code"] == 503

    def test_sigint_exits_130(self, tmp_path):
        proc = _serve_cmd(tmp_path / "store", None)
        wait_until_ready(proc.stdout)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=60) == 130


# -- client hardening (ISSUE 8 satellites) ------------------------------------


class TestWaitUntilReady:
    def test_wedged_server_times_out_with_partial_output(self):
        """A server that never prints the banner must not hang the caller:
        the deadline fires and the error carries the partial output."""
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys, time; sys.stdout.write('partial'); "
                "sys.stdout.flush(); time.sleep(60)",
            ],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            t0 = time.monotonic()
            with pytest.raises(TimeoutError) as exc:
                wait_until_ready(proc.stdout, timeout=1.0)
            assert time.monotonic() - t0 < 10.0
            assert "partial" in str(exc.value)
        finally:
            proc.kill()
            proc.wait(timeout=30)

    def test_early_exit_is_an_error_not_a_hang(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", "print('no banner here')"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            with pytest.raises(ServeError) as exc:
                wait_until_ready(proc.stdout, timeout=30.0)
            assert exc.value.code == 500
        finally:
            proc.wait(timeout=30)

    def test_fallback_for_streams_without_fileno(self):
        import io

        banner = 'REPRO_SERVE_READY {"port": 7}\n'
        assert wait_until_ready(io.StringIO(banner))["port"] == 7
        with pytest.raises(ServeError):
            wait_until_ready(io.StringIO("nope\n"))


class TestStructuredEngineErrors:
    def test_engine_failure_is_structured_500_not_a_dropped_line(
        self, live_server, shard
    ):
        """A lookup blowing up mid-batch answers every waiter with a 500
        (kind=engine) and leaves the connection usable — the old blanket
        ``except Exception`` silently killed the whole batch."""
        server = live_server()
        original = server.engine.lookup

        def exploding(topology, op, src, dst):
            raise RuntimeError("synthetic table corruption")

        pairs = random_pairs(shard.n, 16, seed=20).tolist()
        with ServeClient("127.0.0.1", server.port) as client:
            server.engine.lookup = exploding
            try:
                with pytest.raises(ServeError) as exc:
                    client.distance(TOPO, pairs)
            finally:
                server.engine.lookup = original
            assert exc.value.code == 500
            assert exc.value.kind == "engine"
            assert "synthetic table corruption" in str(exc.value)
            # same connection still answers
            assert client.distance(TOPO, pairs) == [
                int(v) for v in server.engine.distances(TOPO, pairs)
            ]
            stats = client.stats()
            assert stats["errors"]["engine"] == 1
