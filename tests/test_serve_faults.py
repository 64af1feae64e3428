"""Tests for fault-epoch serving and the client reliability kit (ISSUE 8).

The acceptance bar: served answers under a fault epoch are byte-equal to
offline ``FaultAwareRouter``/``LinkHealth`` routing on the same mask, an
epoch swap never splits an in-flight coalesced batch, expired work is
shed with 504 instead of computed late, and the retrying client rides
out restarts with stable idempotent request ids — all exercised end to
end by the chaos harness smoke test at the bottom.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import store
from repro.faults import FaultAwareRouter, node_failures, permanent_link_failures
from repro.faults.health import UNREACHABLE, LinkHealth
from repro.faults.model import FaultEvent, FaultSchedule
from repro.routing.table import build_distance_table
from repro.serve import (
    BackoffPolicy,
    BreakerOpenError,
    ChaosConfig,
    CircuitBreaker,
    DeadlineExceededError,
    EpochShard,
    FaultEpochManager,
    QueryEngine,
    RetryingClient,
    ServeClient,
    ServeError,
    ServerConfig,
    ServeServer,
    ShardRegistry,
    plan_batch,
    run_chaos,
    wait_until_ready,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TOPO = "PS-IQ"
SCALE = "reduced"
TABLE_UNREACHABLE = np.iinfo(np.int16).max


@pytest.fixture(scope="module")
def registry():
    reg = ShardRegistry()
    reg.load(TOPO, scale=SCALE)
    return reg


@pytest.fixture(scope="module")
def base_shard(registry):
    return registry.base(TOPO)


@pytest.fixture(scope="module")
def sample_events(base_shard):
    g = base_shard.graph
    return list(permanent_link_failures(g, 0.05, seed=3)) + list(
        node_failures(g, 1, seed=4)
    )


def random_pairs(n: int, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(count, 2), dtype=np.int64)


def offline_distances(graph, events, pairs) -> list[int]:
    """The oracle: distances on the LinkHealth-masked healthy subgraph."""
    health = LinkHealth(graph)
    for ev in events:
        health.apply(ev)
    out = []
    for s, d in pairs:
        v = int(health.bfs_from(int(d))[int(s)])
        out.append(-1 if v >= UNREACHABLE else v)
    return out


# -- epoch manager: offline parity --------------------------------------------


class TestEpochShardParity:
    def test_stage_byte_equal_to_healthy_graph_build(
        self, registry, base_shard, sample_events
    ):
        """The parity contract: the staged overlay table is the same BFS
        build FaultAwareRouter's mask implies, byte for byte."""
        manager = FaultEpochManager(registry)
        shard = manager.stage(TOPO, sample_events)
        health = LinkHealth(base_shard.graph)
        for ev in sample_events:
            health.apply(ev)
        expected = build_distance_table(health.healthy_graph())
        assert isinstance(shard, EpochShard)
        assert shard.epoch == 1
        assert shard.dist.tobytes() == expected.tobytes()
        assert shard.links_down == health.links_down_count()
        assert shard.nodes_down == health.nodes_down_count()

    def test_distances_match_fault_aware_router(
        self, registry, base_shard, sample_events
    ):
        """Served distances under the epoch == FaultAwareRouter.distance
        on the same LinkHealth mask (UNREACHABLE mapped to -1)."""
        manager = FaultEpochManager(registry)
        shard = manager.stage(TOPO, sample_events)
        health = LinkHealth(base_shard.graph)
        for ev in sample_events:
            health.apply(ev)
        topo = store.resolve_topology(TOPO, scale=SCALE)
        router = FaultAwareRouter(store.table_router(topo), health)
        pairs = random_pairs(base_shard.n, 512, seed=11)
        src, dst = plan_batch(pairs, base_shard.n)
        got = shard.distances(src, dst)
        for i, (s, d) in enumerate(pairs):
            want = router.distance(int(s), int(d))
            assert got[i] == (-1 if want >= UNREACHABLE else want)

    def test_paths_walk_only_healthy_links(
        self, registry, base_shard, sample_events
    ):
        manager = FaultEpochManager(registry)
        shard = manager.stage(TOPO, sample_events)
        pairs = random_pairs(base_shard.n, 128, seed=12)
        src, dst = plan_batch(pairs, base_shard.n)
        dists = shard.distances(src, dst)
        paths = shard.paths(src, dst)
        g = shard.graph  # the healthy subgraph
        for i, p in enumerate(paths):
            if dists[i] == -1:
                assert p is None
                continue
            assert len(p) == dists[i] + 1
            assert p[0] == src[i] and p[-1] == dst[i]
            for a, b in zip(p, p[1:]):
                assert b in g.neighbors(a)

    def test_bad_event_batch_rejected_before_mutation(
        self, registry, base_shard
    ):
        """Validation is all-or-nothing: one bad event in the batch leaves
        the health mask untouched."""
        manager = FaultEpochManager(registry)
        good = list(permanent_link_failures(base_shard.graph, 0.02, seed=5))
        bad = good + [FaultEvent(0, "link_down", 0, base_shard.n + 7)]
        with pytest.raises(ValueError):
            manager.stage(TOPO, bad)
        assert manager.status()[TOPO]["links_down"] == 0
        assert manager.status()[TOPO]["events_applied"] == 0
        shard = manager.stage(TOPO, good)
        assert shard.epoch == 1

    def test_install_and_clear_swap_the_serving_shard(
        self, registry, base_shard, sample_events
    ):
        manager = FaultEpochManager(registry)
        shard = manager.stage(TOPO, sample_events)
        manager.install(TOPO, shard)
        try:
            assert registry.get(TOPO) is shard
            assert registry.base(TOPO) is base_shard
            status = manager.status()[TOPO]
            assert status["epoch"] == 1 and status["swaps"] == 1
        finally:
            manager.clear(TOPO)
        assert registry.get(TOPO) is base_shard
        status = manager.status()[TOPO]
        assert status["epoch"] == 0 and status["links_down"] == 0
        assert status["swaps"] == 2  # clear counts as a swap

    def test_overlay_for_unloaded_topology_rejected(self, registry):
        manager = FaultEpochManager(registry)
        with pytest.raises(KeyError):
            manager.stage("no-such-net", [])


# -- fault event / schedule JSON round trip -----------------------------------


class TestScheduleJson:
    def test_event_round_trip(self):
        for ev in (
            FaultEvent(0, "link_down", 1, 2),
            FaultEvent(3, "node_down", 7),
            FaultEvent(1, "link_degrade", 4, 5, factor=2.5),
        ):
            assert FaultEvent.from_jsonable(ev.to_jsonable()) == ev

    def test_schedule_round_trip(self, base_shard):
        sched = permanent_link_failures(base_shard.graph, 0.05, seed=1)
        back = FaultSchedule.from_jsonable(
            sched.to_jsonable(), graph=base_shard.graph
        )
        assert back == sched

    def test_rejects_malformed_objects(self):
        with pytest.raises(ValueError):
            FaultEvent.from_jsonable(["not", "a", "dict"])
        with pytest.raises(ValueError):
            FaultEvent.from_jsonable({"kind": "link_down", "u": 0})  # no time? ok
        with pytest.raises(ValueError):
            FaultEvent.from_jsonable(
                {"time": 0, "kind": "link_down", "u": 0, "v": 1, "bogus": 2}
            )
        with pytest.raises(ValueError):
            FaultSchedule.from_jsonable({"events": []})


# -- served epochs: protocol, parity, atomicity -------------------------------


@pytest.fixture()
def live_server():
    """An in-process server on an ephemeral port, drained at teardown."""
    started: list[tuple[ServeServer, threading.Thread]] = []

    def factory():
        server = ServeServer(ServerConfig(topologies=(TOPO,), scale=SCALE, port=0))
        server.warm()
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


class TestServedEpochs:
    def test_apply_query_clear_matches_oracle(
        self, live_server, base_shard, sample_events
    ):
        server = live_server()
        pairs = random_pairs(base_shard.n, 1024, seed=13)
        with ServeClient("127.0.0.1", server.port) as client:
            before = client.query("distance", TOPO, pairs)
            assert before["epoch"] == 0
            resp = client.apply_faults(TOPO, sample_events)
            assert resp["epoch"] == 1 and resp["links_down"] > 0
            after = client.query("distance", TOPO, pairs)
            assert after["epoch"] == 1
            assert after["result"] == offline_distances(
                base_shard.graph, sample_events, pairs
            )
            status = client.fault_status()
            assert status[TOPO]["epoch"] == 1
            cleared = client.clear_faults(TOPO)
            assert cleared["epoch"] == 0
            again = client.query("distance", TOPO, pairs)
            assert again["epoch"] == 0
            assert again["result"] == before["result"]

    def test_epoch_survives_in_stats(
        self, live_server, sample_events
    ):
        server = live_server()
        with ServeClient("127.0.0.1", server.port) as client:
            client.apply_faults(TOPO, sample_events, label=7)
            stats = client.stats()
            assert stats["faults"][TOPO]["epoch"] == 7
            assert stats["faults"][TOPO]["swaps"] == 1

    def test_strict_unreachable_is_404_route_unavailable(
        self, live_server, base_shard
    ):
        """Downing one router makes every pair into it unreachable; strict
        queries surface that as the 404 variant instead of -1."""
        server = live_server()
        victim = 5
        with ServeClient("127.0.0.1", server.port) as client:
            client.apply_faults(TOPO, [FaultEvent(0, "node_down", victim)])
            # non-strict: -1 sentinel, normal response
            lax = client.query("distance", TOPO, [[0, victim]])
            assert lax["result"] == [-1] and lax["epoch"] == 1
            with pytest.raises(ServeError) as exc:
                client.query("distance", TOPO, [[0, victim]], strict=True)
            assert exc.value.code == 404
            assert exc.value.kind == "route_unavailable"
            stats = client.stats()
            assert stats["errors"]["route_unavailable"] == 1

    def test_bad_admin_requests_are_400(self, live_server):
        server = live_server()
        with ServeClient("127.0.0.1", server.port) as client:
            for req in (
                {"op": "faults", "action": "apply", "topology": TOPO},
                {"op": "faults", "action": "apply", "topology": TOPO,
                 "events": [], "label": 0},
                {"op": "faults", "action": "apply", "topology": TOPO,
                 "events": [{"kind": "nope", "u": 0, "time": 0}]},
                {"op": "faults", "action": "bogus", "topology": TOPO},
            ):
                with pytest.raises(ServeError) as exc:
                    client.request(req)
                assert exc.value.code == 400
            with pytest.raises(ServeError) as exc404:
                client.request(
                    {"op": "faults", "action": "clear", "topology": "nope"}
                )
            assert exc404.value.code == 404
            # events referencing links the graph lacks: validated batch-wise
            with pytest.raises(ServeError) as excbad:
                client.apply_faults(
                    TOPO, [FaultEvent(0, "link_down", 0, 10**6)]
                )
            assert excbad.value.code == 400
            assert client.fault_status()[TOPO]["epoch"] == 0

    def test_non_finite_degrade_factor_is_400(self, live_server, base_shard):
        """The JSON literals NaN and Infinity reach the server as factors;
        they are refused with 400 and leave the epoch where it was."""
        server = live_server()
        u, v = map(int, base_shard.graph.edge_array[0])
        with ServeClient("127.0.0.1", server.port) as client:
            for factor in (float("nan"), float("inf")):
                with pytest.raises(ServeError) as exc:
                    client.request({
                        "op": "faults", "action": "apply", "topology": TOPO,
                        "events": [{"time": 0, "kind": "link_degrade",
                                    "u": u, "v": v, "factor": factor}],
                    })
                assert exc.value.code == 400 and "factor" in str(exc.value)
            assert client.fault_status()[TOPO]["epoch"] == 0

    def test_swap_never_splits_an_inflight_batch(
        self, base_shard, sample_events
    ):
        """A 4096-pair query admitted in the same loop turn as an epoch's
        flush-and-install answers entirely against the old epoch, and
        carries its label; the next query answers the new epoch."""
        server = ServeServer(ServerConfig(topologies=(TOPO,), scale=SCALE, port=0))
        server.warm()
        pairs = random_pairs(base_shard.n, 4096, seed=14)
        pristine = offline_distances(base_shard.graph, [], pairs)
        degraded = offline_distances(base_shard.graph, sample_events, pairs)
        shard = server.epochs.stage(TOPO, sample_events)
        req = {"op": "distance", "topology": TOPO, "pairs": pairs.tolist()}

        async def scenario():
            raced = asyncio.ensure_future(server._answer(req))
            await asyncio.sleep(0)
            assert server._inflight == len(pairs), "query not admitted yet"
            server._install_epoch(TOPO, shard)
            return await raced, await server._answer(req)

        raced, after = asyncio.run(scenario())
        # all-or-nothing: the raced batch is answered by exactly one epoch
        assert raced["epoch"] == 0
        assert raced["result"] == pristine
        assert after["epoch"] == 1
        assert after["result"] == degraded

    def test_expired_deadline_is_504_at_admission(self, live_server):
        server = live_server()
        with ServeClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServeError) as exc:
                client.query("distance", TOPO, [[0, 1]], deadline_ms=0)
            assert exc.value.code == 504
            assert exc.value.kind == "deadline"
            stats = client.stats()
            assert stats["errors"]["deadline"] == 1

    def test_bad_deadline_rejected(self, live_server):
        server = live_server()
        with ServeClient("127.0.0.1", server.port) as client:
            for bad in (-1, "soon", True):
                with pytest.raises(ServeError) as exc:
                    client.request({
                        "op": "distance", "topology": TOPO,
                        "pairs": [[0, 1]], "deadline_ms": bad,
                    })
                assert exc.value.code == 400

    def test_flush_sheds_expired_waiters(self, base_shard):
        """The loop-stall path: a waiter whose deadline passed while held
        in the window is shed with DeadlineExceededError, never computed."""
        cfg = ServerConfig(topologies=(TOPO,), scale=SCALE, port=0)
        server = ServeServer(cfg)
        server.warm()

        async def scenario():
            loop = asyncio.get_running_loop()
            src, dst = plan_batch([[0, 1]], base_shard.n)
            expired = asyncio.ensure_future(
                server._enqueue(TOPO, "distance", src, dst, loop.time() - 0.01)
            )
            alive = asyncio.ensure_future(
                server._enqueue(TOPO, "distance", src, dst, None)
            )
            await asyncio.sleep(0)
            server._flush((TOPO, "distance"))
            with pytest.raises(DeadlineExceededError):
                await expired
            result, epoch = await alive
            assert epoch == 0 and len(result) == 1

        asyncio.run(scenario())


# -- schedule-file startup ----------------------------------------------------


class TestScheduleFileStartup:
    def test_server_comes_up_degraded(self, tmp_path, base_shard):
        """repro faults schedule -> repro serve start --fault-schedule: the
        server answers epoch 1 from its very first query."""
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_STORE_DIR"] = str(store_dir)
        sched_path = tmp_path / "sched.json"
        gen = subprocess.run(
            [
                sys.executable, "-m", "repro", "faults", "schedule",
                "--topology", TOPO, "--scale", SCALE,
                "--fail-links", "0.05", "--fail-nodes", "1",
                "--seed", "3", "--out", str(sched_path),
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert gen.returncode == 0, gen.stderr
        doc = json.loads(sched_path.read_text())
        events = [FaultEvent.from_jsonable(o) for o in doc["events"]]
        assert events and doc["label"] == 1

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "start",
                "--topology", TOPO, "--scale", SCALE, "--port", "0",
                "--fault-schedule", str(sched_path),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            info = wait_until_ready(proc.stdout, timeout=300)
            pairs = random_pairs(base_shard.n, 256, seed=15)
            with ServeClient("127.0.0.1", info["port"]) as client:
                resp = client.query("distance", TOPO, pairs)
                assert resp["epoch"] == 1
                assert resp["result"] == offline_distances(
                    base_shard.graph, events, pairs
                )
                assert client.fault_status()[TOPO]["epoch"] == 1
        finally:
            proc.terminate()
            proc.wait(timeout=30)


# -- reliability kit ----------------------------------------------------------


class _ScriptedConn:
    """A fake ServeClient: pops one scripted action per request."""

    def __init__(self, script: list, log: list) -> None:
        self.script = script
        self.log = log

    def request(self, req: dict) -> dict:
        self.log.append(dict(req))
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action

    def close(self) -> None:
        pass


class _Harness:
    """RetryingClient wired to a scripted connection, fake clock, recorded
    sleeps (sleeping advances the clock)."""

    def __init__(self, script: list, **kw) -> None:
        self.script = script
        self.log: list[dict] = []
        self.sleeps: list[float] = []
        self.now = 0.0
        self.dials = 0

        def dial():
            self.dials += 1
            return _ScriptedConn(self.script, self.log)

        def sleep(s: float) -> None:
            self.sleeps.append(s)
            self.now += s

        kw.setdefault("breaker", CircuitBreaker(clock=lambda: self.now))
        self.client = RetryingClient(
            "test", 0, dial=dial, sleep=sleep, clock=lambda: self.now, **kw
        )


class TestRetryingClient:
    def test_retries_transient_codes_then_succeeds(self):
        ok = {"ok": True, "result": [1], "epoch": 0}
        h = _Harness([ServeError(429, "busy"), ServeError(504, "late"), ok])
        assert h.client.request({"op": "distance"}) == ok
        assert h.client.retries == {"code_429": 1, "code_504": 1}
        assert len(h.sleeps) == 2

    def test_disconnect_redials_with_same_request_id(self):
        ok = {"ok": True, "result": [2], "epoch": 0}
        h = _Harness([ConnectionError("gone"), ok])
        assert h.client.request({"op": "distance"}) == ok
        assert h.dials == 2
        assert h.client.reconnects == 1
        ids = [r["id"] for r in h.log]
        assert len(ids) == 2 and len(set(ids)) == 1, (
            "resend must reuse the idempotent id"
        )
        # the next logical request gets a fresh id
        h.script.append(ok)
        h.client.request({"op": "distance"})
        assert h.log[-1]["id"] != ids[0]

    def test_503_drops_the_drained_connection(self):
        ok = {"ok": True, "result": [], "epoch": 0}
        h = _Harness([ServeError(503, "draining"), ok])
        h.client.request({"op": "distance"})
        assert h.dials == 2  # the draining server's socket was abandoned

    def test_non_retryable_raises_immediately(self):
        h = _Harness([ServeError(400, "bad pairs")])
        with pytest.raises(ServeError) as exc:
            h.client.request({"op": "distance"})
        assert exc.value.code == 400
        assert h.client.retries == {}
        assert h.sleeps == []

    def test_attempt_budget_exhaustion_raises_last_error(self):
        h = _Harness(
            [ServeError(500, f"boom {i}") for i in range(3)],
            max_attempts=3,
        )
        with pytest.raises(ServeError) as exc:
            h.client.request({"op": "distance"})
        assert "boom 2" in str(exc.value)
        assert len(h.sleeps) == 2  # no sleep after the final attempt

    def test_deadline_budget_stops_retrying(self):
        h = _Harness(
            [ServeError(500, "boom")] * 100,
            max_attempts=100,
            deadline_s=0.5,
            policy=BackoffPolicy(base=0.2, cap=0.2, jitter=0.0),
        )
        with pytest.raises(ServeError):
            h.client.request({"op": "distance"})
        assert h.now <= 0.5

    def test_breaker_opens_and_fail_fast_raises(self):
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after=10.0, clock=lambda: clock[0]
        )
        clock = [0.0]
        h = _Harness(
            [ServeError(500, "boom")] * 2,
            max_attempts=2,
            fail_fast=True,
            breaker=breaker,
        )
        with pytest.raises(ServeError):
            h.client.request({"op": "distance"})
        assert breaker.state == "open" and breaker.opens == 1
        with pytest.raises(BreakerOpenError):
            h.client.request({"op": "ping"})
        # cooldown elapses -> half-open probe -> success closes it
        clock[0] = 11.0
        h.script.append({"ok": True, "topologies": [TOPO]})
        h.client.request({"op": "ping"})
        assert breaker.state == "closed"

    def test_patient_client_sleeps_out_the_breaker(self):
        h = _Harness(
            [ServeError(500, "a"), ServeError(500, "b"),
             {"ok": True, "result": [], "epoch": 0}],
            max_attempts=10,
            breaker=None,  # replaced below with a fake-clock breaker
        )
        # rebuild with a tight breaker on the harness clock
        h.client.breaker = CircuitBreaker(
            failure_threshold=2, reset_after=0.3, clock=lambda: h.now
        )
        h.client.request({"op": "distance"})
        assert h.client.retries.get("breaker_open", 0) >= 1
        assert h.client.breaker.state == "closed"

    def test_backoff_is_seeded_and_deterministic(self):
        def timeline(seed):
            h = _Harness(
                [ServeError(500, "x")] * 4
                + [{"ok": True, "result": [], "epoch": 0}],
                max_attempts=10,
                seed=seed,
            )
            h.client.request({"op": "distance"})
            return h.sleeps

        assert timeline(7) == timeline(7)
        assert timeline(7) != timeline(8)

    def test_backoff_policy_validates_and_caps(self):
        rng = np.random.default_rng(0)
        policy = BackoffPolicy(base=0.1, cap=0.4, multiplier=2.0, jitter=0.0)
        assert policy.delay(0, rng) == pytest.approx(0.1)
        assert policy.delay(10, rng) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)

    def test_against_live_server(self, live_server, base_shard):
        server = live_server()
        pairs = random_pairs(base_shard.n, 256, seed=16)
        with RetryingClient("127.0.0.1", server.port, seed=1) as client:
            got = client.distance(TOPO, pairs, deadline_ms=5000.0)
            assert got == offline_distances(base_shard.graph, [], pairs)
            assert client.ping() == [TOPO]


# -- chaos harness smoke ------------------------------------------------------


class TestChaosSmoke:
    def test_small_chaos_run_passes(self):
        """One epoch swap + one SIGKILL/restart against a live burst: every
        answer matches the offline oracle and the burst completes."""
        doc = run_chaos(
            ChaosConfig(
                topology=TOPO,
                scale=SCALE,
                batches=12,
                batch_size=32,
                pool_size=128,
                epochs=1,
                kills=1,
                seed=0,
            )
        )
        assert doc["ok"], doc
        assert doc["wrong_answers"] == 0
        assert doc["batches_completed"] == 12
        assert doc["kills"] == 1 and doc["epoch_applies"] == 1
        assert doc["answers"] == 12 * 32
        assert sum(doc["answers_by_epoch"].values()) == doc["answers"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(batches=2, epochs=2, kills=1)
