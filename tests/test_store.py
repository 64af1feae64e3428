"""Tests for the content-addressed artifact store (repro.store).

Covers the key scheme (cross-process stability, canonicalization, schema
invalidation), both cache tiers (identity-preserving memory LRU, on-disk
npz/JSON round trips), corrupted-entry recovery, the builder registry, the
provider's parity with direct construction, and the headline contract:
cold and warm runs produce byte-identical results while warm runs skip
every BFS distance-table build.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs, store
from repro.graphs.base import Graph
from repro.routing.table import TableRouter, build_distance_table
from repro.store import codecs
from repro.store.core import ArtifactStore
from repro.store.keys import SCHEMA_VERSION, ArtifactKey, canonical_params, graph_digest
from repro.store.registry import register_topology, resolve_builder
from repro.topologies.table3 import build_reduced_topology

REPO_ROOT = Path(__file__).resolve().parent.parent


def small_graph(name: str = "g") -> Graph:
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], name=name)


# -- keys ---------------------------------------------------------------------


class TestArtifactKey:
    def test_digest_stable_across_processes(self, tmp_path):
        """The content address must not depend on process state (hash seed)."""
        snippet = (
            "from repro.store.keys import ArtifactKey; "
            "print(ArtifactKey('topology','dragonfly',"
            "{'a':4,'h':2,'p':2}).digest)"
        )
        digests = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            env["PYTHONHASHSEED"] = hashseed
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert digests == {ArtifactKey("topology", "dragonfly", {"a": 4, "h": 2, "p": 2}).digest}

    def test_param_order_and_tuple_list_do_not_matter(self):
        a = ArtifactKey("t", "b", {"x": 1, "dims": (3, 4)})
        b = ArtifactKey("t", "b", {"dims": [3, 4], "x": 1})
        assert a.digest == b.digest

    def test_schema_version_changes_digest(self):
        a = ArtifactKey("t", "b", {"x": 1})
        b = ArtifactKey("t", "b", {"x": 1}, schema=SCHEMA_VERSION + 1)
        assert a.digest != b.digest

    def test_numpy_scalars_canonicalized(self):
        a = ArtifactKey("t", "b", {"x": np.int64(7)})
        b = ArtifactKey("t", "b", {"x": 7})
        assert a.digest == b.digest

    def test_non_finite_and_rich_params_rejected(self):
        with pytest.raises(TypeError):
            canonical_params({"x": float("nan")})
        with pytest.raises(TypeError):
            canonical_params({"x": object()})

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError):
            ArtifactKey("", "b")


class TestGraphDigest:
    def test_same_labeled_graph_same_digest(self):
        g1 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        g2 = Graph(4, [(2, 3), (1, 0), (2, 1)])  # same edges, scrambled
        assert graph_digest(g1) == graph_digest(g2)

    def test_relabeling_changes_digest(self):
        g = small_graph()
        perm = np.array([1, 0, 2, 3, 4])
        assert graph_digest(g) != graph_digest(g.relabeled(perm))

    def test_self_loops_matter(self):
        g1 = Graph(3, [(0, 1)], self_loops=[2])
        g2 = Graph(3, [(0, 1)])
        assert graph_digest(g1) != graph_digest(g2)


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_reregistering_same_fn_is_idempotent(self):
        fn = resolve_builder("dragonfly")
        assert register_topology("dragonfly", fn) is fn

    def test_name_clash_with_different_fn_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_topology("dragonfly", lambda: None)

    def test_unknown_builder_lists_options(self):
        with pytest.raises(KeyError, match="dragonfly"):
            resolve_builder("no-such-builder")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            register_topology("bad name!", lambda: None)


# -- store tiers --------------------------------------------------------------


class TestMemoryTier:
    def test_identity_preserved_and_builder_called_once(self):
        s = ArtifactStore(root=None)
        key = ArtifactKey("json", "unit", {"x": 1})
        calls = []

        def build():
            calls.append(1)
            return {"v": 42}

        first = s.get_or_build(key, build, codecs.JSON_VALUE)
        second = s.get_or_build(key, build, codecs.JSON_VALUE)
        assert first is second
        assert len(calls) == 1

    def test_lru_eviction(self):
        s = ArtifactStore(root=None, memory_items=2)
        keys = [ArtifactKey("json", "unit", {"x": i}) for i in range(3)]
        calls = []

        def build(i):
            return lambda: calls.append(i) or {"v": i}

        for i, k in enumerate(keys):
            s.get_or_build(k, build(i), codecs.JSON_VALUE)
        # keys[0] was evicted by keys[2]; rebuilding it calls the builder.
        s.get_or_build(keys[0], build(0), codecs.JSON_VALUE)
        assert calls == [0, 1, 2, 0]


class TestDiskTier:
    def test_array_round_trip_preserves_dtype(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        key = ArtifactKey("dist_table", "unit", {"g": "x"})
        arr = np.arange(12, dtype=np.int16).reshape(3, 4)
        s.get_or_build(key, lambda: arr, codecs.ARRAY)
        s.clear_memory()
        back = s.get_or_build(key, lambda: pytest.fail("should hit disk"), codecs.ARRAY)
        assert back.dtype == np.int16
        assert np.array_equal(back, arr)

    def test_topology_round_trip(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        topo = build_reduced_topology("DF")
        key = ArtifactKey("topology", "unit", {"name": "DF"})
        s.get_or_build(key, lambda: topo, codecs.TOPOLOGY)
        s.clear_memory()
        back = s.get_or_build(
            key, lambda: pytest.fail("should hit disk"), codecs.TOPOLOGY
        )
        assert back.graph == topo.graph
        assert back.name == topo.name
        assert back.meta == topo.meta
        assert np.array_equal(back.endpoint_router, topo.endpoint_router)
        assert np.array_equal(back.groups, topo.groups)

    def test_bisection_and_json_round_trip(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        side = np.array([0, 1, 0, 1], dtype=np.int8)
        s.get_or_build(
            ArtifactKey("bisection", "unit", {}), lambda: (3, side), codecs.BISECTION
        )
        s.get_or_build(
            ArtifactKey("json", "unit", {}), lambda: {"d": 3.0}, codecs.JSON_VALUE
        )
        s.clear_memory()
        cut, back_side = s.get_or_build(
            ArtifactKey("bisection", "unit", {}),
            lambda: pytest.fail("miss"),
            codecs.BISECTION,
        )
        assert cut == 3 and np.array_equal(back_side, side)
        val = s.get_or_build(
            ArtifactKey("json", "unit", {}), lambda: pytest.fail("miss"), codecs.JSON_VALUE
        )
        assert val == {"d": 3.0}

    def test_schema_bump_misses_old_entry(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        old = ArtifactKey("json", "unit", {"x": 1})
        s.get_or_build(old, lambda: {"v": 1}, codecs.JSON_VALUE)
        s.clear_memory()
        new = ArtifactKey("json", "unit", {"x": 1}, schema=SCHEMA_VERSION + 1)
        rebuilt = s.get_or_build(new, lambda: {"v": 2}, codecs.JSON_VALUE)
        assert rebuilt == {"v": 2}

    def test_non_encodable_value_stays_memory_only(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        topo = build_reduced_topology("PS-IQ")  # meta carries a StarProduct
        assert not codecs.TOPOLOGY.can_encode(topo)
        key = ArtifactKey("topology", "unit", {"name": "PS-IQ"})
        s.get_or_build(key, lambda: topo, codecs.TOPOLOGY)
        assert key.digest not in [e.digest for e in s.entries()]
        # ... but the memory tier still serves it by identity.
        assert s.get_or_build(key, lambda: pytest.fail("miss"), codecs.TOPOLOGY) is topo

    def test_corrupt_data_file_recovers_by_rebuild(self, tmp_path, caplog):
        s = ArtifactStore(root=tmp_path)
        key = ArtifactKey("dist_table", "unit", {"g": "y"})
        arr = np.ones((4, 4), dtype=np.int16)
        s.get_or_build(key, lambda: arr, codecs.ARRAY)
        (tmp_path / f"{key.digest}.npz").write_bytes(b"not a zip file")
        s.clear_memory()
        with caplog.at_level("WARNING", logger="repro.store.core"):
            back = s.get_or_build(key, lambda: arr * 2, codecs.ARRAY)
        assert np.array_equal(back, arr * 2)
        assert any("corrupt" in r.message for r in caplog.records)

    def test_corrupt_sidecar_recovers_by_rebuild(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        key = ArtifactKey("json", "unit", {"x": 9})
        s.get_or_build(key, lambda: {"v": 9}, codecs.JSON_VALUE)
        (tmp_path / f"{key.digest}.json").write_text("{ truncated")
        s.clear_memory()
        assert s.get_or_build(key, lambda: {"v": 9}, codecs.JSON_VALUE) == {"v": 9}

    def test_gc_removes_broken_keeps_complete(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        good = ArtifactKey("json", "unit", {"x": 1})
        bad = ArtifactKey("dist_table", "unit", {"g": "z"})
        s.get_or_build(good, lambda: {"v": 1}, codecs.JSON_VALUE)
        s.get_or_build(bad, lambda: np.ones(3, dtype=np.int16), codecs.ARRAY)
        (tmp_path / f"{bad.digest}.npz").unlink()  # sidecar promises arrays
        report = s.gc()
        assert report["removed"] == [bad.digest]
        assert report["kept"] == [good.digest]

    def test_gc_max_bytes_evicts_lru_and_dry_run_keeps(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        for i in range(3):
            key = ArtifactKey("dist_table", "unit", {"g": i})
            s.get_or_build(key, lambda: np.ones((64, 64), dtype=np.int16), codecs.ARRAY)
            # stagger mtimes so LRU order is well defined
            for p in s._paths(key.digest):
                os.utime(p, (1000 + i, 1000 + i))
        dry = s.gc(max_bytes=s.entries()[0].size_bytes * 2, dry_run=True)
        assert len(dry["removed"]) == 1 and dry["dry_run"]
        assert len(s.entries()) == 3  # dry run deleted nothing
        report = s.gc(max_bytes=s.entries()[0].size_bytes * 2)
        assert len(report["removed"]) == 1
        assert len(s.entries()) == 2

    def test_gc_clear_removes_everything(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        s.get_or_build(ArtifactKey("json", "unit", {}), lambda: 1, codecs.JSON_VALUE)
        s.gc(clear=True)
        assert s.entries() == []

    def test_hit_miss_metrics(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        key = ArtifactKey("json", "unit", {"m": 1})
        with obs.session() as (reg, _):
            s.get_or_build(key, lambda: 1, codecs.JSON_VALUE)  # miss
            s.get_or_build(key, lambda: 1, codecs.JSON_VALUE)  # memory hit
            s.clear_memory()
            s.get_or_build(key, lambda: 1, codecs.JSON_VALUE)  # disk hit
            fams = {m["name"]: m for m in reg.collect()}
        hits = {
            s_["labels"]["tier"]: s_["value"] for s_ in fams["store.hit"]["samples"]
        }
        assert hits == {"memory": 1.0, "disk": 1.0}
        assert fams["store.miss"]["samples"][0]["value"] == 1.0
        assert any(s_["value"] > 0 for s_ in fams["store.bytes"]["samples"])

    def test_resolved_log_records_first_touch_tier(self, tmp_path):
        s = ArtifactStore(root=tmp_path)
        key = ArtifactKey("json", "unit", {"r": 1})
        s.get_or_build(key, lambda: 1, codecs.JSON_VALUE)
        s.get_or_build(key, lambda: 1, codecs.JSON_VALUE)
        log = s.resolved()
        assert len(log) == 1
        assert log[0]["tier"] == "build"
        assert log[0]["digest"] == key.digest


# -- provider -----------------------------------------------------------------


class TestProvider:
    def test_topology_parity_with_direct_build(self):
        via_store = store.table3_topology("DF", scale="reduced")
        direct = build_reduced_topology("DF")
        assert via_store.graph == direct.graph
        assert via_store.meta == direct.meta

    def test_table_router_parity_and_shared_table(self):
        topo = store.table3_topology("DF", scale="reduced")
        cached = store.table_router(topo)
        direct = TableRouter(topo.graph)
        assert np.array_equal(cached.dist, direct.dist)
        for s_, d_ in [(0, 5), (3, 11), (7, 7)]:
            assert cached.next_hops(s_, d_) == list(direct.next_hops(s_, d_))
        # two routers over the same graph share one table object
        again = store.table_router(topo)
        assert again.dist is cached.dist

    def test_distance_table_shared_across_equal_graphs(self):
        g1 = small_graph("a")
        g2 = small_graph("b")  # same structure, different label
        assert store.distance_table(g1) is store.distance_table(g2)

    def test_distance_table_matches_direct_build(self):
        g = small_graph()
        assert np.array_equal(store.distance_table(g), build_distance_table(g))

    def test_paper_router_identity_cached(self):
        r1, m1 = store.table3_router("DF", scale="reduced")
        r2, m2 = store.table3_router("DF", scale="reduced")
        assert r1 is r2 and m1 == m2 == "single"

    def test_ps_router_is_analytic(self):
        router, mode = store.table3_router("PS-IQ", scale="reduced")
        assert type(router).__name__ == "PolarStarRouter"
        assert mode == "single"

    def test_bisection_and_summaries_cached(self):
        g = small_graph()
        cut, side = store.min_bisection(g, restarts=1, seed=0)
        cut2, side2 = store.min_bisection(g, restarts=1, seed=0)
        assert cut == cut2 and side is side2
        assert store.bisection_fraction(g, restarts=1, seed=0) == cut / g.m
        assert store.diameter(g) == 2.0
        assert store.average_path_length(g) == pytest.approx(1.5)
        dist = store.distance_distribution(g)
        assert dist.dtype == np.float64

    def test_unknown_builder_and_bad_scale(self):
        with pytest.raises(KeyError):
            store.topology("no-such-thing")
        with pytest.raises(ValueError):
            store.table3_topology("DF", scale="tiny")

    def test_warm_run_does_zero_bfs_builds(self, tmp_path):
        """The tentpole contract: a second process re-running the same
        driver serves every distance table from disk — zero BFS builds."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_STORE_DIR"] = str(tmp_path / "store")

        def run(out):
            return subprocess.run(
                [
                    sys.executable, "-m", "repro", "store", "warm",
                    "--topo", "DF", "--scale", "reduced", "--dist",
                    "--metrics-out", out,
                ],
                capture_output=True,
                text=True,
                env=env,
                cwd=tmp_path,
                check=True,
            )

        run(str(tmp_path / "cold.json"))
        run(str(tmp_path / "warm.json"))

        def totals(path):
            data = json.loads(Path(path).read_text())
            fams = {m["name"]: m for m in data["metrics"]}

            def total(name):
                fam = fams.get(name)
                return sum(s["value"] for s in fam["samples"]) if fam else 0

            return total("store.hit"), total("store.miss"), total(
                "routing.table.builds"
            ), data["manifest"]["artifacts"]

        hit, miss, builds, artifacts = totals(tmp_path / "cold.json")
        assert builds == 1 and miss == 2 and hit == 0
        hit, miss, builds, artifacts = totals(tmp_path / "warm.json")
        assert builds == 0 and miss == 0 and hit == 2
        assert {a["tier"] for a in artifacts} == {"disk"}

    def test_cold_and_warm_output_byte_identical(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_STORE_DIR"] = str(tmp_path / "store")
        cmd = [
            sys.executable, "-m", "repro", "topology", "df",
            "--a", "4", "--h", "2", "--p", "2",
        ]
        runs = [
            subprocess.run(
                cmd, capture_output=True, text=True, env=env, cwd=tmp_path, check=True
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert "DF" in runs[0].stdout


# -- faults bypass ------------------------------------------------------------


class TestFaultsBypass:
    def test_fault_epoch_distances_do_not_touch_the_store(self, tmp_path):
        """FaultAwareRouter's degraded-graph vectors are epoch-keyed and
        never content-addressed (docs/ARCHITECTURE.md invalidation
        contract): injecting a fault and routing around it must not create
        or resolve store artifacts."""
        from repro.faults.health import LinkHealth
        from repro.faults.model import FaultEvent
        from repro.faults.router import FaultAwareRouter

        topo = store.table3_topology("DF", scale="reduced")
        inner = store.table_router(topo)
        ambient = store.get_store()
        before = len(ambient.resolved())
        health = LinkHealth(topo.graph)
        router = FaultAwareRouter(inner, health)
        u, v = map(int, topo.graph.edge_array[0])
        health.apply(FaultEvent(time=0, kind="link_down", u=u, v=v))
        router.sync()
        dest = (u + 3) % topo.graph.n
        assert list(router.next_hops(u, dest))
        assert len(ambient.resolved()) == before


# -- concurrent writers -------------------------------------------------------


_HAMMER_SCRIPT = """
import sys

import numpy as np

from repro.store import codecs
from repro.store.core import ArtifactStore
from repro.store.keys import ArtifactKey

root, rank = sys.argv[1], int(sys.argv[2])
key = ArtifactKey("dist_table", "stress", {"case": "hammer"})
value = np.arange(5000, dtype=np.int32).reshape(50, 100)
for i in range(30):
    s = ArtifactStore(root=root)  # fresh store: no memory-tier shortcuts
    out = s.get_or_build(key, lambda: value.copy(), codecs.ARRAY)
    assert np.array_equal(out, value), "torn or corrupt read"
    if rank == 0 and i % 5 == 0:
        # Periodically yank the entry so writers keep racing deleters and
        # each other instead of settling into read-only steady state.
        s._delete_entry(key.digest)
print("ok")
"""


class TestConcurrentWriters:
    def test_multiprocess_hammer_on_one_key(self, tmp_path):
        """N processes building/reading/deleting one key concurrently never
        observe a torn entry (the O_EXCL temp + atomic rename contract) and
        leave behind a valid store with no stray temp files."""
        root = tmp_path / "shared-store"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_STORE_DISABLE", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _HAMMER_SCRIPT, str(root), str(rank)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for rank in range(6)
        ]
        for p in procs:
            out, err = p.communicate(timeout=180)
            assert p.returncode == 0, f"hammer process failed:\n{err}"
            assert out.strip() == "ok"
        # The surviving store is complete and loadable by a fresh process.
        s = ArtifactStore(root=root)
        key = ArtifactKey("dist_table", "stress", {"case": "hammer"})
        value = s.get_or_build(
            key, lambda: pytest.fail("final state should be on disk"), codecs.ARRAY
        )
        assert np.array_equal(
            value, np.arange(5000, dtype=np.int32).reshape(50, 100)
        )
        assert not list(root.glob(".tmp-*")), "stray temp files left behind"

    def test_complete_entry_skips_redundant_rewrite(self, tmp_path):
        """First writer wins: once the sidecar exists, _disk_store is a
        no-op, so N workers warming one artifact do not thrash the disk."""
        s = ArtifactStore(root=tmp_path)
        key = ArtifactKey("dist_table", "unit", {"g": "skip"})
        arr = np.arange(6, dtype=np.int64)
        s.get_or_build(key, lambda: arr, codecs.ARRAY)
        meta_path = tmp_path / (key.digest + ".json")
        data_path = tmp_path / (key.digest + ".npz")
        before = (meta_path.stat().st_mtime_ns, data_path.stat().st_mtime_ns)
        s._disk_store(key, arr, codecs.ARRAY)  # concurrent-writer replay
        after = (meta_path.stat().st_mtime_ns, data_path.stat().st_mtime_ns)
        assert before == after
