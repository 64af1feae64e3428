"""Tests for the deterministic I/O fault-injection seam (repro.faults.io).

Covers the fault model (matching, validation, scripted and seeded
policies — same seed, same byte-identical fault timeline), the
``FaultyIo`` durable-state shadow (what a sync / flush / torn power cut
leaves on media), the atomic-write protocol the store and journal follow
through the seam, graceful degradation under injected EIO/ENOSPC (store
drops to memory-only, the supervisor finishes the run with
``journal_degraded``), journal recovery from torn tails and mid-file
corruption, stray-temp-file reaping in ``gc``, and the crash-point
explorer itself (``repro faults crashpoints``): every enumerated crash
point recovers with zero invariant violations, deterministically.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.faults.io import (
    DiskIo,
    FaultyIo,
    IoFault,
    IoOp,
    ScriptedPolicy,
    SeededPolicy,
    SimulatedCrash,
)
from repro.runtime import crashpoints
from repro.runtime.journal import (
    Journal,
    JournalWriteError,
    atomic_write_text,
    load_records,
)
from repro.runtime.plan import build_plan
from repro.runtime.supervisor import PoolConfig, run_plan
from repro.store import codecs
from repro.store.core import ArtifactStore, atomic_write
from repro.store.keys import ArtifactKey

FAST = dict(backoff_base=0.05, backoff_cap=0.2)

KEY = ArtifactKey("dist_table", "faultsio", {"case": 0})
VALUE = np.arange(12, dtype=np.int32).reshape(3, 4)


def populate(store: ArtifactStore) -> np.ndarray:
    return store.get_or_build(KEY, lambda: VALUE, codecs.ARRAY)


def op_kinds(io: FaultyIo) -> list[str]:
    return [op.kind for op in io.ops]


# -- fault model --------------------------------------------------------------


class TestIoFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            IoFault("flood", op_seq=0)

    def test_unknown_crash_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown crash mode"):
            IoFault("crash", op_seq=0, crash_mode="soft")

    def test_matchless_fault_rejected(self):
        with pytest.raises(ValueError, match="needs a match"):
            IoFault("eio")

    def test_matches_by_global_seq_and_kind_nth(self):
        op = IoOp(seq=5, kind="fsync", path="x", kind_seq=1)
        assert IoFault("eio", op_seq=5).matches(op)
        assert not IoFault("eio", op_seq=4).matches(op)
        assert IoFault("eio", op_kind="fsync", nth=1).matches(op)
        assert not IoFault("eio", op_kind="fsync", nth=0).matches(op)
        assert not IoFault("eio", op_kind="write", nth=1).matches(op)

    def test_scripted_policy_consumes_first_match(self):
        pol = ScriptedPolicy([IoFault("eio", op_kind="write")])
        first = IoOp(seq=0, kind="write", path="x", kind_seq=0)
        second = IoOp(seq=1, kind="write", path="x", kind_seq=1)
        assert pol.fault_for(first) is not None
        assert pol.remaining == []
        # one-shot: the same scripted fault never fires twice
        assert pol.fault_for(second) is None


class TestSeededPolicy:
    OPS = [
        IoOp(seq=i, kind=("write" if i % 3 else "fsync"), path="p", kind_seq=i)
        for i in range(60)
    ]

    def test_same_seed_same_timeline(self):
        """The acceptance criterion: fault schedules are seed-deterministic."""
        timelines = []
        for _ in range(2):
            pol = SeededPolicy(seed=42, p_eio=0.1, p_enospc=0.1,
                               p_short_write=0.1, p_fsync_fail=0.1)
            for op in self.OPS:
                pol.fault_for(op)
            timelines.append(list(pol.timeline))
        assert timelines[0] == timelines[1] != []

    def test_different_seed_different_timeline(self):
        timelines = []
        for seed in (1, 2):
            pol = SeededPolicy(seed=seed, p_eio=0.2, p_enospc=0.2)
            for op in self.OPS:
                pol.fault_for(op)
            timelines.append(list(pol.timeline))
        assert timelines[0] != timelines[1]

    def test_timeline_depends_only_on_seed_and_op_sequence(self):
        """One RNG draw per op even when nothing fires: zero-probability
        runs must not shift the schedule of later faulty ops."""
        quiet = SeededPolicy(seed=9, p_eio=0.0)
        for op in self.OPS[:30]:
            quiet.fault_for(op)
        assert quiet.timeline == []
        # The 31st..60th draws are the same whether or not a fault could
        # have fired earlier — verify against a fresh policy fed the
        # identical full sequence with faults enabled from op 30 on.
        late = SeededPolicy(seed=9, p_eio=0.5)
        for op in self.OPS:
            late.fault_for(op)
        replay = SeededPolicy(seed=9, p_eio=0.5)
        for op in self.OPS:
            replay.fault_for(op)
        assert late.timeline == replay.timeline != []

    def test_probabilities_validated(self):
        with pytest.raises(ValueError, match="p_eio"):
            SeededPolicy(seed=0, p_eio=1.5)

    def test_kind_gating(self):
        """short_write only ever fires on writes, fsync_fail on fsyncs."""
        pol = SeededPolicy(seed=3, p_short_write=1.0)
        fsync_op = IoOp(seq=0, kind="fsync", path="p", kind_seq=0)
        assert pol.fault_for(fsync_op) is None
        write_op = IoOp(seq=1, kind="write", path="p", kind_seq=0)
        fault = pol.fault_for(write_op)
        assert fault is not None and fault.kind == "short_write"

    def test_end_to_end_store_run_is_seed_deterministic(self):
        """Two store runs under the same seed inject identical schedules
        and leave identical op logs."""
        logs = []
        for run in range(2):
            io = FaultyIo(SeededPolicy(seed=11, p_eio=0.15, p_enospc=0.15))
            with tempfile.TemporaryDirectory() as d:
                s = ArtifactStore(root=Path(d) / "store", io=io)
                assert np.array_equal(populate(s), VALUE)
            # compare path-free views: the sandbox dirs differ per run
            logs.append((
                op_kinds(io),
                list(io.policy.timeline),
                [(op.seq, op.kind, kind) for op, kind in io.injected],
            ))
        assert logs[0] == logs[1]


# -- the atomic-write protocol through the seam -------------------------------


class TestAtomicWriteProtocol:
    PROTOCOL = ["create", "write", "fsync", "replace", "fsync_dir"]

    def test_store_follows_protocol_for_blob_and_sidecar(self, tmp_path):
        io = FaultyIo()
        s = ArtifactStore(root=tmp_path / "store", io=io)
        populate(s)
        # one atomic write for the .npz blob, one for the .json sidecar
        assert op_kinds(io) == self.PROTOCOL * 2
        assert io.injected == []

    def test_atomic_write_text_follows_protocol(self, tmp_path):
        io = FaultyIo()
        out = tmp_path / "report.json"
        atomic_write_text(out, "{}\n", io=io)
        assert op_kinds(io) == self.PROTOCOL
        assert out.read_text() == "{}\n"

    def test_journal_append_is_write_flush_fsync(self, tmp_path):
        io = FaultyIo()
        with Journal(tmp_path / "j.jsonl", io=io) as j:
            j.append({"type": "run", "n": 1})
        assert op_kinds(io) == ["open_append", "write", "flush", "fsync"]


# -- FaultyIo crash-state model -----------------------------------------------


class TestCrashStateModel:
    BLOB = b"0123456789abcdef"

    def crash_at(self, tmp_path, fault: IoFault) -> FaultyIo:
        io = FaultyIo(ScriptedPolicy([fault]))
        with pytest.raises(SimulatedCrash):
            atomic_write(io, tmp_path / "entry.json", self.BLOB)
        assert io.crashed and io.crash_op is not None
        io.materialize_crash_state()
        return io

    def test_sync_crash_at_write_leaves_nothing(self, tmp_path):
        """Before any fsync, the adversarial crash keeps no bytes at all."""
        self.crash_at(
            tmp_path, IoFault("crash", op_kind="write", crash_mode="sync")
        )
        assert list(tmp_path.iterdir()) == []

    def test_flush_crash_at_write_leaves_stray_tmp(self, tmp_path):
        """The generous crash flushes the page cache: the temp file's
        *existence* survives, but the in-flight write never reached the
        cache (only ``torn`` models a partially applied write), so the
        stray is empty — and was never renamed into place."""
        self.crash_at(
            tmp_path, IoFault("crash", op_kind="write", crash_mode="flush")
        )
        strays = list(tmp_path.glob(".tmp-*"))
        assert len(strays) == 1
        assert strays[0].read_bytes() == b""
        assert not (tmp_path / "entry.json").exists()

    def test_torn_crash_at_write_leaves_half_the_bytes(self, tmp_path):
        self.crash_at(
            tmp_path, IoFault("crash", op_kind="write", crash_mode="torn")
        )
        strays = list(tmp_path.glob(".tmp-*"))
        assert len(strays) == 1
        assert strays[0].read_bytes() == self.BLOB[: len(self.BLOB) // 2]

    def test_sync_crash_after_fsync_keeps_tmp_content(self, tmp_path):
        """fsync makes content + existence durable even before the rename."""
        io = self.crash_at(
            tmp_path, IoFault("crash", op_kind="replace", crash_mode="sync")
        )
        strays = list(tmp_path.glob(".tmp-*"))
        assert len(strays) == 1
        assert strays[0].read_bytes() == self.BLOB
        assert not (tmp_path / "entry.json").exists()
        assert io.crash_op.kind == "replace"

    def test_crash_after_fsync_dir_is_fully_durable(self, tmp_path):
        io = FaultyIo()
        atomic_write(io, tmp_path / "entry.json", self.BLOB)
        state = io.durable_state()
        assert state[str(tmp_path / "entry.json")] == self.BLOB

    def test_io_after_crash_raises(self, tmp_path):
        io = self.crash_at(
            tmp_path, IoFault("crash", op_kind="write", crash_mode="sync")
        )
        with pytest.raises(SimulatedCrash):
            io.exclusive_create(tmp_path)
        with pytest.raises(SimulatedCrash):
            io.unlink(tmp_path / "x")


# -- graceful degradation under injected errors -------------------------------


class TestStoreDegradation:
    def serve_with(self, tmp_path, fault: IoFault) -> FaultyIo:
        io = FaultyIo(ScriptedPolicy([fault]))
        s = ArtifactStore(root=tmp_path / "store", io=io)
        assert np.array_equal(populate(s), VALUE)  # value served regardless
        assert np.array_equal(populate(s), VALUE)  # memory tier still works
        assert io.policy.remaining == []
        assert len(io.injected) == 1
        return io

    def test_eio_on_write_degrades_to_memory_only(self, tmp_path):
        self.serve_with(tmp_path, IoFault("eio", op_kind="write"))
        # failed entry never published, temp cleaned up
        assert list((tmp_path / "store").glob(".tmp-*")) == []
        assert list((tmp_path / "store").glob("*.json")) == []

    def test_enospc_on_fsync_degrades_to_memory_only(self, tmp_path):
        self.serve_with(tmp_path, IoFault("enospc", op_kind="fsync"))
        assert list((tmp_path / "store").glob(".tmp-*")) == []

    def test_short_write_is_surfaced_as_enospc_and_cleaned_up(self, tmp_path):
        self.serve_with(tmp_path, IoFault("short_write", op_kind="write"))
        assert list((tmp_path / "store").glob(".tmp-*")) == []

    def test_fsync_fail_on_dir_degrades(self, tmp_path):
        # fsync_dir is the last protocol step: the .npz blob was already
        # durably published, only the sidecar write aborts.
        io = self.serve_with(tmp_path, IoFault("fsync_fail", op_kind="fsync_dir"))
        assert op_kinds(io)[:5] == TestAtomicWriteProtocol.PROTOCOL

    def test_post_replace_failure_does_not_warn_of_strays(
        self, tmp_path, caplog
    ):
        """A fault after the rename already published the file must not
        log a phantom stray-temp warning (the temp name no longer exists)."""
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.store.core"):
            self.serve_with(tmp_path, IoFault("eio", op_kind="fsync_dir"))
        assert "stray temp" not in caplog.text

    def test_injected_faults_are_counted(self, tmp_path):
        with obs.session() as (reg, _):
            io = FaultyIo(ScriptedPolicy([IoFault("eio", op_kind="write")]))
            s = ArtifactStore(root=tmp_path / "store", io=io)
            populate(s)
            fam = reg.get("io.faults.injected")
            assert fam.labels(kind="eio").value == 1


class TestSupervisorDegradation:
    def test_enospc_on_journal_degrades_run(self, tmp_path):
        """A full disk mid-run costs resumability, never the results."""
        plan = build_plan("chaos", {"trials": 2})
        io = FaultyIo(ScriptedPolicy([IoFault("enospc", op_kind="write")]))
        report = run_plan(
            plan, tmp_path / "j.jsonl", PoolConfig(jobs=1, **FAST), io=io
        )
        assert report.journal_degraded is True
        assert report.counts()["done"] == 2
        assert report.manifest_info()["journal_degraded"] is True
        # nothing further was checkpointed after the failed append
        assert load_records(tmp_path / "j.jsonl") == []

    def test_healthy_run_reports_not_degraded(self, tmp_path):
        plan = build_plan("chaos", {"trials": 1})
        report = run_plan(plan, tmp_path / "j.jsonl", PoolConfig(jobs=1, **FAST))
        assert report.journal_degraded is False


# -- journal recovery ---------------------------------------------------------


class TestJournalRecovery:
    def test_multi_record_torn_tail_dropped(self, tmp_path):
        p = tmp_path / "j.jsonl"
        good = [{"type": "run", "n": 0}, {"type": "trial", "n": 1}]
        lines = [json.dumps(r) for r in good]
        p.write_text("\n".join(lines) + "\n" + '{"type": "tri')
        assert load_records(p) == good

    def test_torn_tail_then_valid_records_keeps_the_valid_ones(self, tmp_path):
        """A torn record mid-file (crash + later append without repair)
        must not take the records after it down too."""
        p = tmp_path / "j.jsonl"
        good = [{"type": "run", "n": 0}, {"type": "trial", "n": 2}]
        p.write_text(
            json.dumps(good[0]) + "\n"
            + '{"type": "trial", "n": 1, "xx\n'
            + json.dumps(good[1]) + "\n"
        )
        assert load_records(p) == good

    def test_recovered_records_are_counted(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text('{"a": 1}\n{"torn\n{"torn again\n')
        with obs.session() as (reg, _):
            assert load_records(p) == [{"a": 1}]
            assert reg.get("journal.recovered_records").value == 2

    def test_append_after_torn_tail_repairs_then_extends(self, tmp_path):
        p = tmp_path / "j.jsonl"
        p.write_text('{"type": "run"}\n{"half')
        with Journal(p) as j:
            j.append({"type": "trial", "n": 1})
        # the torn record was newline-terminated (quarantined to its own
        # line) rather than fused with the new append
        assert load_records(p) == [{"type": "run"}, {"type": "trial", "n": 1}]
        assert '{"half\n' in p.read_text()

    def test_enospc_mid_append_raises_typed_error(self, tmp_path):
        io = FaultyIo(ScriptedPolicy([IoFault("enospc", op_kind="write")]))
        with Journal(tmp_path / "j.jsonl", io=io) as j:
            with pytest.raises(JournalWriteError) as exc_info:
                j.append({"type": "run"})
        assert exc_info.value.errno == errno.ENOSPC

    def test_eio_mid_append_raises_typed_error(self, tmp_path):
        io = FaultyIo(ScriptedPolicy([IoFault("eio", op_kind="fsync")]))
        with Journal(tmp_path / "j.jsonl", io=io) as j:
            with pytest.raises(JournalWriteError) as exc_info:
                j.append({"type": "run"})
        assert exc_info.value.errno == errno.EIO


# -- gc reaps stray temp files ------------------------------------------------


class TestGcReapsTmp:
    def stray(self, root: Path, name: str, age: float = 0.0) -> Path:
        root.mkdir(parents=True, exist_ok=True)
        p = root / name
        p.write_bytes(b"x" * 10)
        if age:
            past = p.stat().st_mtime - age
            os.utime(p, (past, past))
        return p

    def test_aged_tmp_reaped_fresh_kept(self, tmp_path):
        root = tmp_path / "store"
        old = self.stray(root, ".tmp-old", age=7200.0)
        fresh = self.stray(root, ".tmp-fresh")
        s = ArtifactStore(root=root)
        report = s.gc()
        assert report["reaped_tmp"] == [".tmp-old"]
        assert report["freed_bytes"] == 10
        assert not old.exists() and fresh.exists()

    def test_clear_reaps_even_fresh_tmps(self, tmp_path):
        root = tmp_path / "store"
        fresh = self.stray(root, ".tmp-fresh")
        report = ArtifactStore(root=root).gc(clear=True)
        assert report["reaped_tmp"] == [".tmp-fresh"]
        assert not fresh.exists()

    def test_dry_run_reports_but_keeps(self, tmp_path):
        root = tmp_path / "store"
        old = self.stray(root, ".tmp-old", age=7200.0)
        report = ArtifactStore(root=root).gc(dry_run=True)
        assert report["reaped_tmp"] == [".tmp-old"]
        assert old.exists()

    def test_reap_age_zero_reaps_everything(self, tmp_path):
        root = tmp_path / "store"
        self.stray(root, ".tmp-a")
        report = ArtifactStore(root=root).gc(reap_tmp_age=0.0)
        assert report["reaped_tmp"] == [".tmp-a"]

    def test_tmp_reaping_never_touches_live_entries(self, tmp_path):
        s = ArtifactStore(root=tmp_path / "store")
        populate(s)
        report = s.gc(reap_tmp_age=0.0)
        assert report["reaped_tmp"] == [] and report["removed"] == []
        fresh = ArtifactStore(root=tmp_path / "store")
        assert np.array_equal(populate(fresh), VALUE)


# -- the crash-point explorer -------------------------------------------------


class TestCrashPointExplorer:
    def test_full_exploration_recovers_everywhere(self, tmp_path):
        """The headline robustness gate: every crash point at every crash
        mode recovers with zero invariant violations (also run in CI)."""
        report = crashpoints.explore(base_dir=tmp_path)
        assert report.ops >= 30
        assert report.crash_points >= 30
        assert report.violations == 0 and report.ok

    def test_report_is_deterministic(self, tmp_path):
        a = crashpoints.explore(base_dir=tmp_path / "a", max_points=5)
        b = crashpoints.explore(base_dir=tmp_path / "b", max_points=5)
        assert a.to_dict() == b.to_dict()
        assert a.crash_points == 5

    def test_report_dict_shape(self, tmp_path):
        report = crashpoints.explore(base_dir=tmp_path, max_points=3)
        d = report.to_dict()
        assert d["schema"] == crashpoints.SCHEMA
        assert d["ok"] is True and d["violations"] == 0
        assert len(d["points"]) == 3
        for point in d["points"]:
            assert {"seq", "op", "path", "mode", "violations"} <= set(point)
            assert point["mode"] in ("sync", "flush", "torn")
            # paths are relativized: stable across machines and runs
            assert not Path(point["path"]).is_absolute()

    def test_workload_is_reproducible(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            sandbox = tmp_path / name
            sandbox.mkdir()
            res = crashpoints.run_workload(sandbox, DiskIo())
            outs.append(res.out_bytes)
            assert len(res.executed) == crashpoints.N_TRIALS
        assert outs[0] == outs[1]

    def test_resume_after_clean_run_reexecutes_nothing(self, tmp_path):
        crashpoints.run_workload(tmp_path, DiskIo())
        res = crashpoints.run_workload(tmp_path, DiskIo())
        assert res.executed == []
