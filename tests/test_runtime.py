"""Tests for the crash-safe experiment runtime (repro.runtime).

Covers the journal (append/replay, truncated-tail recovery), deterministic
trial planning, the supervision policies (retry with backoff, crash
recovery, quarantine, packet→flow degradation) via the scheduled-fault
``chaos`` experiment, and the headline contracts: a SIGKILLed run resumed
with ``--resume`` reproduces the uninterrupted artifact byte-for-byte
without re-executing completed trials, and ``--jobs N`` equals
``--jobs 1``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import runtime
from repro.runtime import (
    Journal,
    JournalError,
    PoolConfig,
    build_plan,
    completed_trials,
    execute_trial,
    load_records,
    run_headers,
    run_plan,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fast supervision knobs for scheduled-fault tests.
FAST = dict(backoff_base=0.05, backoff_cap=0.2)


# -- journal ------------------------------------------------------------------


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as j:
            j.append({"type": "run", "experiment": "chaos", "plan": "p", "x": 1})
            j.append({"type": "trial", "trial": "d1", "status": "done",
                      "result": {"v": 1}})
        records = load_records(path)
        assert [r["type"] for r in records] == ["run", "trial"]
        assert run_headers(records)[0]["experiment"] == "chaos"
        assert completed_trials(records) == {"d1": records[1]}

    def test_truncated_last_line_is_dropped(self, tmp_path):
        """A crash mid-append leaves a torn tail; replay drops it and the
        next Journal append repairs the file."""
        path = tmp_path / "j.jsonl"
        with Journal(path) as j:
            j.append({"type": "trial", "trial": "d1", "status": "done"})
            j.append({"type": "trial", "trial": "d2", "status": "done"})
        # Simulate SIGKILL mid-write: chop the file inside the last record.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        records = load_records(path)
        assert [r["trial"] for r in records] == ["d1"]
        with Journal(path) as j:
            j.append({"type": "trial", "trial": "d3", "status": "done"})
        assert sorted(completed_trials(load_records(path))) == ["d1", "d3"]

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_records(tmp_path / "absent.jsonl") == []

    def test_latest_record_per_trial_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as j:
            j.append({"type": "trial", "trial": "d1", "status": "done",
                      "result": {"v": 1}})
            j.append({"type": "trial", "trial": "d1", "status": "done",
                      "result": {"v": 2}})
        assert completed_trials(load_records(path))["d1"]["result"] == {"v": 2}


# -- planning -----------------------------------------------------------------


class TestPlan:
    def test_plan_digest_is_deterministic(self):
        a = build_plan("chaos", {"trials": 3, "seed": 7})
        b = build_plan("chaos", {"seed": 7, "trials": 3})  # key order irrelevant
        assert a.digest == b.digest
        assert [s.digest for s in a.specs] == [s.digest for s in b.specs]

    def test_different_opts_change_the_plan(self):
        a = build_plan("chaos", {"trials": 3})
        b = build_plan("chaos", {"trials": 4})
        assert a.digest != b.digest

    def test_fidelity_is_not_part_of_trial_identity(self):
        """Degrading a trial must not change its digest, or resumes would
        miss the checkpoint written for the degraded attempt."""
        plan = build_plan("chaos", {"trials": 1})
        spec = plan.specs[0]
        assert spec.to_wire("packet", 1)["digest"] == spec.to_wire("flow", 3)["digest"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="fig09"):
            build_plan("nope", {})

    def test_all_planned_experiments_export_the_trial_api(self):
        for name in runtime.PLANNED_EXPERIMENTS:
            mod = runtime.experiment_module(name)
            assert isinstance(mod.TRIAL_FIDELITY, str)
            for fn in ("plan_trials", "run_trial", "merge_trials"):
                assert callable(getattr(mod, fn)), (name, fn)

    def test_execute_trial_results_are_json_round_tripped(self):
        plan = build_plan("chaos", {"trials": 1})
        out = execute_trial(plan.specs[0].to_wire("packet", 1))
        assert out == json.loads(json.dumps(out))


# -- supervision policies (in-process pool, scheduled faults) -----------------


class TestSupervision:
    def test_fail_is_retried_with_backoff_then_succeeds(self, tmp_path):
        plan = build_plan("chaos", {"trials": 2, "modes": {"1": "fail"},
                                    "fail_attempts": 2})
        report = run_plan(
            plan, tmp_path / "j.jsonl", PoolConfig(jobs=1, retries=3, **FAST)
        )
        assert report.counts()["done"] == 2
        flaky = report.outcomes[1]
        assert flaky.attempts == 3 and report.retries == 2
        retry_records = [
            r for r in load_records(tmp_path / "j.jsonl") if r["type"] == "retry"
        ]
        assert [r["attempt"] for r in retry_records] == [1, 2]
        assert all(r["delay"] > 0 for r in retry_records)

    def test_retry_jitter_is_seeded(self, tmp_path):
        plan = build_plan("chaos", {"trials": 1, "modes": {"0": "fail"}})
        delays = []
        for name in ("a", "b"):
            run_plan(plan, tmp_path / f"{name}.jsonl",
                     PoolConfig(jobs=1, retries=2, seed=3, **FAST))
            delays.append([
                r["delay"] for r in load_records(tmp_path / f"{name}.jsonl")
                if r["type"] == "retry"
            ])
        assert delays[0] == delays[1] != []

    def test_worker_crash_is_detected_and_retried(self, tmp_path):
        """A SIGKILLed worker mid-trial is replaced and the trial re-run."""
        plan = build_plan("chaos", {"trials": 2, "modes": {"0": "crash"}})
        report = run_plan(
            plan, tmp_path / "j.jsonl", PoolConfig(jobs=2, retries=2, **FAST)
        )
        assert report.counts()["done"] == 2
        assert report.worker_restarts >= 1
        crashed = report.outcomes[0]
        assert crashed.attempts == 2
        assert {h["status"] for h in crashed.history} == {"crash", "done"}

    def test_lost_dispatch_resets_pool_without_burning_an_attempt(
        self, tmp_path, monkeypatch
    ):
        """A dispatch whose task never reaches the worker (the observable
        shape of a crash-poisoned result queue) must not deadlock the run
        or charge the trial an attempt: the supervisor rebuilds the pool
        and re-queues the trial, which then completes normally."""
        from repro.runtime.pool import WorkerHandle

        plan = build_plan("chaos", {"trials": 2})
        dropped: list[str] = []
        orig_assign = WorkerHandle.assign

        def lossy_assign(self, task, timeout):
            if not dropped:
                # Mark the worker busy but never deliver the task; its
                # heartbeat keeps beating and MSG_START never arrives.
                dropped.append(task["digest"])
                self.busy_digest = task["digest"]
                self.assigned_at = time.monotonic()
                self.started_at = 0.0
                self.trial_timeout = timeout
                self.deadline = float("inf")
                return
            orig_assign(self, task, timeout)

        monkeypatch.setattr(WorkerHandle, "assign", lossy_assign)
        # Startup-stall detection keys off assigned_at/started_at, not the
        # heartbeat; pin the age to 0 so a slow worker boot on a loaded
        # machine can't read as a stale heartbeat and burn the attempt.
        monkeypatch.setattr(WorkerHandle, "heartbeat_age", lambda self: 0.0)
        report = run_plan(
            plan,
            tmp_path / "j.jsonl",
            # grace must outlast spawn + import time or booting workers
            # stall-trip too; 5s keeps the detection wait short with
            # headroom for slow boots.
            PoolConfig(jobs=2, retries=0, watchdog_grace=5.0, **FAST),
        )
        assert report.counts()["done"] == 2
        assert report.pool_resets >= 1
        lost = next(o for o in report.outcomes if o.digest == dropped[0])
        # retries=0: had the lost dispatch been charged, this trial would
        # have been quarantined instead of re-run.
        assert lost.status == "done" and lost.attempts == 1
        resets = [
            r for r in load_records(tmp_path / "j.jsonl")
            if r["type"] == "pool_reset"
        ]
        assert len(resets) >= 1
        assert dropped[0][:16] in resets[0]["requeued"]

    def test_hanging_trial_is_quarantined_while_sweep_completes(self, tmp_path):
        plan = build_plan("chaos", {"trials": 3, "modes": {"1": "hang"}})
        report = run_plan(
            plan,
            tmp_path / "j.jsonl",
            PoolConfig(jobs=2, timeout=1.0, retries=1, degrade_after=99, **FAST),
        )
        counts = report.counts()
        assert counts["done"] == 2 and counts["quarantined"] == 1
        bad = report.outcomes[1]
        assert bad.status == "quarantined" and bad.attempts == 2
        assert "wall budget" in bad.error
        # The journal records the quarantine terminally.
        last = completed_trials(load_records(tmp_path / "j.jsonl"))
        assert bad.digest not in last

    def test_packet_hang_degrades_to_flow_fidelity(self, tmp_path):
        """hang_packet hangs only at packet fidelity: after degrade_after
        timeouts the supervisor downgrades the trial, which then succeeds
        with a visibly different (flow) result."""
        plan = build_plan("chaos", {"trials": 2, "modes": {"0": "hang_packet"}})
        report = run_plan(
            plan,
            tmp_path / "j.jsonl",
            PoolConfig(jobs=2, timeout=1.0, retries=4, degrade_after=2, **FAST),
        )
        degraded = report.outcomes[0]
        assert degraded.status == "done"
        assert degraded.degraded and degraded.fidelity == "flow"
        assert degraded.result["fidelity"] == "flow"
        healthy = report.outcomes[1]
        assert healthy.fidelity == "packet" and not healthy.degraded
        records = load_records(tmp_path / "j.jsonl")
        assert any(r["type"] == "degrade" and r["fidelity"] == "flow"
                   for r in records)
        assert report.counts()["degraded"] == 1

    def test_jobs_2_equals_jobs_1(self, tmp_path):
        """Parallelism must not change results: same plan, 1 vs 2 workers,
        byte-identical merged outcomes."""
        plan = build_plan("chaos", {"trials": 5, "modes": {"2": "fail"}})
        merged = []
        for jobs in (1, 2):
            report = run_plan(plan, tmp_path / f"jobs{jobs}.jsonl",
                              PoolConfig(jobs=jobs, retries=2, **FAST))
            assert report.counts()["done"] == 5
            merged.append(json.dumps(report.merge_outcomes(), sort_keys=True))
        assert merged[0] == merged[1]

    def test_resume_skips_completed_and_is_byte_identical(self, tmp_path):
        plan = build_plan("chaos", {"trials": 3})
        journal = tmp_path / "j.jsonl"
        first = run_plan(plan, journal, PoolConfig(jobs=1, **FAST))
        second = run_plan(plan, journal, PoolConfig(jobs=1, **FAST), resume=True)
        assert all(o.skipped for o in second.outcomes)
        assert json.dumps(first.merge_outcomes(), sort_keys=True) == json.dumps(
            second.merge_outcomes(), sort_keys=True
        )
        # Exactly one set of trial executions in the journal.
        done = [r for r in load_records(journal)
                if r["type"] == "trial" and r["status"] == "done"]
        assert len(done) == 3

    def test_journal_refuses_foreign_plan(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_plan(build_plan("chaos", {"trials": 1}), journal,
                 PoolConfig(jobs=1, **FAST))
        with pytest.raises(JournalError, match="fresh --journal"):
            run_plan(build_plan("chaos", {"trials": 2}), journal,
                     PoolConfig(jobs=1, **FAST), resume=True)

    def test_journal_refuses_mixing_without_resume(self, tmp_path):
        plan = build_plan("chaos", {"trials": 1})
        journal = tmp_path / "j.jsonl"
        run_plan(plan, journal, PoolConfig(jobs=1, **FAST))
        with pytest.raises(JournalError, match="--resume"):
            run_plan(plan, journal, PoolConfig(jobs=1, **FAST))


# -- CLI: kill/interrupt/resume ----------------------------------------------


def _cli_env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_RUNS_DIR"] = str(tmp_path / "runs")
    return env


def _run_cli(args, env, **kw):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, **kw,
    )


CHAOS_SLOW = [
    "run", "chaos",
    "--opt", "trials=6",
    "--opt", 'modes={"0":"slow","1":"slow","2":"slow","3":"slow"}',
    "--opt", "sleep=1.0",
    "--backoff-base", "0.05",
]


class TestCliRuns:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """The headline contract: SIGKILL a sweep mid-run, resume it, and
        the final artifact is byte-identical to an uninterrupted run with
        zero re-executed trials."""
        env = _cli_env(tmp_path)
        journal = tmp_path / "kill.jsonl"
        out_resumed = tmp_path / "resumed.json"
        out_clean = tmp_path / "clean.json"

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *CHAOS_SLOW,
             "--jobs", "2", "--journal", str(journal),
             "--out", str(out_resumed)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # Wait for at least one checkpoint, then SIGKILL: no flush, no
        # cleanup — the worst crash the journal must survive.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if len(completed_trials(load_records(journal))) >= 1:
                break
            time.sleep(0.1)
        else:
            proc.kill()
            pytest.fail("no trial checkpointed within 60s")
        proc.kill()
        proc.wait(timeout=30)
        checkpointed = set(completed_trials(load_records(journal)))
        assert checkpointed, "journal lost its checkpoints"

        resumed = _run_cli(
            [*CHAOS_SLOW, "--jobs", "2", "--resume",
             "--journal", str(journal), "--out", str(out_resumed)],
            env, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr

        clean = _run_cli(
            [*CHAOS_SLOW, "--jobs", "2",
             "--journal", str(tmp_path / "clean.jsonl"),
             "--out", str(out_clean)],
            env, timeout=120,
        )
        assert clean.returncode == 0, clean.stderr
        assert out_resumed.read_bytes() == out_clean.read_bytes()

        # Zero re-execution: every checkpoint that survived the kill shows
        # exactly one done record in the journal, and the resumed header
        # reports them skipped.
        records = load_records(journal)
        done_counts: dict[str, int] = {}
        for r in records:
            if r.get("type") == "trial" and r.get("status") == "done":
                done_counts[r["trial"]] = done_counts.get(r["trial"], 0) + 1
        for digest in checkpointed:
            assert done_counts[digest] == 1, "completed trial was re-executed"
        resumed_header = run_headers(records)[-1]
        assert resumed_header["resumed"] is True
        assert resumed_header["skipped"] == len(checkpointed)

    def test_sigint_flushes_and_hints_resume(self, tmp_path):
        env = _cli_env(tmp_path)
        journal = tmp_path / "int.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *CHAOS_SLOW,
             "--jobs", "1", "--journal", str(journal)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if len(completed_trials(load_records(journal))) >= 1:
                break
            time.sleep(0.1)
        else:
            proc.kill()
            pytest.fail("no trial checkpointed within 60s")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert "--resume" in err
        records = load_records(journal)
        assert records[-1]["type"] == "interrupted"

    def test_run_status_lists_journals(self, tmp_path):
        env = _cli_env(tmp_path)
        done = _run_cli(
            ["run", "chaos", "--opt", "trials=2", "--backoff-base", "0.05"],
            env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        status = _run_cli(["run", "status"], env, timeout=60)
        assert status.returncode == 0
        assert "chaos" in status.stdout and "2/2 done" in status.stdout
        assert "complete" in status.stdout

    def test_quarantine_exits_nonzero_but_completes(self, tmp_path):
        env = _cli_env(tmp_path)
        out = _run_cli(
            ["run", "chaos", "--opt", "trials=3",
             "--opt", 'modes={"1":"hang"}',
             "--jobs", "2", "--timeout", "1.0", "--retries", "1",
             "--degrade-after", "99", "--backoff-base", "0.05",
             "--journal", str(tmp_path / "q.jsonl")],
            env, timeout=120,
        )
        assert out.returncode == 1
        assert "1 quarantined" in out.stdout
        assert "quarantined" in out.stderr


# -- experiment trial APIs ----------------------------------------------------


class TestExperimentTrials:
    def test_tab03_trials_match_direct_run(self, tmp_path):
        from repro.experiments import tab03

        opts = {"names": ["PS-IQ", "BF"]}
        plan = build_plan("tab03", opts)
        report = run_plan(plan, tmp_path / "j.jsonl", PoolConfig(jobs=2, **FAST))
        merged = tab03.merge_trials(opts, report.merge_outcomes())
        assert merged == tab03.run(names=("PS-IQ", "BF"))

    def test_fig14_dynamic_point_trial_matches_run(self):
        """One packet-fidelity point trial reproduces the corresponding
        run() point exactly (same helper, same seeds)."""
        from repro.experiments import fig14_dynamic
        from repro.sim.packet import PacketSimConfig

        cycles = [20, 40, 40]
        params = {"kind": "point", "topology": "PS-IQ", "fraction": 0.1,
                  "load": 0.3, "seed": 0, "cycles": cycles}
        out = fig14_dynamic.run_trial(params, fidelity="packet")
        cfg = PacketSimConfig(warmup_cycles=20, measure_cycles=40,
                              drain_cycles=40, seed=0)
        direct = fig14_dynamic.run(names=("PS-IQ",), fractions=(0.1,),
                                   cycles=[20, 40, 40])
        assert out["point"] == direct["PS-IQ"]["points"][0]

    def test_fig14_dynamic_flow_degradation_bounds_delivery(self):
        """The degraded (flow) point is a connectivity upper bound: between
        0 and 1, exactly 1.0 with no failures, with null latencies and the
        fidelity stamped."""
        from repro.experiments import fig14_dynamic

        pristine = fig14_dynamic.run_trial(
            {"kind": "point", "topology": "PS-IQ", "fraction": 0.0,
             "load": 0.3, "seed": 0},
            fidelity="flow",
        )["point"]
        assert pristine["delivered_fraction"] == 1.0
        broken = fig14_dynamic.run_trial(
            {"kind": "point", "topology": "PS-IQ", "fraction": 0.3,
             "load": 0.3, "seed": 0},
            fidelity="flow",
        )["point"]
        assert 0.0 <= broken["delivered_fraction"] <= 1.0
        assert broken["fidelity"] == "flow"
        assert broken["avg_latency"] is None and broken["throughput"] is None
        assert broken["failed_links"] > 0

    def test_fig14_dynamic_merge_reassembles_run_shape(self, tmp_path):
        from repro.experiments import fig14_dynamic

        opts = {"names": ["PS-IQ"], "fractions": [0.0, 0.1],
                "cycles": [20, 40, 40]}
        plan = build_plan("fig14_dynamic", opts)
        report = run_plan(plan, tmp_path / "j.jsonl", PoolConfig(jobs=2, **FAST))
        merged = fig14_dynamic.merge_trials(opts, report.merge_outcomes())
        entry = merged["PS-IQ"]
        assert entry["disconnection_ratio"] is not None
        assert [p["fraction"] for p in entry["points"]] == [0.0, 0.1]
        assert all(p["fidelity"] == "packet" for p in entry["points"])
        # Renders without error.
        assert "PS-IQ" in fig14_dynamic.format_figure(merged)

    def test_fig09_and_fig10_trials_merge_to_run_shape(self, tmp_path):
        from repro.experiments import fig10

        opts = {"names": ["DF"], "with_ugal": False}
        plan = build_plan("fig10", opts)
        report = run_plan(plan, tmp_path / "j.jsonl", PoolConfig(jobs=1, **FAST))
        merged = fig10.merge_trials(opts, report.merge_outcomes())
        assert merged == fig10.run(names=("DF",), with_ugal=False)
