"""Shared machinery of the benchmark: run context, timing, tracing, results.

Everything here sits *outside* the program under test.  Layers are timed
by wrapping calls into their public functions (:class:`LayerTrace`), and
the program's own ``repro.obs`` counters are read through
``obs.session()``; nothing under ``src/`` is edited to be measured.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
LAYER_MAP_PATH = Path(__file__).resolve().parent / "layer_map.json"
#: Scratch space for stores and result files (listed in .gitignore).
WORK = ROOT / ".perfbench"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = ("flow_sat", "packet_min", "packet_faults", "serve_mixed")

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def capped_env(**extra: str) -> dict:
    """Environment for child processes: thread pools capped at ``nproc``
    and ``src/`` importable."""
    env = dict(os.environ)
    n = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = n
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_layer_map() -> dict:
    """Per-layer metric -> ``{"layer", "workloads", "moves"}``: where it is
    measured and which end-to-end metric on which workload it should move."""
    with open(LAYER_MAP_PATH, encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def tail(values) -> float:
    """The highest percentile, up to p99, with at least ten samples beyond
    it: p99 from 1000 samples on, p(1 - 10/n) from 20, else the slowest
    sample."""
    vals = sorted(values)
    n = len(vals)
    if n < 20:
        return float(vals[-1]) if vals else 0.0
    q = min(0.99, 1.0 - 10.0 / n)
    return float(np.quantile(vals, q))


def quartiles(values) -> tuple[float, float, float]:
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- per-layer tracing ----------------------------------------------------------


class LayerTrace:
    """Self time and call counts per layer, recorded from outside.

    ``call(name, fn, ...)`` times one call the benchmark makes itself;
    ``patch(owner, attr, replacement)`` swaps in a wrapped public function
    that other layers call internally, until :meth:`unpatch`.  Spans nest:
    a layer's self time excludes the time of the traced spans it called, so
    nested layers are never counted twice.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Time the block under *name*; the yielded dict's ``"name"`` may be
        changed inside the block to file the span under another name."""
        label = {"name": name}
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield label
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            self.seconds[label["name"]] += dt - child
            self.calls[label["name"]] += 1
            if self._stack:
                self._stack[-1] += dt

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class NullTrace:
    """Untraced runs: the same interface, no clock reads."""

    @contextmanager
    def span(self, name: str):
        yield {"name": name}

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def install_layer_patches(trace: LayerTrace) -> None:
    """Wrap the public functions that layers call inside other layers."""
    from repro.routing import table as routing_table
    from repro.store import registry
    from repro.store.core import ArtifactStore

    resolve_builder = registry.resolve_builder
    trace.patch(
        registry, "resolve_builder",
        lambda name: trace.wrap("topologies.build", resolve_builder(name)),
    )
    trace.patch(routing_table, "build_distance_table",
                trace.wrap("routing.dist_table", routing_table.build_distance_table))
    trace.patch(routing_table, "next_hop_table",
                trace.wrap("routing.next_hop_table", routing_table.next_hop_table))

    get_or_build = ArtifactStore.get_or_build

    def traced_get_or_build(self, key, build, codec, persist=None):
        # A resolution that runs the builder is a put (its self time is the
        # encode and disk write); any other is a get from a cache tier.
        with trace.span("store.get") as span:
            def timed_build():
                span["name"] = "store.put"
                with trace.span("store.builder"):
                    return build()

            return get_or_build(self, key, timed_build, codec, persist)

    trace.patch(ArtifactStore, "get_or_build", traced_get_or_build)


def counter_total(registry, name: str, **labels) -> float:
    """Sum of a ``repro.obs`` counter's samples matching *labels*."""
    if name not in registry:
        return 0.0
    total = 0.0
    for sample in registry.get(name).samples():
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += float(sample["value"])
    return total


def store_layer_metrics(trace: LayerTrace, registry) -> dict:
    """``store.*`` and construction metrics of one traced pass."""
    hits = counter_total(registry, "store.hit")
    misses = counter_total(registry, "store.miss")
    return {
        "topologies.build_s": trace.seconds["topologies.build"],
        "topologies.builds": trace.calls["topologies.build"],
        "routing.dist_table_s": trace.seconds["routing.dist_table"],
        "routing.dist_table_builds": trace.calls["routing.dist_table"],
        "store.put_s": trace.seconds["store.put"],
        "store.get_s": trace.seconds["store.get"],
        "store.bytes_written": counter_total(registry, "store.bytes", op="write"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


@contextmanager
def traced_session():
    """``(trace, registry)``: a live :class:`LayerTrace` with its patches
    installed, inside an ``obs.session()``."""
    from repro import obs

    trace = LayerTrace()
    install_layer_patches(trace)
    try:
        with obs.session() as (registry, _tracer):
            yield trace, registry
    finally:
        trace.unpatch()


# -- child processes ----------------------------------------------------------------


def spawn_until_ready(argv: list[str], env: dict, timeout: float = 120.0):
    """Spawn *argv* and time it until it prints a ``REPRO_SERVE_READY``
    banner.  Returns ``(seconds, banner payload, proc)``; on error the
    process is stopped and reaped before the exception propagates."""
    from repro.serve.client import wait_until_ready

    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=str(ROOT))
    try:
        payload = wait_until_ready(proc.stdout, timeout=timeout)
    except BaseException:
        stop(proc)
        raise
    return time.perf_counter() - t0, payload, proc


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> int:
    """Terminate *proc* and wait for it; kill if it does not drain."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


def probe_setup_seconds(run: "Run", repeats: int) -> list[float]:
    """Set-up of a batch workload, *repeats* times, each in a fresh
    interpreter on an empty store: process start until the first op could
    be issued (the probe then prints the server's ready banner)."""
    samples = []
    for _ in range(repeats):
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                "--workload", run.workload, "--seed", str(run.seed),
                "--setup-only", str(run.fresh_dir("probe-store"))]
        seconds, _payload, proc = spawn_until_ready(argv, capped_env())
        samples.append(seconds)
        stop(proc)
    return samples


# -- timed passes -------------------------------------------------------------------


def timed_passes(run: "Run", one_pass) -> list[dict]:
    """Untraced passes of a batch workload until the run's budget is spent.

    ``one_pass()`` returns a dict whose ``"stages"`` maps each timed stage
    of the pass to its seconds.  There is at least one pass, and no further
    pass once it would likely end more than half a pass past
    ``run.seconds``.  A traced run makes one pass; its traced pass follows.
    """
    passes = [one_pass()]
    spent = pass_seconds(passes[0])
    while not run.trace and spent + pass_seconds(passes[-1]) / 2 < run.seconds:
        passes.append(one_pass())
        spent += pass_seconds(passes[-1])
    return passes


def pass_seconds(one: dict) -> float:
    return sum(one["stages"].values())


def fastest_stages(passes: list[dict]) -> dict[str, float]:
    """Each stage's fastest time over the passes.

    Every pass does the same work, so a stage's time varies only with the
    host; on a shared host that noise only ever adds time, and the fastest
    repeat is the steady estimate of what the code costs.
    """
    best: dict[str, float] = {}
    for one in passes:
        for stage, seconds in one["stages"].items():
            best[stage] = min(seconds, best.get(stage, float("inf")))
    return best


def batch_values(passes: list[dict], ops: list[str], work: float) -> dict:
    """End-to-end metrics of a batch workload from its passes: a pass made
    of every stage at its fastest, *ops* naming the stages that are ops and
    *work* the simulated hops one pass does."""
    best = fastest_stages(passes)
    wall = sum(best.values())
    op_seconds = [best[op] for op in ops]
    return {
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "sim_hops_per_s": work / wall,
        "query_p50_ms": 1e3 * median(op_seconds),
        "query_p99_ms": 1e3 * max(op_seconds),
    }


# -- one run ------------------------------------------------------------------------


class Run:
    """State of one benchmark invocation: inputs, measured values, oracle
    outcomes and op tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        #: End-to-end metrics, measured untraced.
        self.values: dict[str, float] = {}
        #: Per-layer metrics of the traced run (``--trace 1`` only).
        self.layers: dict[str, float] = {}
        #: Supporting detail for the result record (samples, ladder steps).
        self.extra: dict = {}
        self.checks: list[dict] = []
        #: The workload's generated inputs, recorded in the manifest.
        self.params: dict = {}
        WORK.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.loadavg_before = os.getloadavg()

    def fresh_dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=name + "-", dir=self.workdir))

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one oracle outcome (checks run outside the timed window)."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def manifest(self) -> dict:
        import numpy
        import scipy
        from repro import obs

        dirty = None
        try:
            out = subprocess.run(["git", "status", "--porcelain"], cwd=str(ROOT),
                                 capture_output=True, text=True, timeout=10, check=False)
            if out.returncode == 0:
                dirty = bool(out.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
        return obs.RunManifest.capture(
            seed=self.seed,
            config=self.params,
            workload=self.workload,
            seconds=self.seconds,
            trace=self.trace,
            git_dirty=dirty,
            numpy=numpy.__version__,
            scipy=scipy.__version__,
            nproc=nproc(),
            loadavg_before=list(self.loadavg_before),
            loadavg_after=list(os.getloadavg()),
        ).to_dict()

    def record(self) -> dict:
        """The full result record appended to the results file."""
        failed_frac = self.failed / self.attempted if self.attempted else 1.0
        if self.trace:
            self.layers["failed_frac"] = failed_frac
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": failed_frac,
            "values": self.values,
            "layers": self.layers,
            "extra": self.extra,
            "checks": self.checks,
            "manifest": self.manifest(),
        }


def metric_block(source: dict, specs: list[dict], workload: str | None = None,
                 layer_map: dict | None = None) -> dict:
    """The ``metrics`` object of the result line: exactly the names in *specs*.

    With a *layer_map*, a per-layer metric of a layer the workload does not
    exercise reads 0; a metric the map says the workload measures must be
    present.
    """
    block = {}
    for s in specs:
        name = s["name"]
        if name in source:
            value = source[name]
        elif layer_map is not None and workload not in layer_map[name]["workloads"]:
            value = 0.0
        else:
            raise RuntimeError(f"{workload}: benchmark did not measure {name}")
        block[name] = {"value": float(value), "unit": s["unit"]}
    return block
