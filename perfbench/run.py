"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload flow_sat --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout; ``src/`` is put on the import path, so
nothing has to be installed.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``, with
``--trace 1`` its ``per_layer`` metrics.  The full record (every metric,
every oracle outcome and the run manifest) is appended as one JSON line to
``--out`` (default ``.perfbench/results.jsonl``), the input of
``perfbench/compare.py``.

Exits 1 when an output oracle or an engine-parity check fails, 2 when the
program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Thread pools are capped at the core count before NumPy/SciPy load.
_NPROC = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = _NPROC
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import harness  # noqa: E402


def _module(workload: str):
    if workload == "flow_sat":
        from perfbench import flow_sat as mod
    elif workload == "serve_mixed":
        from perfbench import serve_mixed as mod
    else:
        from perfbench import packet as mod
    return mod


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="measurement budget of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = report the per-layer metrics of a traced run")
    p.add_argument("--out", default=None,
                   help="JSONL file the full record is appended to")
    p.add_argument("--setup-only", metavar="STORE_DIR", default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int, store_dir: str) -> int:
    """Child mode of the set-up probe: do the workload's set-up, announce
    readiness with the server's banner format, exit."""
    from repro.serve.server import READY_PREFIX

    _module(workload).setup(seed, store_dir)
    print(READY_PREFIX + json.dumps({"workload": workload}), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_only is not None:
        return setup_probe(args.workload, args.seed, args.setup_only)

    spec = harness.load_spec()
    mod = _module(args.workload)
    run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload != "serve_mixed":
            samples = harness.probe_setup_seconds(run, harness.SETUP_REPEATS)
            run.extra["setup_samples_s"] = samples
            run.values["setup_s"] = harness.median(samples)
        mod.measure(run)
    finally:
        run.cleanup()

    record = run.record()
    out = Path(args.out) if args.out else harness.WORK / "results.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    for check in run.checks:
        if not check["ok"]:
            print(f"FAILED {check['name']}: {check['detail']}")
    for name, value in sorted({**run.values, **run.layers}.items()):
        print(f"{name} = {value:.6g}")
    if args.trace:
        metrics = harness.metric_block(run.layers, spec["per_layer"], args.workload,
                                       harness.load_layer_map())
    else:
        metrics = harness.metric_block(run.values, spec["end_to_end"])
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
