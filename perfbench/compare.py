"""Compare two benchmark result files, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``perfbench/run.py`` appends (one JSON object
per run).  For every workload and end-to-end metric the command prints each
side's median and quartiles over the untraced runs, and a verdict against
the metric's bound in ``BENCHMARK.json``:

* ``worse``      the change's median is worse by more than the bound;
* ``better``     the change's median is better by more than the base's own
                 spread, and the two sides' quartile ranges do not overlap;
* ``unresolved`` the run-to-run spread of either side exceeds the bound,
                 unless every run of one side beats every run of the other;
* ``unchanged``  anything else.

For a metric that got worse it lists the per-layer metrics (from the traced
runs) that moved most, marking with ``*`` those ``layer_map.json`` says
should move that metric on that workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import harness  # noqa: E402

#: Per-layer metrics listed under a regressed end-to-end metric.
TOP_LAYERS = 5


def load(path: str) -> dict:
    """``{(workload, trace): [record, ...]}`` from one results file."""
    out: dict = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[(rec["workload"], bool(rec["trace"]))].append(rec)
    return out


def spread(values) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)``."""
    q1, q2, q3 = harness.quartiles(values)
    return q1, q2, q3, (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base: list, change: list, better: str, bound: float) -> str:
    """``worse``, ``better``, ``unresolved`` or ``unchanged`` (module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, ma, q3a, sa = spread(base)
    q1b, mb, q3b, sb = spread(change)
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    separated = max(change) < min(base) or min(change) > max(base)
    if max(sa, sb) > bound and not separated:
        return "unresolved"
    if worse > bound:
        return "worse"
    if -worse > sa and (q3b < q1a or q1b > q3a):
        return "better"
    return "unchanged"


def layer_moves(base: list, change: list, workload: str, metric: str,
                layer_map: dict) -> list[str]:
    """The per-layer metrics of *workload* whose medians moved most."""
    rows = []
    for name, info in layer_map.items():
        if workload not in info["workloads"]:
            continue
        a = [r["layers"][name] for r in base if name in r["layers"]]
        b = [r["layers"][name] for r in change if name in r["layers"]]
        if not a or not b:
            continue
        ma, mb = harness.median(a), harness.median(b)
        rel = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
        mark = "*" if f"{metric}@{workload}" in info["moves"] else " "
        rows.append((abs(rel), f"    {mark} {name}: {ma:.6g} -> {mb:.6g} ({rel:+.1%})"))
    rows.sort(key=lambda r: -r[0])
    return [text for _, text in rows[:TOP_LAYERS]]


def compare(base: dict, change: dict, spec: dict, layer_map: dict) -> list[str]:
    lines = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a, b = base.get((workload, False), []), change.get((workload, False), [])
        if not a or not b:
            lines.append(f"{workload}: no untraced runs on "
                         f"{'both sides' if not a and not b else 'one side'}")
            continue
        fa = sum(r["failed"] for r in a) / max(1, sum(r["attempted"] for r in a))
        fb = sum(r["failed"] for r in b) / max(1, sum(r["attempted"] for r in b))
        lines.append(f"{workload}  (runs {len(a)} vs {len(b)}; "
                     f"failed_frac {fa:.4g} vs {fb:.4g})")
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [r["values"][name] for r in a if name in r["values"]]
            vb = [r["values"][name] for r in b if name in r["values"]]
            if not va or not vb:
                lines.append(f"  {name}: missing")
                continue
            word = verdict(va, vb, m["better"], m["bound"])
            q1a, ma, q3a, _ = spread(va)
            q1b, mb, q3b, _ = spread(vb)
            rel = (mb - ma) / abs(ma) if ma else 0.0
            lines.append(
                f"  {name} [{m['unit']}, {m['better']} is better, bound {m['bound']:.0%}]: "
                f"{ma:.6g} [{q1a:.6g}, {q3a:.6g}] -> {mb:.6g} [{q1b:.6g}, {q3b:.6g}] "
                f"{rel:+.1%} {word}")
            if word == "worse":
                lines += layer_moves(base.get((workload, True), []),
                                     change.get((workload, True), []),
                                     workload, name, layer_map)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="results file of the parent")
    p.add_argument("change", help="results file of the change")
    args = p.parse_args(argv)
    lines = compare(load(args.base), load(args.change), harness.load_spec(),
                    harness.load_layer_map())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
