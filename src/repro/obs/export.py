"""Exporters: observability sessions -> JSON / console text.

The JSON artifact is the canonical form (schema ``repro.obs/v1``): one
document holding the manifest, every metric family snapshot, and the span
profile tree.  The console summary renders the same data for humans from
the JSON-shaped dict, so ``repro obs summary file.json`` round-trips.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.manifest import SCHEMA, RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = [
    "session_snapshot",
    "export_json",
    "console_summary",
    "load_json",
]


def session_snapshot(
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
    manifest: RunManifest | None = None,
) -> dict:
    """The canonical export dict for one observability session."""
    return {
        "schema": SCHEMA,
        "manifest": manifest.to_dict() if manifest is not None else None,
        "metrics": registry.collect(),
        "spans": tracer.snapshot() if tracer is not None else None,
    }


def export_json(
    path: str | Path,
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
    manifest: RunManifest | None = None,
) -> Path:
    """Write the session to *path* as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = session_snapshot(registry, tracer, manifest)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: str | Path) -> dict:
    """Read an exported session back (validates the schema tag)."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not a repro.obs export (schema={doc.get('schema')!r}, "
            f"expected {SCHEMA!r})"
        )
    return doc


def _format_spans(node: dict, depth: int, total: float, lines: list[str]) -> None:
    pct = 100.0 * node["total_s"] / total if total > 0 else 0.0
    lines.append(
        f"  {'  ' * depth}{node['name']:<{max(36 - 2 * depth, 8)}s} "
        f"{node['total_s']:9.4f}s {pct:5.1f}%  x{node['count']}"
    )
    for child in node.get("children", ()):
        _format_spans(child, depth + 1, total, lines)


def console_summary(doc: dict, top: int = 8) -> str:
    """Human-readable rendering of an export dict (see :func:`load_json`)."""
    lines: list[str] = []
    manifest = doc.get("manifest")
    if manifest:
        git = (manifest.get("git") or "?")[:12]
        lines.append(
            f"run: git={git} python={manifest.get('python', '?')} "
            f"seed={manifest.get('seed')}"
        )
        topo = manifest.get("topology") or {}
        if topo:
            lines.append(
                f"topology: {topo.get('name', '?')} "
                f"({topo.get('routers')} routers, {topo.get('links')} links, "
                f"{topo.get('endpoints')} endpoints)"
            )
    metrics = doc.get("metrics") or []
    if metrics:
        lines.append("")
        lines.append(f"metrics ({len(metrics)} families):")
        for fam in metrics:
            samples = fam["samples"]
            if fam["type"] == "histogram":
                for s in samples:
                    label = _label_suffix(s)
                    mean = s["sum"] / s["count"] if s["count"] else 0.0
                    lines.append(
                        f"  {fam['name']}{label}: count={s['count']} "
                        f"mean={mean:.2f} min={s['min']} max={s['max']}"
                    )
            elif len(samples) > top:
                values = sorted(
                    samples, key=lambda s: s["value"], reverse=True
                )
                total = sum(s["value"] for s in samples)
                lines.append(
                    f"  {fam['name']}: {len(samples)} series, total={total:g}, "
                    f"top {top}:"
                )
                for s in values[:top]:
                    lines.append(f"    {_label_suffix(s) or '(unlabeled)'}: {s['value']:g}")
            else:
                for s in samples:
                    lines.append(f"  {fam['name']}{_label_suffix(s)}: {s['value']:g}")
    spans = doc.get("spans")
    if spans and spans.get("children"):
        total = sum(c["total_s"] for c in spans["children"])
        lines.append("")
        lines.append("span profile (wall clock):")
        for child in spans["children"]:
            _format_spans(child, 0, total, lines)
    return "\n".join(lines) if lines else "(empty observability session)"


def _label_suffix(sample: dict) -> str:
    labels = sample.get("labels") or {}
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"
