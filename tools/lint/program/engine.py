"""Whole-program engine: orchestration, suppression filtering, caching.

:func:`analyze_program` builds the project model and call graph over the
discovered files, runs every enabled program pass, filters findings
through the same suppression comments the per-file rules honor, and
returns them sorted by location.

Because model + call-graph construction reads every file, results are
cached under ``<root>/.repro-lint-cache/`` keyed by a content hash over
(engine version, per-file source digests, effective rule options,
select/ignore sets).  Any edit to any analyzed file, to the configuration,
or to the engine itself changes the key; stale entries are pruned.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

from tools.lint.config import LintConfig, path_in_scope
from tools.lint.core import Suppressions, Violation

from tools.lint.program.base import ProgramRule, all_program_rules
from tools.lint.program.callgraph import CallGraph
from tools.lint.program.model import build_project_model

__all__ = ["ENGINE_VERSION", "analyze_program", "build_program_rules"]

#: Bump when pass semantics change: invalidates every cache entry.
ENGINE_VERSION = 4

#: How many cache entries to keep (newest first).
_CACHE_KEEP = 8


def build_program_rules(
    config: LintConfig, select: set[str], ignore: set[str]
) -> list[ProgramRule]:
    """Instantiate enabled program passes, mirroring the per-file builder."""
    rules: list[ProgramRule] = []
    for cls in all_program_rules():
        options = config.options_for(cls.code, cls.name)
        if select and cls.code not in select and cls.name not in select:
            continue
        if cls.code in ignore or cls.name in ignore:
            continue
        if not options.get("enabled", True):
            continue
        rule = cls(options)
        if "severity" in options:
            rule.severity = options["severity"]
        rules.append(rule)
    return rules


def _cache_key(
    files: Sequence[Path],
    config: LintConfig,
    rules: Sequence[ProgramRule],
    select: set[str],
    ignore: set[str],
) -> str:
    digests = []
    for f in sorted(files):
        try:
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
        except OSError:
            digest = "unreadable"
        digests.append([f.as_posix(), digest])
    payload = {
        "engine": ENGINE_VERSION,
        "files": digests,
        "options": {r.code: r.options for r in rules},
        "severities": {r.code: r.severity for r in rules},
        "select": sorted(select),
        "ignore": sorted(ignore),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _cache_load(cache_file: Path) -> list[Violation] | None:
    try:
        data = json.loads(cache_file.read_text(encoding="utf-8"))
        return [Violation(**entry) for entry in data["violations"]]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_store(cache_dir: Path, key: str, violations: list[Violation]) -> None:
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "engine": ENGINE_VERSION,
            "violations": [vars(v) for v in violations],
        }
        tmp = cache_dir / f".tmp-{key}"
        tmp.write_text(json.dumps(payload, indent=0), encoding="utf-8")
        tmp.replace(cache_dir / f"program-{key}.json")
        entries = sorted(
            cache_dir.glob("program-*.json"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        for stale in entries[_CACHE_KEEP:]:
            stale.unlink(missing_ok=True)
    except OSError:
        pass  # caching is best-effort; analysis results already exist


def analyze_program(
    files: Sequence[Path],
    root: Path,
    config: LintConfig,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    use_cache: bool = True,
) -> list[Violation]:
    """Run every enabled program pass over *files*; returns sorted findings."""
    select = select or set()
    ignore = ignore or set()
    rules = build_program_rules(config, select, ignore)
    if not rules:
        return []
    cache_dir = root / ".repro-lint-cache"
    key = _cache_key(files, config, rules, select, ignore)
    if use_cache:
        cached = _cache_load(cache_dir / f"program-{key}.json")
        if cached is not None:
            return cached

    model = build_project_model(root, list(files))
    graph = CallGraph(model)
    suppressions: dict[str, Suppressions] = {}

    def suppressed(v: Violation) -> bool:
        if v.path not in suppressions:
            mod = next(
                (m for m in model.modules.values() if m.path == v.path), None
            )
            suppressions[v.path] = Suppressions(
                mod.source if mod else "", mod.tree if mod else None
            )
        return suppressions[v.path].is_suppressed(v)

    found: list[Violation] = []
    for rule in rules:
        prefixes = rule.options.get("paths")
        scope = tuple(prefixes) if prefixes is not None else rule.default_paths
        for violation in rule.check(model, graph):
            mod = model.module_for_path(_relative(Path(violation.path), root))
            rel = mod.rel_path if mod else _relative(Path(violation.path), root)
            if not path_in_scope(rel, scope):
                continue
            if suppressed(violation):
                continue
            found.append(violation.with_severity(rule.severity))

    seen: set[tuple[str, int, int, str]] = set()
    unique: list[Violation] = []
    for v in sorted(found, key=lambda v: (v.path, v.line, v.col, v.rule)):
        ident = (v.path, v.line, v.col, v.rule)
        if ident in seen:
            continue
        seen.add(ident)
        unique.append(v)
    if use_cache:
        _cache_store(cache_dir, key, unique)
    return unique


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
