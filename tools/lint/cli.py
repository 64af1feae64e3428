"""Command-line entry point and programmatic runner for repro-lint.

``python -m tools.lint src tests benchmarks examples`` walks the given
files/directories, runs every enabled rule in scope for each file, prints
violations sorted by location, and exits nonzero iff any *error*-severity
violation survives suppression filtering.

``--program`` additionally runs the whole-program passes
(:mod:`tools.lint.program`): the sanctioned-call contracts, layering,
determinism taint and concurrency safety.  ``--format json|sarif`` emits
machine-readable output; both formats are byte-deterministic (findings
sorted by path/line/col/rule) regardless of filesystem or argument order.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from tools.lint.config import ALWAYS_EXCLUDE, LintConfig, load_config, path_in_scope
from tools.lint.core import (
    ModuleContext,
    Rule,
    Suppressions,
    Violation,
    all_rules,
    get_rule,
)
from tools.lint.output import format_json, format_sarif, sort_violations

__all__ = ["discover_files", "lint_file", "run_paths", "main"]


def discover_files(paths: Sequence[str], config: LintConfig) -> list[Path]:
    """Expand CLI path arguments into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file() and p.suffix == ".py":
            out.add(p)
        elif p.is_dir():
            out.update(f for f in p.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    kept = []
    for f in sorted(out):
        rel = _relative(f, config.root)
        parts = Path(rel).parts
        if any(part in ALWAYS_EXCLUDE or part.endswith(".egg-info") for part in parts):
            continue
        if any(path_in_scope(rel, (ex,)) for ex in config.exclude):
            continue
        kept.append(f)
    return kept


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _build_rules(config: LintConfig, select: set[str], ignore: set[str]) -> list[Rule]:
    rules: list[Rule] = []
    for cls in all_rules():
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


def lint_file(path: Path, rules: Sequence[Rule], config: LintConfig) -> list[Violation]:
    """Run every in-scope rule on one file; returns surviving violations."""
    rel = _relative(path, config.root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(
                rule="RL000",
                name="parse-error",
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"cannot parse: {exc.msg}",
            )
        ]
    ctx = ModuleContext(str(path), source, tree)
    suppressions = Suppressions(source, tree)
    found: list[Violation] = []
    for rule in rules:
        prefixes = rule.options.get("paths")
        scope = tuple(prefixes) if prefixes is not None else rule.default_paths
        if not path_in_scope(rel, scope):
            continue
        for violation in rule.check(ctx):
            if not suppressions.is_suppressed(violation):
                found.append(violation.with_severity(rule.severity))
    return found


def run_paths(
    paths: Sequence[str],
    root: Path | None = None,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    program: bool = False,
    use_cache: bool = True,
) -> tuple[list[Violation], int]:
    """Lint *paths*; returns ``(violations, files_checked)``.

    This is the programmatic API the test suite uses; ``main`` is a thin
    argv/printing wrapper around it.  With ``program=True`` the
    whole-program passes run after the per-file rules.
    """
    root = root or Path.cwd()
    config = load_config(root)
    rules = _build_rules(config, select or set(), ignore or set())
    files = discover_files(paths, config)
    violations: list[Violation] = []
    for f in files:
        violations.extend(lint_file(f, rules, config))
    if program:
        from tools.lint.program.engine import analyze_program

        violations.extend(
            analyze_program(files, root, config, select, ignore, use_cache=use_cache)
        )
    violations = sort_violations(violations)
    return violations, len(files)


def _print_rule_catalog() -> None:
    from tools.lint.program.base import all_program_rules

    for cls in all_rules():
        scope = ", ".join(cls.default_paths) if cls.default_paths else "all files"
        print(f"{cls.code}  {cls.name}  [{cls.severity}]  (scope: {scope})")
        print(f"       {cls.description}")
    print("\nwhole-program passes (--program):")
    for cls in all_program_rules():
        scope = ", ".join(cls.default_paths) if cls.default_paths else "all files"
        print(f"{cls.code}  {cls.name}  [{cls.severity}]  (scope: {scope})")
        print(f"       {cls.description}")


def _known_rule(name: str) -> bool:
    try:
        get_rule(name)
        return True
    except KeyError:
        pass
    from tools.lint.program.base import get_program_rule

    try:
        get_program_rule(name)
        return True
    except KeyError:
        return False


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="repro-lint: domain-aware static analysis for this repo",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule codes/names to run exclusively",
    )
    parser.add_argument(
        "--ignore", default="", help="comma-separated rule codes/names to skip"
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print a per-rule violation count summary",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root holding pyproject.toml (default: cwd)",
    )
    parser.add_argument(
        "--program",
        action="store_true",
        help="also run the whole-program passes (sanctioned calls, layering, "
        "determinism taint, concurrency safety)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (json/sarif are byte-deterministic)",
    )
    parser.add_argument(
        "--output",
        default="",
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the whole-program analysis cache",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rule_catalog()
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m tools.lint src tests)")

    select = {s.strip() for s in args.select.split(",") if s.strip()}
    ignore = {s.strip() for s in args.ignore.split(",") if s.strip()}
    for name in select | ignore:
        if not _known_rule(name):
            parser.error(f"unknown rule {name!r} (see --list-rules)")

    root = Path(args.root)
    # Relative path arguments are relative to --root, so the CI invocation
    # works unchanged from any working directory.
    paths = [p if Path(p).is_absolute() else str(root / p) for p in args.paths]
    try:
        violations, files_checked = run_paths(
            paths,
            root=root,
            select=select,
            ignore=ignore,
            program=args.program,
            use_cache=not args.no_cache,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    errors = sum(1 for v in violations if v.severity == "error")
    warnings = len(violations) - errors

    if args.format == "json":
        report = format_json(violations, files_checked)
    elif args.format == "sarif":
        report = format_sarif(violations, root=root)
    else:
        lines = [v.format() for v in violations]
        if args.statistics and violations:
            counts = Counter(f"{v.rule} [{v.name}]" for v in violations)
            lines.append("\nper-rule counts:")
            for key, count in counts.most_common():
                lines.append(f"  {count:4d}  {key}")
        lines.append(
            f"repro-lint: {files_checked} files checked, "
            f"{errors} errors, {warnings} warnings"
        )
        report = "\n".join(lines) + "\n"

    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
        if args.format == "text":
            print(f"repro-lint: report written to {args.output}")
    else:
        sys.stdout.write(report)

    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
