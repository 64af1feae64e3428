"""repro-lint framework core: rules, violations, registry, suppressions.

A :class:`Rule` inspects one parsed module (a :class:`ModuleContext`) and
yields :class:`Violation` records.  Rules are registered with the
:func:`register` decorator and addressed by a stable code (``RL101``) plus a
human slug (``contract-validation``); either form works in suppression
comments and ``--select``/``--ignore``.

Suppressions are source comments::

    risky_call()  # repro-lint: disable=RL202
    # repro-lint: disable-file=missing-all        (anywhere in the file)

``disable=all`` silences every rule for the line (or file).
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "SEVERITIES",
    "Violation",
    "Suppressions",
    "ModuleContext",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "dotted_name",
    "matches_any",
]

#: Recognized severities, in decreasing order of gravity.  ``error``
#: violations fail the CI gate; ``warning`` violations are reported only.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location."""

    rule: str  # stable code, e.g. "RL203"
    name: str  # human slug, e.g. "implicit-dtype"
    path: str  # path as given on the command line
    line: int
    col: int
    message: str
    severity: str = "error"

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.name}] {self.message}"
        )

    def with_severity(self, severity: str) -> "Violation":
        return dataclasses.replace(self, severity=severity)


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_*,\- ]+)"
)

#: Statements with a body: only their *header* lines participate in
#: suppression-span mapping (a comment inside the body must not silence a
#: finding reported at the header line).
_COMPOUND_STMTS = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


class Suppressions:
    """Per-file index of ``# repro-lint: disable`` comments.

    When the parsed *tree* is supplied, an inline suppression anywhere in a
    multi-line statement's span also covers findings reported at the
    statement's first line — a ``disable=`` comment on the continuation
    line of a wrapped call suppresses the violation flagged at the call's
    opening line.  For compound statements (``def``/``if``/``with``/...)
    only the header lines count, so a comment deep inside a function body
    never silences a finding on the ``def`` line itself.
    """

    def __init__(self, source: str, tree: ast.Module | None = None):
        self.line_rules: dict[int, set[str]] = {}
        self.file_rules: set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            m = _SUPPRESS_RE.search(text)
            if m is None:
                continue
            rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
            if m.group("scope"):
                self.file_rules |= rules
            else:
                self.line_rules.setdefault(lineno, set()).update(rules)
        if tree is not None and self.line_rules:
            self._extend_to_statement_spans(tree)

    def _extend_to_statement_spans(self, tree: ast.Module) -> None:
        """Map suppressions on continuation lines back to statement starts."""
        comment_lines = set(self.line_rules)
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            start = node.lineno
            if isinstance(node, _COMPOUND_STMTS):
                # Header only: first body statement marks where it ends.
                body = getattr(node, "body", None)
                end = (body[0].lineno - 1) if body else (node.end_lineno or start)
            else:
                end = node.end_lineno or start
            for line in comment_lines:
                if start < line <= end:
                    self.line_rules.setdefault(start, set()).update(
                        self.line_rules[line]
                    )

    def is_suppressed(self, violation: Violation) -> bool:
        for pool in (self.file_rules, self.line_rules.get(violation.line, ())):
            if (
                "all" in pool
                or violation.rule in pool
                or violation.name in pool
            ):
                return True
        return False


class ModuleContext:
    """A parsed module handed to each rule.

    Attributes
    ----------
    path:
        Path string exactly as discovered (used in reports).
    source, lines, tree:
        Raw text, split lines, and the parsed :mod:`ast` tree.
    """

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def top_level(self, *types: type) -> Iterator[ast.stmt]:
        for node in self.tree.body:
            if not types or isinstance(node, tuple(types)):
                yield node


class Rule:
    """Base class for repro-lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``default_paths`` scopes the rule to path prefixes (POSIX, relative to
    the repo root); ``None`` applies everywhere.  Both the scoping and the
    severity can be overridden from ``[tool.repro-lint.rules.<CODE>]`` in
    ``pyproject.toml``.
    """

    code: str = ""
    name: str = ""
    severity: str = "error"
    default_paths: tuple[str, ...] | None = None
    description: str = ""

    def __init__(self, options: dict | None = None):
        #: ``enabled``/``severity``/``paths`` merged from pyproject.
        self.options = dict(options or {})

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    def flag(self, ctx: ModuleContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.code,
            name=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code or not cls.name:
        raise ValueError(f"rule {cls.__name__} must define code and name")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    if any(r.name == cls.name for r in _REGISTRY.values()):
        raise ValueError(f"duplicate rule name {cls.name}")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.code} has unknown severity {cls.severity!r}")
    _REGISTRY[cls.code] = cls
    return cls


def _ensure_rules_loaded() -> None:
    # Importing the rules package triggers @register on every catalog rule.
    import tools.lint.rules  # noqa: F401  (import for side effect)


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, sorted by code."""
    _ensure_rules_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code_or_name: str) -> type[Rule]:
    """Look up a rule by code (``RL203``) or slug (``implicit-dtype``)."""
    _ensure_rules_loaded()
    if code_or_name in _REGISTRY:
        return _REGISTRY[code_or_name]
    for cls in _REGISTRY.values():
        if cls.name == code_or_name:
            return cls
    raise KeyError(f"unknown rule {code_or_name!r}")


# -- shared AST helpers ------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """Resolve ``a.b.c`` attribute chains to the string ``"a.b.c"``.

    Returns ``None`` for anything that is not a pure Name/Attribute chain
    (calls, subscripts, ...).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def matches_any(name: str, patterns: Iterable[str]) -> bool:
    """``fnmatch`` against any of *patterns* (exact names are patterns too)."""
    return any(fnmatch.fnmatchcase(name, pat) for pat in patterns)
