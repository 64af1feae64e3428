"""Program-rule base class and registry.

Program rules see the whole :class:`~tools.lint.program.model.ProjectModel`
plus the resolved :class:`~tools.lint.program.callgraph.CallGraph` instead
of one module at a time.  They live in a registry separate from the
per-file rules; no code is in both catalogs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import SEVERITIES, Violation

from tools.lint.program.callgraph import CallGraph
from tools.lint.program.model import ModuleInfo, ProjectModel

__all__ = [
    "ProgramRule",
    "register_program",
    "all_program_rules",
    "get_program_rule",
]


class ProgramRule:
    """Base class for whole-program passes.

    Mirrors :class:`tools.lint.core.Rule` (code/name/severity/default_paths
    and the pyproject overrides), but :meth:`check` receives the project
    model and call graph.
    """

    code: str = ""
    name: str = ""
    severity: str = "error"
    default_paths: tuple[str, ...] | None = None
    description: str = ""

    def __init__(self, options: dict | None = None):
        self.options = dict(options or {})

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        raise NotImplementedError

    def flag(
        self, mod: ModuleInfo, node: ast.AST | None, message: str,
        line: int | None = None, col: int | None = None,
    ) -> Violation:
        return Violation(
            rule=self.code,
            name=self.name,
            path=mod.path,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=col if col is not None else getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
        )


_PROGRAM_REGISTRY: dict[str, type[ProgramRule]] = {}


def register_program(cls: type[ProgramRule]) -> type[ProgramRule]:
    """Class decorator adding a pass to the program-rule registry."""
    if not cls.code or not cls.name:
        raise ValueError(f"program rule {cls.__name__} must define code and name")
    if cls.code in _PROGRAM_REGISTRY:
        raise ValueError(f"duplicate program rule code {cls.code}")
    if cls.severity not in SEVERITIES:
        raise ValueError(
            f"program rule {cls.code} has unknown severity {cls.severity!r}"
        )
    _PROGRAM_REGISTRY[cls.code] = cls
    return cls


def _ensure_passes_loaded() -> None:
    # Importing the pass modules triggers @register_program on each pass.
    from tools.lint.program import (  # noqa: F401
        concurrency,
        contracts,
        determinism,
        sanctioned,
    )


def all_program_rules() -> list[type[ProgramRule]]:
    """Every registered program pass, sorted by code."""
    _ensure_passes_loaded()
    return [_PROGRAM_REGISTRY[code] for code in sorted(_PROGRAM_REGISTRY)]


def get_program_rule(code_or_name: str) -> type[ProgramRule]:
    """Look up a program pass by code (``RL210``) or slug."""
    _ensure_passes_loaded()
    if code_or_name in _PROGRAM_REGISTRY:
        return _PROGRAM_REGISTRY[code_or_name]
    for cls in _PROGRAM_REGISTRY.values():
        if cls.name == code_or_name:
            return cls
    raise KeyError(f"unknown program rule {code_or_name!r}")
