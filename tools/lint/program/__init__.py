"""Whole-program analysis layer for repro-lint.

Where the per-file rules in :mod:`tools.lint.rules` see one module at a
time, this package builds a *project model* — module and symbol tables, an
import graph with cycle detection, and an approximate call graph with alias
resolution — and runs cross-module passes over it:

- the sanctioned-call contracts (RL107, RL108, RL112, RL113, RL115,
  RL206: one table of "calls matching X in context C only in modules Y"),
- architecture contracts (RL109 layering, RL110 dead exports),
- interprocedural determinism taint (RL210),
- concurrency safety for the spawn-based worker pool (RL310-RL312).

Entry point: :func:`tools.lint.program.engine.analyze_program`.
"""

from __future__ import annotations

from tools.lint.program.base import (
    ProgramRule,
    all_program_rules,
    get_program_rule,
    register_program,
)
from tools.lint.program.callgraph import CallGraph
from tools.lint.program.engine import analyze_program
from tools.lint.program.model import ModuleInfo, ProjectModel, build_project_model

__all__ = [
    "ProgramRule",
    "all_program_rules",
    "get_program_rule",
    "register_program",
    "CallGraph",
    "analyze_program",
    "ModuleInfo",
    "ProjectModel",
    "build_project_model",
]
