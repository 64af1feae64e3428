"""Public-API hygiene rules (RL3xx).

The package is star-imported by experiment drivers and the related-work
extensions keep adding supernodes and routing schemes; a module without an
explicit ``__all__`` or docstrings has no stable surface to extend against.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import ModuleContext, Rule, Violation, register

__all__ = [
    "MissingAll",
    "StaleAll",
    "UndocumentedPublic",
    "AssertInLib",
]


def _find_all_assignment(ctx: ModuleContext) -> ast.expr | None:
    """The value node of a top-level ``__all__ = ...`` (or annotated form)."""
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == "__all__"
                and node.value is not None
            ):
                return node.value
    return None


def _top_level_bindings(ctx: ModuleContext) -> set[str]:
    """Every name bound at module top level (defs, classes, assigns, imports)."""
    names: set[str] = set()
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
    return names


@register
class MissingAll(Rule):
    """Public modules must declare ``__all__``.

    An explicit export list is the module's API contract: it keeps
    ``from m import *`` bounded, makes the docs generator authoritative,
    and turns accidental exports into review-visible diffs.
    """

    code = "RL301"
    name = "missing-all"
    severity = "error"
    default_paths = ("src/repro",)
    description = "public library modules must declare an explicit __all__"

    #: module file names exempt (script entry points).
    EXEMPT = ("__main__.py",)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        filename = ctx.path.rsplit("/", 1)[-1]
        if filename in self.EXEMPT:
            return
        if filename.startswith("_") and filename != "__init__.py":
            return
        if _find_all_assignment(ctx) is None:
            yield self.flag(
                ctx,
                ctx.tree.body[0] if ctx.tree.body else ctx.tree,
                "public module does not declare __all__; list the intended "
                "API surface explicitly",
            )


@register
class StaleAll(Rule):
    """Every ``__all__`` entry must resolve to a top-level binding."""

    code = "RL302"
    name = "stale-all"
    severity = "error"
    description = (
        "__all__ must be a literal list/tuple of strings naming objects "
        "actually defined or imported in the module"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        value = _find_all_assignment(ctx)
        if value is None:
            return
        if not isinstance(value, (ast.List, ast.Tuple)):
            yield self.flag(
                ctx,
                value,
                "__all__ is not a literal list/tuple; repro-lint (and "
                "readers) cannot verify the export surface",
            )
            return
        bound = _top_level_bindings(ctx)
        for elt in value.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                yield self.flag(ctx, elt, "__all__ entries must be string literals")
                continue
            if elt.value not in bound:
                yield self.flag(
                    ctx,
                    elt,
                    f"__all__ exports {elt.value!r} which is not defined or "
                    "imported at module top level",
                )


@register
class UndocumentedPublic(Rule):
    """Public functions and classes need docstrings.

    Scoped to the experiment drivers by default: each one reproduces a
    specific figure/table and the docstring is where the paper reference
    (figure number, section) lives.
    """

    code = "RL303"
    name = "undocumented-public"
    severity = "error"
    default_paths = ("src/repro/experiments",)
    description = (
        "public functions/classes must carry a docstring naming what they "
        "compute (for experiments: the figure/table reproduced)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ctx.top_level(ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef):
            if node.name.startswith("_"):
                continue
            if ast.get_docstring(node) is None:
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                yield self.flag(
                    ctx,
                    node,
                    f"public {kind} {node.name!r} has no docstring",
                )


@register
class AssertInLib(Rule):
    """``assert`` in library code disappears under ``python -O``.

    The production target runs optimized; an invariant worth asserting in
    ``src/`` is worth a real ``raise``.  Tests and benchmarks (pytest
    asserts) are out of scope by construction.
    """

    code = "RL304"
    name = "assert-in-lib"
    severity = "error"
    default_paths = ("src/repro",)
    description = (
        "assert statements are stripped under python -O; library "
        "invariants must raise explicitly"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.flag(
                    ctx,
                    node,
                    "assert in library code is removed by python -O; raise "
                    "ValueError/RuntimeError instead",
                )
