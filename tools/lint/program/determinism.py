"""RL210: interprocedural determinism taint.

The runtime guarantees byte-identical resume and jobs-N == jobs-1 output;
both only hold if nothing on the path from a trial entry point to its
result record depends on wall clocks, unseeded RNGs, OS entropy or
filesystem iteration order.  This pass marks those *taint sources*,
propagates taint along the resolved call graph, and reports every trial
sink (``run_trial`` / ``plan_trials`` / ``merge_trials``) that can reach
one — with the call chain in the message so the fix site is obvious.

``repro.obs`` is exempt by design: it owns the clock, and its timing data
lands in the metrics sidecar, not in result payloads.  ``sorted(...)``
directly wrapping a globbing call neutralizes the iteration-order hazard.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from tools.lint.core import Violation

from tools.lint.program.base import ProgramRule, register_program
from tools.lint.program.callgraph import CallGraph, CallSite
from tools.lint.program.model import FunctionInfo, ProjectModel

__all__ = ["DeterminismTaint"]

#: Resolved callables that read the wall clock.
_WALL_CLOCK = frozenset(
    f"time.{fn}"
    for fn in (
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "thread_time", "thread_time_ns",
    )
)

#: Resolved callables that draw OS entropy / per-run identifiers.
_ENTROPY = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: Resolved callables returning paths in filesystem iteration order.
_FS_ORDER = frozenset(
    {"glob.glob", "glob.iglob", "os.listdir", "os.scandir", "os.walk"}
)

#: Method names (receiver type unknown) returning fs-ordered iterables.
_FS_ORDER_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: Wrappers that make iteration order irrelevant.
_ORDER_INSENSITIVE = frozenset({"sorted", "len", "sum", "min", "max", "any", "all"})


@dataclass
class _Taint:
    """Why a function is tainted: a source description plus a location."""

    description: str
    rel_path: str
    lineno: int
    chain: tuple[str, ...]  # function ids from the function down to the source


def _parent_map(fn_node: ast.AST) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(fn_node):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _sorted_wrapped(node: ast.Call, parents: dict[int, ast.AST]) -> bool:
    parent = parents.get(id(node))
    if isinstance(parent, ast.Starred):
        parent = parents.get(id(parent))
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in _ORDER_INSENSITIVE
        and node in parent.args
    )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register_program
class DeterminismTaint(ProgramRule):
    """Trial sinks must be unreachable from nondeterministic sources."""

    code = "RL210"
    name = "determinism-taint"
    severity = "error"
    default_paths = ("src/repro",)
    description = (
        "interprocedural determinism taint: run_trial/plan_trials/"
        "merge_trials must not reach wall clocks, unseeded RNGs, OS "
        "entropy or filesystem-ordered iteration"
    )

    #: functions that feed trial results / journal records / --out artifacts.
    SINKS = ("run_trial", "plan_trials", "merge_trials")
    #: modules whose internals are never treated as tainted.
    EXEMPT_MODULES = ("repro.obs",)

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        memo: dict[str, _Taint | None] = {}

        def module_exempt(func_id: str) -> bool:
            return any(
                func_id == m or func_id.startswith(m + ".")
                for m in self.EXEMPT_MODULES
            )

        def direct_sources(fn: FunctionInfo) -> _Taint | None:
            mod = model.modules[fn.module]
            parents = _parent_map(fn.node)
            for site in graph.callees(fn.func_id):
                hit = self._classify_source(site, parents)
                if hit is not None:
                    return _Taint(hit, mod.rel_path, site.lineno, (fn.func_id,))
            for node in ast.walk(fn.node):
                target = None
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    target = node.iter
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                       ast.GeneratorExp)):
                    target = node.generators[0].iter
                if target is not None and _is_set_expr(target):
                    return _Taint(
                        "iteration over a set (order is hash-randomized "
                        "across processes)",
                        mod.rel_path,
                        node.lineno,
                        (fn.func_id,),
                    )
            return None

        def taint_of(func_id: str, stack: frozenset[str]) -> _Taint | None:
            if func_id in memo:
                return memo[func_id]
            if func_id in stack or module_exempt(func_id):
                return None
            fn = graph.functions.get(func_id)
            if fn is None:
                return None
            memo[func_id] = None  # cycle guard; refined below
            taint = direct_sources(fn)
            if taint is None:
                for site in graph.project_callees(func_id):
                    sub = taint_of(site.target.func_id, stack | {func_id})
                    if sub is not None:
                        taint = _Taint(
                            sub.description,
                            sub.rel_path,
                            sub.lineno,
                            (func_id, *sub.chain),
                        )
                        break
            memo[func_id] = taint
            return taint

        for func_id in sorted(graph.functions):
            fn = graph.functions[func_id]
            if fn.name not in self.SINKS or fn.class_name is not None:
                continue
            mod = model.modules[fn.module]
            if not mod.rel_path.startswith("src/repro"):
                continue
            taint = taint_of(func_id, frozenset())
            if taint is None:
                continue
            chain = " -> ".join(taint.chain)
            yield self.flag(
                mod,
                fn.node,
                f"trial sink {fn.name!r} can reach a nondeterministic "
                f"source: {taint.description} at {taint.rel_path}:"
                f"{taint.lineno} (call chain {chain}); seed it, sort it, "
                "or route it through repro.obs",
            )

    @staticmethod
    def _classify_source(site: CallSite, parents: dict[int, ast.AST]) -> str | None:
        r = site.resolved
        unseeded = not site.node.args and not site.node.keywords
        if r is not None:
            if r in _WALL_CLOCK:
                return f"wall-clock read {r}()"
            if r in _ENTROPY:
                return f"OS entropy {r}()"
            if r.startswith("random.") and r.count(".") == 1:
                return f"stdlib global-state RNG {r}()"
            if r.split(".")[-1] == "default_rng" and unseeded:
                return "unseeded default_rng()"
            if r in _FS_ORDER and not _sorted_wrapped(site.node, parents):
                return f"filesystem-ordered {r}()"
        last = site.raw.rsplit(".", 1)[-1]
        if (
            "." in site.raw
            and last in _FS_ORDER_METHODS
            and not _sorted_wrapped(site.node, parents)
        ):
            return f"filesystem-ordered .{last}()"
        if r is None and last == "default_rng" and unseeded:
            return "unseeded default_rng()"
        return None
