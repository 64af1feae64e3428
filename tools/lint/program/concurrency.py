"""Concurrency-safety passes for the spawn-based worker pool (RL31x).

The runtime (PR 5) executes trials in ``spawn`` workers: each worker is a
fresh interpreter, module globals are re-initialized per process, and
anything crossing the process boundary must pickle.  Three passes police
that architecture:

- RL310 ``worker-shared-state``: a function reachable from a worker entry
  point mutates module-level mutable state.  Under ``spawn`` each worker
  mutates its *own* copy — the write is silently lost to the parent and to
  sibling workers, and results depend on which process ran what.
- RL311 ``fork-unsafe``: process primitives that default to (or request)
  the ``fork`` start method, which clones lock and RNG state mid-flight.
- RL312 ``spawn-unsafe-capture``: worker targets / pool submissions that
  capture unpicklable callables (lambdas, nested functions) and therefore
  cannot cross a spawn boundary at all.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import Violation

from tools.lint.program.base import ProgramRule, register_program
from tools.lint.program.callgraph import CallGraph, _local_shadows
from tools.lint.program.model import ProjectModel

__all__ = ["WorkerSharedState", "ForkUnsafe", "SpawnUnsafeCapture"]

#: Fully-qualified functions that enter worker processes.
_ENTRYPOINT_IDS = ("repro.runtime.pool.worker_main", "repro.runtime.plan.execute_trial")
#: Function names that are worker entry points wherever they live (the
#: plan layer dispatches to per-experiment run_trial via importlib, so the
#: call edge is invisible to the static graph).
_ENTRYPOINT_NAMES = ("run_trial",)

#: Mutating method names on lists/dicts/sets.
_MUTATORS = frozenset(
    {"append", "add", "update", "extend", "insert", "setdefault",
     "pop", "popitem", "remove", "discard", "clear", "appendleft"}
)

_POOL_SUBMIT = frozenset(
    {"apply", "apply_async", "map", "map_async", "starmap", "starmap_async",
     "imap", "imap_unordered", "submit"}
)


def worker_reachable(model: ProjectModel, graph: CallGraph) -> set[str]:
    """Function ids reachable from the worker entry points."""
    roots: list[str] = []
    for func_id, fn in graph.functions.items():
        if func_id in _ENTRYPOINT_IDS:
            roots.append(func_id)
        elif fn.name in _ENTRYPOINT_NAMES and fn.class_name is None:
            roots.append(func_id)
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for site in graph.project_callees(cur):
            if site.target is not None and site.target.func_id not in seen:
                stack.append(site.target.func_id)
    return seen


def _declared_globals(fn_node: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


@register_program
class WorkerSharedState(ProgramRule):
    """RL310: worker-reachable code mutating module-level state."""

    code = "RL310"
    name = "worker-shared-state"
    severity = "error"
    default_paths = ("src/repro",)
    description = (
        "functions reachable from worker entry points must not mutate "
        "module-level mutable state; spawn workers each mutate a private "
        "copy and the write never reaches the parent or siblings"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        reachable = worker_reachable(model, graph)
        for func_id in sorted(reachable):
            fn = graph.functions.get(func_id)
            if fn is None:
                continue
            mod = model.modules[fn.module]
            if not mod.rel_path.startswith("src/repro"):
                continue
            declared = _declared_globals(fn.node)
            shadows = _local_shadows(fn.node) - declared
            for node in ast.walk(fn.node):
                hit = self._mutation(node, mod.mutable_globals, shadows, declared,
                                     mod.toplevel_names)
                if hit is None:
                    continue
                name, verb = hit
                origin = mod.mutable_globals.get(name)
                defined = f" (defined at line {origin[0]})" if origin else ""
                yield self.flag(
                    mod,
                    node,
                    f"worker-reachable function {fn.qualname!r} {verb} "
                    f"module-level state {name!r}{defined}; under spawn each "
                    "worker mutates a private copy — pass state through "
                    "task payloads or the artifact store instead",
                )

    @staticmethod
    def _mutation(
        node: ast.AST,
        mutable_globals: dict[str, tuple[int, str]],
        shadows: set[str],
        declared: set[str],
        toplevel: set[str],
    ) -> tuple[str, str] | None:
        def is_global(name: str) -> bool:
            if name in declared:
                return name in toplevel or name in mutable_globals
            return name in mutable_globals and name not in shadows

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv = node.func.value
            if (
                isinstance(recv, ast.Name)
                and node.func.attr in _MUTATORS
                and is_global(recv.id)
            ):
                return recv.id, f"calls .{node.func.attr}() on"
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                    if is_global(t.value.id):
                        return t.value.id, "assigns into"
                if isinstance(t, ast.Name) and t.id in declared and (
                    t.id in toplevel or t.id in mutable_globals
                ):
                    return t.id, "rebinds (via `global`)"
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                    if is_global(t.value.id):
                        return t.value.id, "deletes from"
        return None


@register_program
class ForkUnsafe(ProgramRule):
    """RL311: process primitives that use (or allow) the fork start method."""

    code = "RL311"
    name = "fork-unsafe"
    severity = "error"
    default_paths = ("src/repro",)
    description = (
        "process creation must request the spawn start method explicitly; "
        "fork clones locks, RNG streams and file descriptors mid-flight"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for caller in sorted(graph.calls):
            mod = self._module_of(model, caller)
            if mod is None or not mod.rel_path.startswith("src/repro"):
                continue
            for site in graph.calls[caller]:
                r = site.resolved
                if r is None:
                    continue
                msg = None
                if r == "multiprocessing.get_context":
                    method = self._start_method(site.node)
                    if method is None:
                        msg = (
                            "get_context() without a method defaults to fork "
                            'on Linux; request get_context("spawn")'
                        )
                    elif method != "spawn":
                        msg = (
                            f"get_context({method!r}) clones locks and RNG "
                            'state; the runtime contract is get_context("spawn")'
                        )
                elif r in ("multiprocessing.Pool", "multiprocessing.Process"):
                    msg = (
                        f"{r}() uses the default start method (fork on "
                        'Linux); build it from get_context("spawn")'
                    )
                elif r in ("os.fork", "os.forkpty"):
                    msg = f"{r}() is fork-unsafe by definition"
                elif r == "concurrent.futures.ProcessPoolExecutor":
                    if not any(kw.arg == "mp_context" for kw in site.node.keywords):
                        msg = (
                            "ProcessPoolExecutor without mp_context forks on "
                            "Linux; pass mp_context=get_context(\"spawn\")"
                        )
                if msg is not None:
                    yield self.flag(mod, site.node, msg)

    @staticmethod
    def _module_of(model: ProjectModel, caller: str):
        name = caller
        while name and name not in model.modules:
            if "." not in name:
                return None
            name = name.rsplit(".", 1)[0]
        return model.modules.get(name)

    @staticmethod
    def _start_method(node: ast.Call) -> str | None:
        for kw in node.keywords:
            if kw.arg == "method" and isinstance(kw.value, ast.Constant):
                return str(kw.value.value)
        if node.args and isinstance(node.args[0], ast.Constant):
            return str(node.args[0].value)
        return None


@register_program
class SpawnUnsafeCapture(ProgramRule):
    """RL312: worker targets that cannot pickle across a spawn boundary."""

    code = "RL312"
    name = "spawn-unsafe-capture"
    severity = "error"
    default_paths = ("src/repro",)
    description = (
        "Process targets and pool submissions must be module-level "
        "callables; lambdas and nested functions cannot pickle into a "
        "spawn worker"
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for func_id in sorted(graph.functions):
            fn = graph.functions[func_id]
            mod = model.modules[fn.module]
            if not mod.rel_path.startswith("src/repro"):
                continue
            local_lambdas = self._local_lambdas(fn.node)
            nested_defs = {
                n.name
                for n in ast.walk(fn.node)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n is not fn.node
            }
            for site in graph.callees(func_id):
                last = site.raw.rsplit(".", 1)[-1]
                candidates: list[ast.expr] = []
                if last == "Process" or (
                    site.resolved is not None
                    and site.resolved.endswith(".Process")
                ):
                    for kw in site.node.keywords:
                        if kw.arg == "target":
                            candidates.append(kw.value)
                elif last in _POOL_SUBMIT and "." in site.raw and site.node.args:
                    candidates.append(site.node.args[0])
                for value in candidates:
                    reason = None
                    if isinstance(value, ast.Lambda):
                        reason = "a lambda"
                    elif isinstance(value, ast.Name):
                        if value.id in local_lambdas:
                            reason = f"local lambda {value.id!r}"
                        elif value.id in nested_defs:
                            reason = f"nested function {value.id!r}"
                    if reason is not None:
                        yield self.flag(
                            mod,
                            value,
                            f"worker target is {reason}, which cannot pickle "
                            "into a spawn worker; use a module-level function",
                        )

    @staticmethod
    def _local_lambdas(fn_node: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(fn_node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Lambda)
            ):
                names.add(node.targets[0].id)
        return names
