"""Sanctioned-call contracts: six rule codes, one table, one pass.

RL107, RL108, RL112, RL113, RL115 and RL206 share one shape: *calls
matching these patterns, in this context, are allowed only in these
modules*.  Each clause of each contract is one :class:`Clause` row of
:data:`CLAUSES`; :class:`SanctionedCalls` reads the rows and registers
one program rule per code, so codes, slugs, suppressions and
``--select``/``--ignore`` work as for any other pass.

Every call is matched under two names: as written (``arun``) and as the
:class:`~tools.lint.program.callgraph.CallGraph` resolves it through
imports, aliases and re-exports (``asyncio.run``).  No row needs alias
code of its own, and the message names both when they differ.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable, Iterator

from tools.lint.config import path_in_scope
from tools.lint.core import Violation

from tools.lint.program.base import ProgramRule, register_program
from tools.lint.program.callgraph import MODULE_BODY, CallGraph
from tools.lint.program.model import ModuleInfo, ProjectModel

__all__ = ["CLAUSES", "Clause", "SanctionedCalls"]


@dataclass(frozen=True)
class Clause:
    """Calls matching *callees* in *scope* are flagged outside *allowed*.

    ``context`` narrows the clause to calls inside an ``async def``
    (``"async"``) or inside a ``for``/``while`` whose body holds an
    ``except`` handler (``"retry-loop"``).  ``sanctioned`` names callee
    prefixes that are always fine; ``imports`` names module roots whose
    import is flagged like a call.  All paths are repo-relative prefixes.
    """

    code: str
    scope: tuple[str, ...]
    callees: tuple[str, ...]
    reason: str
    allowed: tuple[str, ...] = ()
    context: str | None = None
    sanctioned: tuple[str, ...] = ()
    imports: tuple[str, ...] = ()


CLAUSES: tuple[Clause, ...] = (
    # Store discipline: experiments, simulators, the CLI and the serving
    # layer resolve topologies, routing tables and bisection cuts through
    # repro.store, never by calling the builders directly (warm runs must
    # be able to skip construction).
    Clause(
        "RL107",
        scope=("src/repro/experiments", "src/repro/sim", "src/repro/cli.py",
               "src/repro/serve"),
        callees=("*_topology", "TableRouter", "*.TableRouter",
                 "build_distance_table", "*.build_distance_table",
                 "min_bisection", "*.min_bisection"),
        sanctioned=("store.", "repro.store.", "provider."),
        reason="bypasses the artifact store; resolve it through repro.store "
        "so warm runs reuse the cached artifact",
    ),
    # Process discipline: only repro.runtime may spawn/fork/exec (the
    # supervised worker pool owns heartbeats, timeouts, retries and the
    # journal that makes runs resumable).
    Clause(
        "RL108",
        scope=("src/repro",),
        allowed=("src/repro/runtime",),
        callees=("multiprocessing", "multiprocessing.*", "subprocess.*",
                 "os.fork*", "os.system", "os.popen", "os.spawn*",
                 "os.posix_spawn*", "os.exec*"),
        imports=("multiprocessing", "subprocess"),
        reason="outside repro.runtime; processes spawned here escape the "
        "supervisor's heartbeats, timeouts and checkpoint journal",
    ),
    # ...and runtime code itself draws randomness from seeded generators,
    # so retry jitter and trial work stay byte-identical across resumes.
    Clause(
        "RL108",
        scope=("src/repro/runtime",),
        callees=("random.*", "default_rng", "*.default_rng"),
        reason="in runtime code is unseeded; worker results must be "
        "reproducible across resumes, so use np.random.default_rng(seed)",
    ),
    # Serve discipline: event-loop creation is confined to the serving
    # front end; everything else stays synchronous and callable anywhere.
    Clause(
        "RL112",
        scope=("src/repro",),
        allowed=("src/repro/serve/server.py",),
        callees=("asyncio.run", "asyncio.new_event_loop",
                 "asyncio.get_event_loop", "asyncio.set_event_loop",
                 "*.run_until_complete", "*.run_forever"),
        reason="creates or drives an event loop outside repro.serve.server; "
        "the serving front end owns the loop, keep this module synchronous",
    ),
    # ...and async handlers never block on store resolution, BFS table
    # builds, shard loading or synchronous sleeps (tables load on the
    # synchronous startup/warm path).
    Clause(
        "RL112",
        scope=("src/repro/serve",),
        context="async",
        callees=("store.*", "repro.store.*", "build_distance_table",
                 "bfs_distances", "hop_distances", "*registry.load",
                 "*.warm", "time.sleep"),
        reason="blocks the event loop inside an async handler; resolve "
        "tables on the synchronous startup/warm path",
    ),
    # Retry discipline: ad-hoc retry loops (sleep or unseeded jitter in a
    # loop that catches exceptions) are confined to the client reliability
    # kit and the supervised runtime's own seeded backoff.
    Clause(
        "RL113",
        scope=("src/repro",),
        allowed=("src/repro/serve/reliability.py", "src/repro/runtime"),
        context="retry-loop",
        callees=("time.sleep", "random.*", "default_rng", "*.default_rng"),
        reason="in a loop that catches exceptions is an ad-hoc retry; use "
        "the reliability kit's seeded BackoffPolicy/RetryingClient",
    ),
    # Durability discipline: the store's disk tier and the run journal
    # write only through the repro.faults.io seam (DiskIo) and the
    # sanctioned helpers (atomic_write, Journal.append); a raw write
    # there is invisible to `repro faults crashpoints`.
    Clause(
        "RL115",
        scope=("src/repro/store", "src/repro/runtime"),
        callees=("open", "os.fdopen", "os.replace", "os.rename", "os.fsync",
                 "os.fdatasync", "tempfile.mkstemp", "tempfile.mktemp",
                 "tempfile.NamedTemporaryFile", "*.write_text",
                 "*.write_bytes"),
        reason="is a raw durability-affecting write outside the sanctioned "
        "helpers; route it through the repro.faults.io seam (DiskIo/"
        "repro.store.core.atomic_write/Journal.append) so crash-point "
        "exploration and fault injection cover it",
    ),
    # Wall-clock discipline: phases are timed through obs.span so profiles
    # land in the metrics export.  repro.obs owns the clock; the runtime
    # (heartbeats, deadlines, backoff) and serve (coalescing deadlines,
    # request latency) read it for their own purposes and never feed
    # results from it.
    Clause(
        "RL206",
        scope=("src/repro",),
        allowed=("src/repro/obs", "src/repro/runtime", "src/repro/serve"),
        callees=("time.time", "time.time_ns", "time.perf_counter*",
                 "time.monotonic*", "time.process_time*", "time.thread_time*"),
        reason="reads the wall clock; wrap the phase in repro.obs.span(...) "
        "so the profile lands in the metrics export",
    ),
)

#: Slug and catalog description of each code.
_RULES = {
    "RL107": ("store-discipline", "experiments/sim/cli/serve resolve "
              "topologies, routing tables and bisection cuts via repro.store"),
    "RL108": ("process-discipline", "process spawning is confined to "
              "repro.runtime, whose own randomness is seeded"),
    "RL112": ("serve-discipline", "event loops only in repro.serve.server; "
              "no blocking store/BFS/sleep calls in serve async handlers"),
    "RL113": ("retry-discipline", "ad-hoc retry loops (sleep or unseeded "
              "jitter) only in repro.serve.reliability and repro.runtime"),
    "RL115": ("durability-discipline", "store/runtime writes go through the "
              "repro.faults.io seam, never raw open/os.replace/os.fsync"),
    "RL206": ("raw-wall-clock", "raw time.time()/perf_counter()/monotonic() "
              "in library code; time phases with repro.obs.span"),
}


def _no_args(call: ast.Call) -> bool:
    return not call.args and not call.keywords


def _writes(call: ast.Call) -> bool:
    """An ``open``-style call whose mode writes or cannot be read statically."""
    mode: ast.expr | None = next(
        (kw.value for kw in call.keywords if kw.arg == "mode"),
        call.args[1] if len(call.args) >= 2 else None,
    )
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return True


#: Callee patterns that match only when the call's arguments agree.
_ARG_PREDICATES: dict[str, Callable[[ast.Call], bool]] = {
    "default_rng": _no_args,
    "*.default_rng": _no_args,
    "open": _writes,
    "os.fdopen": _writes,
}


def _matches(clause: Clause, name: str, call: ast.Call) -> bool:
    if clause.sanctioned and name.startswith(clause.sanctioned):
        return False
    for pattern in clause.callees:
        if fnmatchcase(name, pattern):
            check = _ARG_PREDICATES.get(pattern)
            if check is None or check(call):
                return True
    return False


def _context_calls(mod: ModuleInfo) -> dict[str, set[int]]:
    """``id()`` of every call inside each context kind."""
    regions: dict[str, list[ast.AST]] = {"async": [], "retry-loop": []}
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.AsyncFunctionDef):
            regions["async"].append(node)
        elif isinstance(node, (ast.For, ast.While)) and any(
            isinstance(sub, ast.ExceptHandler) for sub in ast.walk(node)
        ):
            regions["retry-loop"].append(node)
    return {
        kind: {
            id(sub) for node in nodes for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
        }
        for kind, nodes in regions.items()
    }


class SanctionedCalls(ProgramRule):
    """Flags the calls and imports that its code's :data:`CLAUSES` forbid."""

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        clauses = [c for c in CLAUSES if c.code == self.code]
        for mod in model.modules.values():
            active = [
                c for c in clauses
                if path_in_scope(mod.rel_path, c.scope)
                and not path_in_scope(mod.rel_path, c.allowed)
            ]
            if not active:
                continue
            yield from self._imports(mod, active)
            contexts = _context_calls(mod) if any(c.context for c in active) else {}
            callers = [fn.func_id for fn in mod.functions.values()]
            flagged: set[int] = set()
            for caller in [*callers, f"{mod.name}.{MODULE_BODY}"]:
                for site in graph.calls.get(caller, ()):
                    if id(site.node) in flagged:
                        continue
                    names = [site.raw]
                    if site.resolved not in (None, site.raw):
                        names.append(site.resolved)
                    for clause in active:
                        if clause.context and id(site.node) not in contexts[clause.context]:
                            continue
                        if any(_matches(clause, n, site.node) for n in names):
                            flagged.add(id(site.node))
                            shown = f"call {site.raw!r}"
                            if len(names) > 1:
                                shown += f" (resolves to {site.resolved!r})"
                            yield self.flag(mod, site.node, f"{shown} {clause.reason}")
                            break

    def _imports(self, mod: ModuleInfo, active: list[Clause]) -> Iterator[Violation]:
        roots = {root: c for c in active for root in c.imports}
        if not roots:
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                clause = roots.get(name.split(".")[0])
                if clause is not None:
                    yield self.flag(mod, node, f"import of {name!r} {clause.reason}")
                    break


for _code, (_slug, _description) in _RULES.items():
    register_program(type(f"SanctionedCalls{_code}", (SanctionedCalls,), {
        "code": _code,
        "name": _slug,
        "description": _description,
        "default_paths": tuple(dict.fromkeys(
            p for c in CLAUSES if c.code == _code for p in c.scope
        )),
    }))
