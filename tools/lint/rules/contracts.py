"""Domain contract rules (RL1xx).

The constructions in this repository are only defined for particular
number-theoretic parameters: :math:`ER_q` needs a prime power ``q``
(Theorem 1), Paley supernodes a prime power ``q ≡ 1 (mod 4)`` (Theorem 5),
Inductive-Quad a degree ``d' ≡ 0,3 (mod 4)`` (Proposition 2), and the
PolarStar radix split must satisfy Eq. 1.  A constructor that silently
accepts a bad parameter builds a *wrong graph* — no exception, no test
failure, just an object violating Property R/R*/R_1 downstream.  These
rules force every graph/topology factory to validate-or-delegate.

RL105 guards the fault-injection subsystem (``repro.faults``): fault
scenarios must be bit-reproducible (seeded ``np.random`` Generators only —
never the stdlib ``random`` module or an unseeded ``default_rng()``) and
fault handling must be explicit — a broad ``except`` that swallows an
error *inside the failure model itself* turns an injected fault into a
silently wrong result, so RL105 forbids it outright (no logging escape
hatch, unlike the repo-wide RL202).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import (
    ModuleContext,
    Rule,
    Violation,
    dotted_name,
    matches_any,
    register,
)

__all__ = [
    "ContractValidation",
    "DurabilityDiscipline",
    "FaultDiscipline",
    "HotLoopDiscipline",
    "ProcessDiscipline",
    "RetryDiscipline",
    "ServeDiscipline",
    "StoreDiscipline",
]

#: Function-name patterns treated as graph/topology factories.
FACTORY_PATTERNS = (
    "*_graph",
    "*_supernode",
    "*_topology",
    "build_*",
    "inductive_quad",
    "star_product",
)

#: Callee-name patterns that count as precondition validation.
VALIDATOR_PATTERNS = (
    "is_prime_power",
    "prime_power_root",
    "validate*",
    "_validate*",
    "check_*",
    "_check*",
    "require_*",
)

#: Constructor method names checked inside classes.
CONSTRUCTOR_METHODS = ("__init__", "__post_init__")


def _calls(node: ast.AST) -> Iterator[str]:
    """Names of every function called anywhere inside *node* (last attribute
    segment for dotted calls, so ``repro.fields.is_prime_power`` → the
    pattern match sees both the full chain and ``is_prime_power``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            full = dotted_name(sub.func)
            if full is not None:
                yield full
                if "." in full:
                    yield full.rsplit(".", 1)[1]


def _validates(fn: ast.FunctionDef, factories: tuple[str, ...], validators: tuple[str, ...]) -> bool:
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Raise):
            return True
    for callee in _calls(fn):
        if matches_any(callee, validators) or matches_any(callee, factories):
            return True
    return False


@register
class ContractValidation(Rule):
    """Graph/topology factories must validate their preconditions.

    A factory (function matching ``FACTORY_PATTERNS``, or an ``__init__`` /
    ``__post_init__`` in a contract module) passes if its body contains a
    ``raise`` statement, a call to a validator (``is_prime_power``,
    ``validate_*``, ``check_*``, ...), or a delegation to another factory
    that does.  ``assert`` does **not** count: it disappears under
    ``python -O`` and a production-scale deployment will run optimized.
    """

    code = "RL101"
    name = "contract-validation"
    severity = "error"
    default_paths = (
        "src/repro/graphs",
        "src/repro/topologies",
        "src/repro/core",
    )
    description = (
        "graph/topology constructors must validate number-theoretic "
        "preconditions (prime-power q, degree residues, radix split) or "
        "delegate to a factory that does"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        factories = tuple(self.option("factories", FACTORY_PATTERNS))
        validators = tuple(self.option("validators", VALIDATOR_PATTERNS))

        for node in ctx.top_level(ast.FunctionDef):
            if node.name.startswith("_"):
                continue
            if not matches_any(node.name, factories):
                continue
            if not _validates(node, factories, validators):
                yield self.flag(
                    ctx,
                    node,
                    f"factory {node.name!r} builds a graph/topology without "
                    "validating its preconditions (no raise, validator call, "
                    "or factory delegation)",
                )

        for cls in ctx.top_level(ast.ClassDef):
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name not in CONSTRUCTOR_METHODS:
                    continue
                if not _validates(item, factories, validators):
                    yield self.flag(
                        ctx,
                        item,
                        f"{cls.name}.{item.name} constructs a contract object "
                        "without validating its inputs (no raise, validator "
                        "call, or factory delegation)",
                    )


#: ``except`` types considered broad (swallow-everything) handlers.
_BROAD_EXCEPT_TYPES = ("Exception", "BaseException")


def _broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for t in types:
        name = dotted_name(t)
        if name is not None and name.rsplit(".", 1)[-1] in _BROAD_EXCEPT_TYPES:
            return True
    return False


@register
class FaultDiscipline(Rule):
    """Fault-injection code: seeded RNGs only, no broad excepts. Ever.

    Stricter than the repo-wide rules on its home turf:

    * RL202 lets a broad handler off with a log call or a re-raise; here a
      broad ``except`` is flagged unconditionally — inside the failure
      model, "handled" faults are corrupted experiments.
    * RL204/RL205 police NumPy RNG use; RL105 additionally bans the stdlib
      ``random`` module (process-global, unseedable per-scenario) and
      repeats the unseeded-``default_rng()`` check so the whole
      determinism contract for fault scenarios reads from one rule.
    """

    code = "RL105"
    name = "fault-discipline"
    severity = "error"
    default_paths = ("src/repro/faults",)
    description = (
        "fault code must draw randomness from seeded np.random Generators "
        "(no stdlib random, no unseeded default_rng) and must never use "
        "broad except handlers, even logged ones"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                if _broad_handler(node):
                    label = "bare except" if node.type is None else "broad except"
                    yield self.flag(
                        ctx,
                        node,
                        f"{label} in fault code: a swallowed error corrupts "
                        "the failure model; catch the specific exception",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            if parts[0] == "random" and len(parts) == 2:
                yield self.flag(
                    ctx,
                    node,
                    f"stdlib {callee}() uses process-global unseeded state; "
                    "fault scenarios must come from np.random.default_rng(seed)",
                )
            elif parts[-1] == "default_rng" and not node.args and not node.keywords:
                yield self.flag(
                    ctx,
                    node,
                    "default_rng() without a seed makes the fault scenario "
                    "unreproducible; thread an explicit seed through",
                )


#: Modules whose import means "this code spawns or manages processes".
_PROCESS_MODULES = ("multiprocessing", "subprocess")

#: ``os.`` functions that fork/spawn/replace processes.
_OS_PROCESS_FNS = (
    "fork",
    "forkpty",
    "system",
    "popen",
    "spawnl",
    "spawnle",
    "spawnlp",
    "spawnlpe",
    "spawnv",
    "spawnve",
    "spawnvp",
    "spawnvpe",
    "posix_spawn",
    "posix_spawnp",
    "execl",
    "execle",
    "execlp",
    "execlpe",
    "execv",
    "execve",
    "execvp",
    "execvpe",
)


@register
class ProcessDiscipline(Rule):
    """Process management belongs to ``repro.runtime`` — nowhere else.

    The supervised worker pool (``docs/RUNTIME.md``) is the one place in
    the library allowed to spawn, fork or exec: it owns the spawn context,
    heartbeats, timeouts, retry/quarantine policy and the journal that
    makes runs resumable.  A stray ``multiprocessing`` pool or
    ``subprocess`` call elsewhere escapes all of that — no supervision, no
    checkpointing, orphaned children on interrupt.  Library code that
    needs parallelism goes through the runtime; intentional exceptions
    (e.g. ``repro.obs`` shelling out to ``git`` for the manifest) carry an
    explicit ``# repro-lint: disable=RL108`` with the reason.

    Inside the exempt runtime dirs the rule still polices worker
    determinism: stdlib ``random`` calls and unseeded ``default_rng()``
    are banned, so retry jitter and trial work stay reproducible across
    resumes (same checks RL105 applies to fault scenarios).
    """

    code = "RL108"
    name = "process-discipline"
    severity = "error"
    default_paths = ("src/repro",)
    description = (
        "multiprocessing/subprocess/os.fork-family calls are confined to "
        "repro.runtime (the supervised worker pool); runtime code itself "
        "must draw randomness from seeded np.random Generators"
    )

    #: path components exempt from the spawn ban: the runtime owns processes.
    DEFAULT_EXEMPT_DIRS = ("runtime",)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        exempt = tuple(self.option("exempt-dirs", self.DEFAULT_EXEMPT_DIRS))
        parts = ctx.path.replace("\\", "/").split("/")
        if any(d in parts for d in exempt):
            yield from self._check_worker_determinism(ctx)
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _PROCESS_MODULES:
                        yield self.flag(
                            ctx,
                            node,
                            f"import of {alias.name!r} outside repro.runtime; "
                            "process management must go through the "
                            "supervised worker pool",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _PROCESS_MODULES:
                    yield self.flag(
                        ctx,
                        node,
                        f"import from {node.module!r} outside repro.runtime; "
                        "process management must go through the supervised "
                        "worker pool",
                    )
            elif isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if callee is None:
                    continue
                base, _, attr = callee.rpartition(".")
                if base == "os" and attr in _OS_PROCESS_FNS:
                    yield self.flag(
                        ctx,
                        node,
                        f"{callee}() outside repro.runtime; forked/spawned "
                        "processes escape the supervisor's heartbeats, "
                        "timeouts and checkpoint journal",
                    )

    def _check_worker_determinism(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            if parts[0] == "random" and len(parts) == 2:
                yield self.flag(
                    ctx,
                    node,
                    f"stdlib {callee}() in runtime code: worker results must "
                    "be reproducible across resumes; use "
                    "np.random.default_rng(seed)",
                )
            elif parts[-1] == "default_rng" and not node.args and not node.keywords:
                yield self.flag(
                    ctx,
                    node,
                    "default_rng() without a seed in runtime code breaks the "
                    "byte-identical resume contract; thread an explicit seed",
                )


#: Callee-name patterns that construct topologies / routing state directly.
STORE_CONSTRUCTOR_PATTERNS = (
    "TableRouter",
    "*_topology",
    "build_table3_topology",
    "build_reduced_topology",
    "build_distance_table",
    "min_bisection",
)

#: Dotted-prefix allowance: resolutions through the artifact store are the
#: sanctioned path (``store.table3_topology`` ends in ``_topology`` too).
_STORE_PREFIXES = ("store.", "repro.store.", "provider.")


@register
class StoreDiscipline(Rule):
    """Expensive construction must flow through the artifact store.

    Topology builders, ``TableRouter`` / distance-table construction and
    bisection estimation are cacheable artifacts (``docs/ARCHITECTURE.md``);
    calling them directly from experiment drivers, the simulators or the
    CLI silently forfeits the content-addressed cache — a warm run rebuilds
    every BFS table it was supposed to skip.  Those layers must resolve
    through :mod:`repro.store` (``store.topology``, ``store.table_router``,
    ``store.min_bisection``, ...).  Intentional direct construction (e.g. a
    router built on a degraded ephemeral graph) gets an explicit
    ``# repro-lint: disable=RL107`` with a reason.
    """

    code = "RL107"
    name = "store-discipline"
    severity = "error"
    default_paths = (
        "src/repro/experiments",
        "src/repro/sim",
        "src/repro/cli.py",
    )
    description = (
        "experiments/sim/cli must resolve topologies, routing tables and "
        "bisection cuts via repro.store, not by calling builders directly"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        constructors = tuple(self.option("constructors", STORE_CONSTRUCTOR_PATTERNS))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            if callee.startswith(_STORE_PREFIXES):
                continue
            last = callee.rsplit(".", 1)[-1]
            if matches_any(callee, constructors) or matches_any(last, constructors):
                yield self.flag(
                    ctx,
                    node,
                    f"direct construction call {callee!r} bypasses the "
                    "artifact store; resolve it through repro.store so warm "
                    "runs reuse the cached artifact",
                )


#: Event-loop entry points: only the serve server module may call these.
_LOOP_CALL_PATTERNS = (
    "asyncio.run",
    "asyncio.new_event_loop",
    "asyncio.get_event_loop",
    "asyncio.set_event_loop",
    "*.run_until_complete",
    "*.run_forever",
)

#: ``from asyncio import X`` names that create/fetch event loops.
_LOOP_IMPORT_NAMES = ("run", "new_event_loop", "get_event_loop", "set_event_loop")

#: Calls that block the event loop: store resolution (BFS builds, disk
#: I/O), raw table construction, shard loading, synchronous sleeps.
_BLOCKING_IN_ASYNC_PATTERNS = (
    "store.*",
    "repro.store.*",
    "build_distance_table",
    "bfs_distances",
    "hop_distances",
    "*registry.load",
    "*.warm",
    "time.sleep",
)


@register
class ServeDiscipline(Rule):
    """The serving layer's two structural invariants (``docs/SERVING.md``).

    1. **Event-loop confinement** — only ``repro.serve.server`` may create
       or fetch an asyncio event loop (``asyncio.run``,
       ``new_event_loop``, ``run_until_complete``, ...).  Everything else
       in the library stays synchronous so it is callable from any
       context: the engine, client, bench, experiments, the CLI.
    2. **No blocking calls in async handlers** — inside an ``async def``
       in the serve package, store resolution (``store.*``), raw table
       builds (``build_distance_table`` / ``bfs_distances`` /
       ``hop_distances``), shard loading (``*registry.load``,
       ``*.warm``) and ``time.sleep`` are forbidden: tables are resolved
       on the synchronous startup/warm path, never while the loop should
       be answering queries.
    """

    code = "RL112"
    name = "serve-discipline"
    severity = "error"
    default_paths = ("src/repro",)
    description = (
        "event-loop creation is confined to repro.serve.server, and async "
        "handlers in the serve package must not block on store/BFS/sleep "
        "calls (tables load on the sync startup path)"
    )

    #: The one module allowed to own an event loop.
    DEFAULT_LOOP_OWNER = "src/repro/serve/server.py"

    #: Path components that mark serve-package modules (part 2 scope).
    DEFAULT_SERVE_DIRS = ("serve",)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        path = ctx.path.replace("\\", "/")
        owner = self.option("loop-owner", self.DEFAULT_LOOP_OWNER)
        if not (path == owner or path.endswith("/" + owner)):
            yield from self._check_loop_confinement(ctx)
        serve_dirs = tuple(self.option("serve-dirs", self.DEFAULT_SERVE_DIRS))
        if any(d in path.split("/") for d in serve_dirs):
            yield from self._check_async_handlers(ctx)

    def _check_loop_confinement(self, ctx: ModuleContext) -> Iterator[Violation]:
        # Names bound by `from asyncio import run [as arun]`.
        bare: dict[str, str] = {}
        for node in ctx.tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "asyncio":
                for alias in node.names:
                    if alias.name in _LOOP_IMPORT_NAMES:
                        bare[alias.asname or alias.name] = alias.name
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            offender = None
            if matches_any(callee, _LOOP_CALL_PATTERNS):
                offender = callee
            elif callee in bare:
                offender = f"asyncio.{bare[callee]}"
            if offender is not None:
                yield self.flag(
                    ctx,
                    node,
                    f"event-loop call {offender}() outside repro.serve.server; "
                    "the serving front end owns the loop — keep this module "
                    "synchronous",
                )

    def _check_async_handlers(self, ctx: ModuleContext) -> Iterator[Violation]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = dotted_name(node.func)
                if callee is None:
                    continue
                if matches_any(callee, _BLOCKING_IN_ASYNC_PATTERNS):
                    yield self.flag(
                        ctx,
                        node,
                        f"blocking call {callee!r} inside async handler "
                        f"{fn.name!r}; resolve tables on the synchronous "
                        "startup/warm path, not in the event loop",
                    )


@register
class RetryDiscipline(Rule):
    """Retry loops belong to the reliability kit — nowhere else.

    An improvised ``while``/``for`` that catches an exception and sleeps
    before trying again has all the failure modes the kit exists to
    prevent: unseeded jitter (unreproducible load patterns, the same sin
    RL105 bans in fault scenarios), no deadline budget (unbounded hangs),
    no circuit breaker (thundering herds against a recovering server) and
    no retry accounting.  ``repro.serve.reliability`` packages all four;
    the supervised runtime pool carries its own seeded backoff.  Anywhere
    else, a loop that contains an ``except`` handler must not call
    ``time.sleep``, the stdlib ``random`` module, or an unseeded
    ``default_rng()`` — route the retry through
    :class:`~repro.serve.reliability.RetryingClient` (or the runtime's
    retry policy) instead.
    """

    code = "RL113"
    name = "retry-discipline"
    severity = "error"
    default_paths = ("src/repro",)
    description = (
        "ad-hoc retry loops (sleep or unseeded jitter inside a loop that "
        "catches exceptions) are confined to repro.serve.reliability and "
        "the supervised runtime"
    )

    #: Paths exempt from the ban: the sanctioned retry implementations.
    DEFAULT_EXEMPT_PATHS = ("src/repro/serve/reliability.py", "src/repro/runtime")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        path = ctx.path.replace("\\", "/")
        exempt = tuple(self.option("exempt-paths", self.DEFAULT_EXEMPT_PATHS))
        for p in exempt:
            if (
                path == p
                or path.endswith("/" + p)
                or path.startswith(p + "/")
                or "/" + p + "/" in path
            ):
                return
        flagged: set[int] = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.While, ast.For)):
                continue
            if not any(
                isinstance(sub, ast.ExceptHandler) for sub in ast.walk(loop)
            ):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call) or id(node) in flagged:
                    continue
                callee = dotted_name(node.func)
                if callee is None:
                    continue
                parts = callee.split(".")
                if callee == "time.sleep" or parts[-1] == "sleep" and parts[0] == "time":
                    flagged.add(id(node))
                    yield self.flag(
                        ctx,
                        node,
                        "ad-hoc retry loop: time.sleep inside a loop that "
                        "catches exceptions; use the reliability kit's "
                        "seeded BackoffPolicy/RetryingClient",
                    )
                elif parts[0] == "random" and len(parts) == 2:
                    flagged.add(id(node))
                    yield self.flag(
                        ctx,
                        node,
                        f"stdlib {callee}() as retry jitter is unseeded and "
                        "unreproducible; the reliability kit draws jitter "
                        "from a seeded np.random Generator",
                    )
                elif (
                    parts[-1] == "default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    flagged.add(id(node))
                    yield self.flag(
                        ctx,
                        node,
                        "default_rng() without a seed in a retry loop makes "
                        "the retry timeline unreproducible; thread an "
                        "explicit seed through",
                    )


#: ``PacketArrays`` column names — an attribute chain touching one of
#: these inside a loop iterable marks the loop as per-packet.
_PACKET_COLUMNS = (
    "src",
    "dest",
    "router",
    "vc",
    "in_link",
    "intermediate",
    "birth",
    "hops",
    "retries",
    "enq",
)


@register
class HotLoopDiscipline(Rule):
    """Hot-loop discipline for the SoA packet kernels.

    ``repro.sim.packet.kernel`` exists so the per-cycle packet math runs
    as whole-batch NumPy passes; the perf trajectory guarded by
    ``repro bench packet`` depends on it staying that way.  Two regression
    shapes are banned:

    1. **Per-element loops over packet arrays** — a ``for`` loop (or
       comprehension) whose iterable reaches a :class:`PacketArrays`
       column (``src``/``dest``/``router``/...), including via
       ``range(len(col))``, ``zip(col, ...)``, ``enumerate(col)`` or
       ``col.tolist()``.  Each such loop reintroduces the per-packet
       Python interpreter cost the SoA refactor removed — gather, mask
       and scatter the whole batch instead.
    2. **Object-per-packet state** — any reference to a ``_Packet``-style
       class (the reference engine's per-packet objects).  Kernel code
       operates on columns keyed by packet slot; attribute-chasing packet
       objects must stay confined to the pinned scalar reference.
    """

    code = "RL114"
    name = "hot-loop-discipline"
    severity = "error"
    default_paths = ("src/repro/sim/packet/kernel.py",)
    description = (
        "SoA packet kernels must stay batched: no per-element Python "
        "loops over packet columns and no _Packet-style object state"
    )

    #: Class-name patterns treated as object-per-packet state.
    DEFAULT_PACKET_CLASSES = ("_Packet", "Packet")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        columns = tuple(self.option("packet-columns", _PACKET_COLUMNS))
        classes = tuple(
            self.option("packet-classes", self.DEFAULT_PACKET_CLASSES)
        )
        flagged: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                col = self._column_in(node.iter, columns)
                if col is not None:
                    yield self.flag(
                        ctx,
                        node,
                        f"per-element for loop over packet column {col!r}; "
                        "kernel passes must be whole-batch NumPy "
                        "(gather/mask/scatter), not per-packet Python",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    col = self._column_in(gen.iter, columns)
                    if col is not None:
                        yield self.flag(
                            ctx,
                            node,
                            f"per-element comprehension over packet column "
                            f"{col!r}; kernel passes must be whole-batch "
                            "NumPy, not per-packet Python",
                        )
                        break
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if id(node) in flagged:
                    continue
                name = dotted_name(node)
                if name is None:
                    continue
                leaf = name.rsplit(".", 1)[-1]
                if leaf in classes:
                    for sub in ast.walk(node):
                        flagged.add(id(sub))
                    yield self.flag(
                        ctx,
                        node,
                        f"object-per-packet class {leaf!r} referenced in a "
                        "batched kernel; per-packet objects are confined "
                        "to the scalar reference engine",
                    )

    @staticmethod
    def _column_in(iter_node: ast.AST, columns: tuple[str, ...]) -> str | None:
        """The first packet-column attribute reached by a loop iterable."""
        for sub in ast.walk(iter_node):
            if isinstance(sub, ast.Attribute) and sub.attr in columns:
                return sub.attr
        return None


#: ``os``-level mutations that decide crash durability; outside the
#: sanctioned helpers each is a hand-rolled commit protocol.
_DURABILITY_OS_FNS = ("replace", "rename", "fsync", "fdatasync")

#: Raw temp-file factories (the O_EXCL temp + rename protocol lives in
#: ``repro.faults.io.DiskIo.exclusive_create``).
_DURABILITY_TEMP_FNS = ("mkstemp", "mktemp", "NamedTemporaryFile")

#: ``pathlib`` one-shot writers: atomic-looking, durable-on-crash never.
_PATH_WRITER_ATTRS = ("write_text", "write_bytes")


@register
class DurabilityDiscipline(Rule):
    """Raw write-path OS calls are confined to the sanctioned helpers.

    The durability layer has exactly four blessed write paths — the
    :class:`repro.faults.io.DiskIo` seam, ``ArtifactStore._atomic_write``
    built on it, ``Journal.append`` and ``atomic_write_text`` — and the
    crash-point explorer proves *those* recoverable at every operation
    boundary.  A raw ``open(..., "w")``, ``os.replace``, ``os.fsync`` or
    ``Path.write_text`` inside ``repro.store``/``repro.runtime`` is a
    write the explorer cannot see and fault tests cannot reach: it
    silently re-opens the torn-write/power-loss hole PR 10 closed.
    Genuinely read-only opens (``"r"``/``"rb"``) are fine; anything that
    must bypass the seam carries ``# repro-lint: disable=RL115`` with a
    reason.
    """

    code = "RL115"
    name = "durability-discipline"
    severity = "error"
    default_paths = ("src/repro/store", "src/repro/runtime")
    description = (
        "raw write-mode open/os.replace/os.fsync/Path.write_* in the "
        "durability layer; write through the repro.faults.io seam or the "
        "sanctioned helpers (_atomic_write, Journal.append, "
        "atomic_write_text) so crash-point exploration covers it"
    )

    @staticmethod
    def _mode_of(node: ast.Call) -> str | None:
        """The statically-known file mode of an ``open``-style call
        (``None`` = dynamic, treated as a write)."""
        for kw in node.keywords:
            if kw.arg == "mode":
                if isinstance(kw.value, ast.Constant) and isinstance(
                    kw.value.value, str
                ):
                    return kw.value.value
                return None
        if len(node.args) >= 2:
            arg = node.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
            return None
        return "r"

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        # Names bound by `from os import replace [as rp]` / `from tempfile
        # import mkstemp` — aliasing must not dodge the rule.
        bare: dict[str, str] = {}
        for node in ctx.tree.body:
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module == "os":
                for alias in node.names:
                    if alias.name in _DURABILITY_OS_FNS:
                        bare[alias.asname or alias.name] = f"os.{alias.name}"
            elif node.module == "tempfile":
                for alias in node.names:
                    if alias.name in _DURABILITY_TEMP_FNS:
                        bare[alias.asname or alias.name] = (
                            f"tempfile.{alias.name}"
                        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            leaf = callee.rsplit(".", 1)[-1]
            offender: str | None = None
            if callee in ("open", "os.fdopen"):
                mode = self._mode_of(node)
                if mode is None or any(c in mode for c in "wax+"):
                    offender = (
                        f"{callee}(..., {mode!r})" if mode is not None
                        else f"{callee}(...) with a dynamic mode"
                    )
            elif callee in bare:
                offender = f"{bare[callee]}()"
            elif "." in callee:
                base = callee.rsplit(".", 1)[0]
                if base == "os" and leaf in _DURABILITY_OS_FNS:
                    offender = f"{callee}()"
                elif base == "tempfile" and leaf in _DURABILITY_TEMP_FNS:
                    offender = f"{callee}()"
                elif leaf in _PATH_WRITER_ATTRS:
                    offender = f"{callee}()"
            if offender is not None:
                yield self.flag(
                    ctx,
                    node,
                    f"raw durability-affecting call {offender} outside the "
                    "sanctioned helpers; route it through the "
                    "repro.faults.io seam (DiskIo/_atomic_write/"
                    "Journal.append/atomic_write_text) so crash-point "
                    "exploration and fault injection cover it",
                )
