"""Numerics and determinism rules (RL2xx).

The simulation and routing hot paths are NumPy-array code whose dtypes are
load-bearing (int64 vertex ids vs float64 loads), and every experiment must
be bit-reproducible from a seed — the benchmark suite diffs result files
verbatim.  These rules catch the Python footguns that silently break either
property.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import ModuleContext, Rule, Violation, dotted_name, register

__all__ = [
    "MutableDefaultArg",
    "BroadExcept",
    "ImplicitDtype",
    "LegacyRandom",
    "SeedlessRng",
]

_MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = ("list", "dict", "set", "bytearray", "defaultdict", "Counter")


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_NODES):
        return True
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        return callee is not None and callee.rsplit(".", 1)[-1] in _MUTABLE_CALLS
    return False


@register
class MutableDefaultArg(Rule):
    """Mutable default argument values are shared across calls."""

    code = "RL201"
    name = "mutable-default-arg"
    severity = "error"
    description = (
        "default argument values are evaluated once; a mutable default "
        "([] / {} / set() / ...) is shared state across every call"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if _is_mutable_default(default):
                    yield self.flag(
                        ctx,
                        default,
                        f"mutable default argument in {node.name!r}; use None "
                        "and construct inside the function",
                    )


_LOGGING_METHODS = {
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "exception",
    "critical",
    "log",
}
_BROAD_TYPES = ("Exception", "BaseException")


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for t in types:
        name = dotted_name(t)
        if name is not None and name.rsplit(".", 1)[-1] in _BROAD_TYPES:
            return True
    return False


def _handler_accounts_for_error(handler: ast.ExceptHandler) -> bool:
    for sub in ast.walk(handler):
        if isinstance(sub, ast.Raise):
            return True
        if isinstance(sub, ast.Call):
            callee = dotted_name(sub.func)
            if callee is not None and callee.rsplit(".", 1)[-1] in _LOGGING_METHODS:
                return True
        # `except Exception as exc:` followed by a real use of `exc`
        # (collected into a report, formatted into a message, ...) accounts
        # for the error; discarding the binding does not.
        if (
            handler.name is not None
            and isinstance(sub, ast.Name)
            and sub.id == handler.name
            and isinstance(sub.ctx, ast.Load)
        ):
            return True
    return False


@register
class BroadExcept(Rule):
    """Bare / ``except Exception`` without re-raise or logging.

    The spectral-bisection fallback bug: a broad handler that silently
    swaps in a different algorithm makes results quietly wrong instead of
    loudly broken.  Catch the specific exceptions, or at minimum log that
    the fallback path was taken.
    """

    code = "RL202"
    name = "broad-except"
    severity = "error"
    description = (
        "bare `except:` or `except Exception:` must re-raise or log; "
        "silent fallbacks corrupt results without failing tests"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _handler_is_broad(node) and not _handler_accounts_for_error(node):
                label = "bare except" if node.type is None else "broad except"
                yield self.flag(
                    ctx,
                    node,
                    f"{label} swallows errors silently; catch specific "
                    "exceptions, re-raise, or log the fallback",
                )


_NUMPY_ALIASES = ("np", "numpy")
_ALLOCATORS = ("zeros", "ones", "empty", "full")


@register
class ImplicitDtype(Rule):
    """NumPy allocations in hot paths must pin their dtype.

    ``np.zeros(n)`` allocates float64; vertex ids, counts and credits in the
    simulators must be integral, and a silent float array both doubles
    memory traffic and hides truncation bugs.  Scoped to the simulation and
    routing hot paths by default.
    """

    code = "RL203"
    name = "implicit-dtype"
    severity = "error"
    default_paths = ("src/repro/sim", "src/repro/routing")
    description = (
        "np.zeros/ones/empty/full in sim/routing hot paths must pass an "
        "explicit dtype"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None or "." not in callee:
                continue
            base, _, attr = callee.rpartition(".")
            if base not in _NUMPY_ALIASES or attr not in _ALLOCATORS:
                continue
            # dtype may be the positional argument after the shape/fill.
            positional_dtype = {"zeros": 2, "ones": 2, "empty": 2, "full": 3}
            has_dtype = any(kw.arg == "dtype" for kw in node.keywords) or len(
                node.args
            ) >= positional_dtype.get(attr, 2)
            if not has_dtype:
                yield self.flag(
                    ctx,
                    node,
                    f"np.{attr}(...) without dtype allocates float64 by "
                    "default; pin the dtype in hot-path array code",
                )


#: numpy.random attributes that are fine: the Generator API.
_MODERN_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


@register
class LegacyRandom(Rule):
    """Module-level ``np.random.*`` calls break seed discipline.

    Legacy calls (``np.random.seed`` / ``rand`` / ``choice`` ...) mutate
    hidden global state, so two experiments in one process perturb each
    other's streams.  Construct ``np.random.default_rng(seed)`` and pass
    the ``Generator`` down instead.
    """

    code = "RL204"
    name = "legacy-random"
    severity = "error"
    description = (
        "np.random.<fn>() uses hidden global RNG state; pass a "
        "np.random.Generator built from an explicit seed"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            if (
                len(parts) == 3
                and parts[0] in _NUMPY_ALIASES
                and parts[1] == "random"
                and parts[2] not in _MODERN_RANDOM
            ):
                yield self.flag(
                    ctx,
                    node,
                    f"legacy global-state RNG call {callee}(); use a passed "
                    "np.random.Generator (np.random.default_rng(seed))",
                )


@register
class SeedlessRng(Rule):
    """``default_rng()`` without a seed is nondeterministic.

    Every figure in the reproduction must be rebuildable bit-for-bit; an
    unseeded generator makes the run unrepeatable.
    """

    code = "RL205"
    name = "seedless-rng"
    severity = "error"
    description = (
        "np.random.default_rng() called without a seed; results become "
        "unreproducible"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None or callee.rsplit(".", 1)[-1] != "default_rng":
                continue
            if not node.args and not node.keywords:
                yield self.flag(
                    ctx,
                    node,
                    "default_rng() without a seed is nondeterministic; pass "
                    "an explicit seed (or a SeedSequence)",
                )
