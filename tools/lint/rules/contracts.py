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
    "FaultDiscipline",
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


def _validates(fn: ast.FunctionDef) -> bool:
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Raise):
            return True
    for callee in _calls(fn):
        if (matches_any(callee, VALIDATOR_PATTERNS)
                or matches_any(callee, FACTORY_PATTERNS)):
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
        for node in ctx.top_level(ast.FunctionDef):
            if node.name.startswith("_"):
                continue
            if not matches_any(node.name, FACTORY_PATTERNS):
                continue
            if not _validates(node):
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
                if not _validates(item):
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
