"""repro-lint — domain-aware static analysis for the PolarStar reproduction.

The Python type system cannot see the invariants this codebase actually
depends on: Property R/R*/R_1 preconditions, prime-power ``q`` arguments,
the Eq. 1 degree split, deterministic RNG discipline, and dtype hygiene in
simulation hot paths.  ``repro-lint`` is a small AST-based framework that
checks those *domain contracts* alongside generic Python hygiene.

Usage::

    python -m tools.lint src tests benchmarks examples
    python -m tools.lint --list-rules

Architecture
------------
* :mod:`tools.lint.core` — ``Rule`` base class, ``Violation``, the rule
  registry, and ``# repro-lint: disable=...`` suppression handling;
* :mod:`tools.lint.config` — ``[tool.repro-lint]`` loading from
  ``pyproject.toml`` (per-rule enabling, severities and path scoping);
* :mod:`tools.lint.rules` — the per-file rule catalog (contracts,
  numerics, API hygiene);
* :mod:`tools.lint.program` — whole-program passes over a project model
  (sanctioned-call contracts, layering, determinism taint, concurrency
  safety), run with ``--program``;
* :mod:`tools.lint.output` — text/JSON/SARIF report formatters;
* :mod:`tools.lint.mypy_ratchet` — the monotone mypy strictness gate;
* :mod:`tools.lint.cli` — file discovery and the command-line entry point.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and how to add rules.
"""

from tools.lint.core import Rule, Violation, all_rules, get_rule, register
from tools.lint.cli import main, run_paths

__all__ = [
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "register",
    "main",
    "run_paths",
]
