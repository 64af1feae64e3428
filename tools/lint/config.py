"""Configuration loading for repro-lint.

Configuration lives in ``[tool.repro-lint]`` of the repo's
``pyproject.toml``::

    [tool.repro-lint]
    exclude = ["src/repro.egg-info"]

    [tool.repro-lint.rules.RL203]
    paths = ["src/repro/sim", "src/repro/routing"]
    severity = "error"

A rule table accepts exactly three keys: ``enabled`` (bool), ``severity``
(``error`` / ``warning``) and ``paths`` (list of path prefixes the rule
is restricted to).  Rules take no other options; what a rule matches is
a constant in its source.  Rules may also be addressed by slug
(``rules.implicit-dtype``).

Malformed configuration raises :class:`ConfigError` with a message naming
the offending key — never a bare traceback from deep inside a rule.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Any

from tools.lint.core import SEVERITIES, all_rules

__all__ = ["ConfigError", "LintConfig", "load_config", "path_in_scope"]

#: Directories never linted regardless of configuration.
ALWAYS_EXCLUDE = (".git", "__pycache__", ".github", ".repro-lint-cache")

#: Keys recognized at the ``[tool.repro-lint]`` top level.
_TOP_LEVEL_KEYS = ("exclude", "rules")

#: The only keys a rule table accepts.
_RULE_KEYS = ("enabled", "severity", "paths")


class ConfigError(ValueError):
    """A ``[tool.repro-lint]`` table failed validation."""


@dataclass
class LintConfig:
    """Materialized ``[tool.repro-lint]`` settings."""

    root: Path
    exclude: tuple[str, ...] = ()
    rule_options: dict[str, dict] = field(default_factory=dict)

    def options_for(self, code: str, slug: str) -> dict:
        merged: dict = {}
        merged.update(self.rule_options.get(code, {}))
        merged.update(self.rule_options.get(slug, {}))
        return merged


def _known_rule_ids() -> set[str]:
    """Codes and slugs of every rule: per-file catalog plus program passes."""
    known = {cls.code for cls in all_rules()} | {cls.name for cls in all_rules()}
    from tools.lint.program.base import all_program_rules

    known |= {cls.code for cls in all_program_rules()}
    known |= {cls.name for cls in all_program_rules()}
    return known


def _type_name(value: Any) -> str:
    return {
        str: "str",
        bool: "bool",
        int: "int",
        float: "float",
        list: "list",
        dict: "table",
    }.get(type(value), type(value).__name__)


def _require_str_list(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(
            f"[tool.repro-lint] key {where!r}: expected a list of strings, "
            f"got {_type_name(value)}"
        )
    return tuple(value)


def _validate_rule_table(key: str, table: Any) -> dict:
    if not isinstance(table, dict):
        raise ConfigError(
            f"[tool.repro-lint.rules] key {key!r}: expected a table, "
            f"got {_type_name(table)}"
        )
    out: dict = {}
    for opt, value in table.items():
        where = f"rules.{key}.{opt}"
        if opt == "enabled":
            if not isinstance(value, bool):
                raise ConfigError(
                    f"[tool.repro-lint] key {where!r}: expected bool, "
                    f"got {_type_name(value)}"
                )
        elif opt == "severity":
            if not isinstance(value, str) or value not in SEVERITIES:
                raise ConfigError(
                    f"[tool.repro-lint] key {where!r}: expected one of "
                    f"{'/'.join(SEVERITIES)}, got {value!r}"
                )
        elif opt == "paths":
            value = list(_require_str_list(value, where))
        elif isinstance(value, dict):
            # A nested table under a rule is always a typo (e.g. a
            # mis-indented [tool.repro-lint.rules.RL203.paths] header).
            raise ConfigError(
                f"[tool.repro-lint] key {where!r}: a rule table takes "
                f"{', '.join(_RULE_KEYS)}, not tables"
            )
        else:
            raise ConfigError(
                f"[tool.repro-lint] unknown key {where!r}; expected one of "
                f"{', '.join(_RULE_KEYS)}"
            )
        out[opt] = value
    return out


def load_config(root: Path) -> LintConfig:
    """Read and validate ``[tool.repro-lint]`` from ``<root>/pyproject.toml``."""
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return LintConfig(root=root)
    with pyproject.open("rb") as fh:
        data = tomllib.load(fh)
    section = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(section, dict):
        raise ConfigError(
            f"[tool.repro-lint]: expected a table, got {_type_name(section)}"
        )
    for key in section:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(
                f"[tool.repro-lint] unknown key {key!r}; expected one of "
                f"{', '.join(_TOP_LEVEL_KEYS)}"
            )
    exclude = _require_str_list(section.get("exclude", []), "exclude")
    rule_tables = section.get("rules", {})
    if not isinstance(rule_tables, dict):
        raise ConfigError(
            f"[tool.repro-lint] key 'rules': expected a table of rule "
            f"tables, got {_type_name(rule_tables)}"
        )
    known = _known_rule_ids()
    rule_options: dict[str, dict] = {}
    for key, table in rule_tables.items():
        if key not in known:
            raise ConfigError(
                f"[tool.repro-lint.rules] refers to unknown rule {key!r}"
            )
        rule_options[key] = _validate_rule_table(key, table)
    return LintConfig(root=root, exclude=exclude, rule_options=rule_options)


def path_in_scope(rel_path: str, prefixes: tuple[str, ...] | None) -> bool:
    """Is *rel_path* (POSIX, repo-relative) under any of *prefixes*?

    ``None`` means unrestricted.  A prefix matches whole path components:
    ``src/repro/sim`` covers ``src/repro/sim/flow.py`` but not
    ``src/repro/simx.py``.
    """
    if prefixes is None:
        return True
    parts = PurePosixPath(rel_path).parts
    for prefix in prefixes:
        p = PurePosixPath(prefix).parts
        if parts[: len(p)] == p:
            return True
    return False
