"""Tests for the whole-program analysis engine (tools/lint/program).

Covers the project model and call graph, every program rule family against
the planted-violation fixture tree in ``tests/fixtures/progdemo``, the
byte-deterministic JSON/SARIF outputs, the content-hash analysis cache,
and the mypy ratchet's pure comparison logic.
"""

from __future__ import annotations

import ast
import json
import shutil
import textwrap
from pathlib import Path

import pytest

from tools.lint.cli import run_paths
from tools.lint.config import ConfigError, load_config
from tools.lint.core import Suppressions
from tools.lint.mypy_ratchet import (
    compare_to_baseline,
    load_baseline,
    parse_mypy_output,
    write_baseline,
)
from tools.lint.output import format_json, format_sarif
from tools.lint.program.callgraph import CallGraph
from tools.lint.program.model import build_project_model, module_name_for

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = REPO_ROOT / "tests" / "fixtures" / "progdemo"
SERVEDEMO_ROOT = REPO_ROOT / "tests" / "fixtures" / "servedemo"

#: Every ``--program`` finding of the two fixture trees, one entry per
#: finding, as (path under ``src/repro``, line, code).
PROGDEMO_FINDINGS = [
    ("experiments/fig.py", 12, "RL210"),
    ("experiments/fig.py", 14, "RL107"),
    ("experiments/fig.py", 15, "RL310"),
    ("experiments/helper.py", 5, "RL110"),
    ("experiments/helper.py", 10, "RL205"),
    ("runtime/badpool.py", 5, "RL110"),
    ("runtime/badpool.py", 10, "RL311"),
    ("runtime/badpool.py", 11, "RL311"),
    ("runtime/badpool.py", 12, "RL312"),
    ("topologies/table3.py", 3, "RL109"),
]
SERVEDEMO_FINDINGS = [
    ("__init__.py", 1, "RL301"),
    ("experiments/__init__.py", 1, "RL301"),
    ("experiments/driver.py", 1, "RL301"),
    ("experiments/driver.py", 11, "RL303"),
    ("experiments/driver.py", 12, "RL112"),
    ("experiments/driver.py", 15, "RL303"),
    ("experiments/driver.py", 16, "RL112"),
    ("experiments/driver.py", 17, "RL112"),
    ("experiments/driver.py", 20, "RL303"),
    ("experiments/driver.py", 21, "RL112"),
    ("experiments/retry_loop.py", 1, "RL301"),
    ("experiments/retry_loop.py", 22, "RL113"),
    ("experiments/retry_loop.py", 22, "RL113"),
    ("experiments/retry_loop.py", 32, "RL113"),
    ("experiments/retry_loop.py", 32, "RL205"),
    ("experiments/retry_loop.py", 33, "RL113"),
    ("serve/__init__.py", 1, "RL301"),
    ("serve/clean.py", 1, "RL301"),
    ("serve/handlers.py", 1, "RL301"),
    ("serve/handlers.py", 9, "RL112"),
    ("serve/handlers.py", 10, "RL112"),
    ("serve/handlers.py", 11, "RL112"),
    ("serve/reliability.py", 1, "RL301"),
    ("store/__init__.py", 1, "RL301"),
    ("store/rawdisk.py", 1, "RL301"),
    ("store/rawdisk.py", 17, "RL115"),
    ("store/rawdisk.py", 19, "RL115"),
    ("store/rawdisk.py", 24, "RL115"),
    ("store/rawdisk.py", 25, "RL115"),
    ("store/rawdisk.py", 27, "RL115"),
    ("store/rawdisk.py", 28, "RL115"),
    ("store/rawdisk.py", 29, "RL115"),
    ("store/rawdisk.py", 33, "RL115"),
    ("store/seamwrites.py", 1, "RL301"),
]


def write_tree(root: Path, files: dict[str, str]) -> list[Path]:
    out = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        out.append(path)
    return out


def fixture_findings() -> list:
    violations, _ = run_paths(
        [str(FIXTURE_ROOT / "src")],
        root=FIXTURE_ROOT,
        program=True,
        use_cache=False,
    )
    return violations


@pytest.fixture(scope="module")
def progdemo():
    return fixture_findings()


def by_rule(violations, rule):
    return [v for v in violations if v.rule == rule]


def pinned(violations, root: Path) -> list[tuple[str, int, str]]:
    base = root / "src" / "repro"
    return sorted(
        (Path(v.path).relative_to(base).as_posix(), v.line, v.rule)
        for v in violations
    )


# -- project model -----------------------------------------------------------


class TestProjectModel:
    def test_module_names_strip_src_and_init(self):
        assert module_name_for("src/repro/store/core.py") == "repro.store.core"
        assert module_name_for("src/repro/store/__init__.py") == "repro.store"
        assert module_name_for("tools/lint/core.py") == "tools.lint.core"

    def test_bindings_follow_import_aliases(self, tmp_path):
        files = write_tree(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a.py": "def build():\n    return 1\n",
                "src/pkg/b.py": "from pkg import a as alias\n",
            },
        )
        model = build_project_model(tmp_path, files)
        mod = model.modules["pkg.b"]
        assert model.canonicalize(mod.bindings["alias"]) == "pkg.a"

    def test_import_cycle_detected(self, tmp_path):
        files = write_tree(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a.py": "import pkg.b\n",
                "src/pkg/b.py": "import pkg.a\n",
            },
        )
        model = build_project_model(tmp_path, files)
        cycles = model.import_cycles()
        assert any({"pkg.a", "pkg.b"} <= set(c) for c in cycles)

    def test_deferred_imports_break_cycles(self, tmp_path):
        files = write_tree(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a.py": "import pkg.b\n",
                "src/pkg/b.py": "def late():\n    import pkg.a\n    return pkg.a\n",
            },
        )
        model = build_project_model(tmp_path, files)
        assert model.import_cycles() == []


class TestCallGraph:
    def test_aliased_call_resolves_to_definition(self, tmp_path):
        files = write_tree(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/builders.py": "def build_thing():\n    return 1\n",
                "src/pkg/user.py": (
                    "from pkg.builders import build_thing as make\n"
                    "def go():\n"
                    "    return make()\n"
                ),
            },
        )
        model = build_project_model(tmp_path, files)
        graph = CallGraph(model)
        targets = {
            s.resolved
            for s in graph.calls.get("pkg.user.go", [])
            if s.resolved is not None
        }
        assert "pkg.builders.build_thing" in targets

    def test_local_rebinding_shadows_import(self, tmp_path):
        files = write_tree(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/builders.py": "def build_thing():\n    return 1\n",
                "src/pkg/user.py": (
                    "from pkg.builders import build_thing as make\n"
                    "def go(make):\n"
                    "    return make()\n"
                ),
            },
        )
        model = build_project_model(tmp_path, files)
        graph = CallGraph(model)
        targets = {
            s.resolved
            for s in graph.calls.get("pkg.user.go", [])
            if s.resolved is not None
        }
        assert "pkg.builders.build_thing" not in targets


# -- the planted-violation fixture -------------------------------------------


class TestFixtureTruePositives:
    """Each whole-program family catches its planted violation — and the
    per-file engine alone catches none of them."""

    def test_rl107_aliased_store_bypass(self, progdemo):
        hits = by_rule(progdemo, "RL107")
        assert any("fig.py" in v.path and v.line == 14 for v in hits)
        assert any("build_table3_topology" in v.message for v in hits)

    def test_rl109_upward_layer_import(self, progdemo):
        hits = by_rule(progdemo, "RL109")
        assert any("table3.py" in v.path for v in hits)
        assert any("layer" in v.message for v in hits)

    def test_rl110_dead_export(self, progdemo):
        hits = by_rule(progdemo, "RL110")
        assert any("unused_helper" in v.message for v in hits)

    def test_rl210_interprocedural_taint(self, progdemo):
        hits = by_rule(progdemo, "RL210")
        assert any("fig.py" in v.path and "run_trial" in v.message for v in hits)

    def test_rl310_worker_shared_state(self, progdemo):
        hits = by_rule(progdemo, "RL310")
        assert any("_CACHE" in v.message and "fig.py" in v.path for v in hits)

    def test_rl311_fork_unsafe(self, progdemo):
        hits = by_rule(progdemo, "RL311")
        assert len([v for v in hits if "badpool.py" in v.path]) == 2

    def test_rl312_lambda_target(self, progdemo):
        hits = by_rule(progdemo, "RL312")
        assert any("badpool.py" in v.path and "lambda" in v.message for v in hits)

    def test_per_file_engine_misses_all_of_them(self):
        per_file, _ = run_paths(
            [str(FIXTURE_ROOT / "src")], root=FIXTURE_ROOT, program=False
        )
        program_only = {"RL109", "RL110", "RL210", "RL310", "RL311", "RL312"}
        assert not program_only & {v.rule for v in per_file}
        # The aliased bypass specifically evades per-file RL107.
        assert not any(
            v.rule == "RL107" and "fig.py" in v.path for v in per_file
        )


class TestFixtureFindingsPinned:
    """The exact findings of both fixture trees: a planted violation that
    stops firing, or a negative control that starts, fails here."""

    def test_progdemo(self, progdemo):
        assert pinned(progdemo, FIXTURE_ROOT) == PROGDEMO_FINDINGS

    def test_servedemo(self):
        violations, _ = run_paths(
            [str(SERVEDEMO_ROOT / "src")], root=SERVEDEMO_ROOT, program=True,
            use_cache=False,
        )
        assert pinned(violations, SERVEDEMO_ROOT) == SERVEDEMO_FINDINGS


# -- every suppression in src/ still earns its place ---------------------------

def _suppressed_statements(source: str) -> list[tuple[int, int, str]]:
    """``(first line, last line, code)`` of every statement carrying a
    ``# repro-lint: disable=<code>`` comment on one of its code lines (a
    compound statement spans its header only)."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if body else node.end_lineno
            spans.append((node.lineno, end))
    lines = source.splitlines()
    out = []
    for lineno, codes in sorted(Suppressions(source).line_rules.items()):
        if not lines[lineno - 1].split("#", 1)[0].strip():
            continue  # a comment-only line suppresses no statement of its own
        first, last = min(
            (s for s in spans if s[0] <= lineno <= s[1]), key=lambda s: s[1] - s[0]
        )
        out += [(first, last, code) for code in sorted(codes)]
    return out


class TestSuppressionsAreNeeded:
    def test_every_src_suppression_silences_one_finding(self, tmp_path):
        """Neutralise every suppression comment in a copy of the repo:
        each suppressed statement in ``src/`` must then yield exactly one
        finding of the comment's code, and nothing else may appear."""
        dirs = ("src", "tests", "benchmarks", "examples")
        for d in dirs:
            shutil.copytree(
                REPO_ROOT / d, tmp_path / d,
                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
            )
        shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
        expected = []
        for path in sorted((tmp_path / "src").rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            for first, last, code in _suppressed_statements(source):
                expected.append((str(path), first, last, code))
            path.write_text(
                source.replace("repro-lint: disable", "repro-lint: neutralised"),
                encoding="utf-8",
            )
        assert expected, "no suppression comments found under src/"

        violations, _ = run_paths(
            [str(tmp_path / d) for d in dirs], root=tmp_path, program=True,
            use_cache=False,
        )
        unmatched = list(violations)
        for path, first, last, code in expected:
            hits = [
                v for v in unmatched
                if v.path == path and first <= v.line <= last and code in (v.rule, v.name)
            ]
            assert len(hits) == 1, f"{path}:{first}: {code} silences {len(hits)} findings"
            unmatched.remove(hits[0])
        assert unmatched == [], "\n".join(v.format() for v in unmatched)


# -- deterministic machine output (satellite: --format json) -----------------


class TestDeterministicOutput:
    def test_json_bytes_stable_across_argument_order(self):
        forward = [
            str(FIXTURE_ROOT / "src/repro/experiments"),
            str(FIXTURE_ROOT / "src/repro/runtime"),
            str(FIXTURE_ROOT / "src/repro/topologies"),
            str(FIXTURE_ROOT / "src/repro/__init__.py"),
        ]
        v1, n1 = run_paths(
            forward, root=FIXTURE_ROOT, program=True, use_cache=False
        )
        v2, n2 = run_paths(
            list(reversed(forward)), root=FIXTURE_ROOT, program=True, use_cache=False
        )
        assert format_json(v1, n1).encode() == format_json(v2, n2).encode()

    def test_json_shape(self, progdemo):
        doc = json.loads(format_json(progdemo, 8))
        assert doc["files_checked"] == 8
        rows = doc["violations"]
        assert rows == sorted(
            rows, key=lambda r: (r["path"], r["line"], r["col"], r["rule"])
        )
        assert {"rule", "name", "path", "line", "col", "severity", "message"} <= set(
            rows[0]
        )

    def test_sarif_shape(self, progdemo):
        doc = json.loads(format_sarif(progdemo, root=FIXTURE_ROOT))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "RL311" in rule_ids
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            loc = result["locations"][0]["physicalLocation"]
            uri = loc["artifactLocation"]["uri"]
            assert not uri.startswith("/"), "SARIF uris must be repo-relative"
            assert loc["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        levels = {r["level"] for r in run["results"]}
        assert levels <= {"error", "warning", "note"}


# -- analysis cache -----------------------------------------------------------


class TestAnalysisCache:
    def _tree(self, tmp_path):
        return write_tree(
            tmp_path,
            {
                "src/repro/__init__.py": '"""pkg."""\n\n__all__: list = []\n',
                "src/repro/runtime/__init__.py": (
                    '"""pkg."""\n\n__all__: list = []\n'
                ),
                "src/repro/runtime/bad.py": (
                    '"""bad."""\n'
                    "import multiprocessing\n\n"
                    '__all__ = ["go"]\n\n\n'
                    "def go():\n"
                    '    """go."""\n'
                    '    return multiprocessing.get_context("fork")\n'
                ),
            },
        )

    def test_cache_round_trip_and_invalidation(self, tmp_path):
        self._tree(tmp_path)
        args = [str(tmp_path / "src")]
        v1, _ = run_paths(args, root=tmp_path, program=True)
        cache_dir = tmp_path / ".repro-lint-cache"
        entries = list(cache_dir.glob("program-*.json"))
        assert len(entries) == 1

        # Warm run: same findings, no new cache entry.
        v2, _ = run_paths(args, root=tmp_path, program=True)
        assert [v.format() for v in v1] == [v.format() for v in v2]
        assert list(cache_dir.glob("program-*.json")) == entries

        # Editing a file changes the content key -> fresh entry, new result.
        bad = tmp_path / "src/repro/runtime/bad.py"
        bad.write_text(
            bad.read_text().replace('get_context("fork")', 'get_context("spawn")')
        )
        v3, _ = run_paths(args, root=tmp_path, program=True)
        assert "RL311" in {v.rule for v in v1}
        assert "RL311" not in {v.rule for v in v3}
        assert len(list(cache_dir.glob("program-*.json"))) == 2

    def test_cache_dir_is_never_linted(self, tmp_path):
        self._tree(tmp_path)
        run_paths([str(tmp_path)], root=tmp_path, program=True)
        violations, _ = run_paths([str(tmp_path)], root=tmp_path, program=True)
        assert not any(".repro-lint-cache" in v.path for v in violations)


# -- config validation (satellite: clear errors naming the key) ---------------


class TestConfigErrors:
    def _load(self, tmp_path, toml_text):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent(toml_text))
        return load_config(tmp_path)

    def test_unknown_top_level_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'excludes'"):
            self._load(tmp_path, "[tool.repro-lint]\nexcludes = []\n")

    def test_unknown_rule_named(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown rule 'RL999'"):
            self._load(
                tmp_path, "[tool.repro-lint.rules.RL999]\nseverity = 'error'\n"
            )

    def test_bad_severity_names_key_and_value(self, tmp_path):
        with pytest.raises(
            ConfigError, match=r"'rules\.RL203\.severity'.*'fatal'"
        ):
            self._load(
                tmp_path, "[tool.repro-lint.rules.RL203]\nseverity = 'fatal'\n"
            )

    def test_paths_must_be_string_list(self, tmp_path):
        with pytest.raises(
            ConfigError, match=r"'rules\.RL203\.paths'.*list of strings.*got str"
        ):
            self._load(
                tmp_path, "[tool.repro-lint.rules.RL203]\npaths = 'src/repro'\n"
            )

    def test_enabled_must_be_bool(self, tmp_path):
        with pytest.raises(ConfigError, match=r"'rules\.RL101\.enabled'.*bool"):
            self._load(
                tmp_path, "[tool.repro-lint.rules.RL101]\nenabled = 'yes'\n"
            )

    def test_nested_table_under_paths_names_the_key(self, tmp_path):
        with pytest.raises(
            ConfigError, match=r"'rules\.RL203\.paths'.*list of strings.*got table"
        ):
            self._load(
                tmp_path,
                "[tool.repro-lint.rules.RL203.paths]\nvalue = 'oops'\n",
            )

    def test_nested_table_option_is_rejected(self, tmp_path):
        with pytest.raises(
            ConfigError, match=r"'rules\.RL203\.functions'.*not tables"
        ):
            self._load(
                tmp_path,
                "[tool.repro-lint.rules.RL203.functions]\nvalue = 'oops'\n",
            )

    def test_retired_rule_option_is_rejected(self, tmp_path):
        # RL206 read exempt-dirs until its scope moved into the sanctioned
        # table; a stale option must fail loudly, not load and do nothing.
        with pytest.raises(
            ConfigError, match=r"unknown key 'rules\.RL206\.exempt-dirs'"
        ):
            self._load(
                tmp_path,
                "[tool.repro-lint.rules.RL206]\nexempt-dirs = ['graphs']\n",
            )

    def test_exclude_must_be_string_list(self, tmp_path):
        with pytest.raises(ConfigError, match=r"'exclude'.*list of strings"):
            self._load(tmp_path, "[tool.repro-lint]\nexclude = 'src'\n")

    def test_program_rule_codes_are_known(self, tmp_path):
        cfg = self._load(
            tmp_path, "[tool.repro-lint.rules.RL210]\nseverity = 'warning'\n"
        )
        assert cfg.options_for("RL210", "determinism-taint")["severity"] == "warning"

    def test_configerror_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


# -- mypy ratchet (pure logic; no mypy needed) --------------------------------


class TestMypyRatchet:
    OUTPUT = textwrap.dedent(
        """\
        src/repro/store/core.py:12: error: Missing return statement
        src/repro/store/core.py:40:9: error: Incompatible types
        src/repro/runtime/pool.py:7: error: Name "x" is not defined
        src/repro/store/core.py:50: note: See documentation
        warning: unused section
        """
    )

    def test_parse_counts_errors_per_file(self):
        counts = parse_mypy_output(self.OUTPUT)
        assert counts == {
            "src/repro/store/core.py": 2,
            "src/repro/runtime/pool.py": 1,
        }

    def test_notes_and_garbage_ignored(self):
        assert parse_mypy_output("Success: no issues found\n") == {}

    def test_regression_detected_per_file(self):
        baseline = {"total": 2, "by_file": {"a.py": 2}}
        regressions, improvements = compare_to_baseline({"a.py": 3}, baseline)
        assert regressions == ["a.py: 2 -> 3 errors"]
        assert improvements == []

    def test_new_file_with_errors_is_a_regression(self):
        regressions, _ = compare_to_baseline(
            {"new.py": 1}, {"total": 0, "by_file": {}}
        )
        assert regressions == ["new.py: 0 -> 1 errors"]

    def test_improvement_reported_not_failed(self):
        baseline = {"total": 3, "by_file": {"a.py": 3}}
        regressions, improvements = compare_to_baseline({"a.py": 1}, baseline)
        assert regressions == []
        assert improvements == ["a.py: 3 -> 1 errors"]

    def test_baseline_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline({"b.py": 2, "a.py": 1}, path)
        loaded = load_baseline(path)
        assert loaded == {"total": 3, "by_file": {"a.py": 1, "b.py": 2}}
        # Serialized form is key-sorted (stable diffs in review).
        assert path.read_text().index('"a.py"') < path.read_text().index('"b.py"')

    def test_committed_baseline_is_zero(self):
        """The repo's typed subset must stay clean — the ratchet floor."""
        baseline = load_baseline()
        assert baseline["total"] == 0
        assert baseline["by_file"] == {}


# -- meta: the repository is clean under the whole-program passes -------------


class TestRepoProgramClean:
    def test_program_passes_find_nothing_in_repo(self):
        violations, files_checked = run_paths(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
                str(REPO_ROOT / "examples"),
            ],
            root=REPO_ROOT,
            program=True,
            use_cache=False,
        )
        assert violations == [], "\n".join(v.format() for v in violations)
        assert files_checked > 100
