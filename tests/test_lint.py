"""Tests for the repro-lint static-analysis framework (tools/lint).

Each rule gets at least one positive fixture (snippet that must trigger)
and one negative fixture (snippet that must pass), plus suppression-comment
coverage.  The meta-tests at the bottom assert the real repository is clean
under the full rule catalog — the same gate CI enforces.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.lint.cli import lint_file, main, run_paths
from tools.lint.config import LintConfig, load_config, path_in_scope
from tools.lint.core import Suppressions, Violation, all_rules, get_rule

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(
    tmp_path: Path,
    source: str,
    rule: str,
    relpath: str = "src/repro/graphs/mod.py",
):
    """Lint a snippet as if it lived at *relpath* inside a repo at tmp_path.

    Codes outside the per-file catalog are whole-program passes, so those
    snippets go through the ``--program`` engine with only *rule* selected.
    """
    file = tmp_path / relpath
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source))
    try:
        cls = get_rule(rule)
    except KeyError:
        violations, _ = run_paths(
            [str(file)], root=tmp_path, select={rule}, program=True,
            use_cache=False,
        )
        return violations
    return lint_file(file, [cls()], LintConfig(root=tmp_path))


def codes(violations) -> list[str]:
    return [v.rule for v in violations]


# -- RL101 contract-validation ----------------------------------------------


class TestContractValidation:
    def test_factory_without_validation_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            def widget_graph(q):
                return [q]
            """,
            "RL101",
        )
        assert codes(out) == ["RL101"]

    def test_factory_with_raise_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            def widget_graph(q):
                if q < 2:
                    raise ValueError("q too small")
                return [q]
            """,
            "RL101",
        )
        assert out == []

    def test_factory_with_validator_call_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro.fields import is_prime_power

            def widget_graph(q):
                is_prime_power(q)
                return [q]
            """,
            "RL101",
        )
        assert out == []

    def test_factory_delegation_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            def widget_graph(q):
                return other_graph(q)
            """,
            "RL101",
        )
        assert out == []

    def test_assert_does_not_count_as_validation(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            def widget_graph(q):
                assert q >= 2
                return [q]
            """,
            "RL101",
        )
        assert codes(out) == ["RL101"]

    def test_init_without_validation_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            class Widget:
                def __init__(self, q):
                    self.q = q
            """,
            "RL101",
        )
        assert codes(out) == ["RL101"]

    def test_out_of_scope_path_ignored(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def widget_graph(q):\n    return [q]\n",
            "RL101",
            relpath="src/repro/analysis/mod.py",
        )
        assert out == []


# -- RL105 fault-discipline --------------------------------------------------


class TestFaultDiscipline:
    RELPATH = "src/repro/faults/mod.py"

    def test_bare_except_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            try:
                inject()
            except:
                pass
            """,
            "RL105",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL105"]

    def test_logged_broad_except_still_triggers(self, tmp_path):
        # RL202 would let this pass (the error is logged); RL105 must not.
        out = lint_source(
            tmp_path,
            """
            import logging

            try:
                inject()
            except Exception:
                logging.exception("fault application failed")
            """,
            "RL105",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL105"]

    def test_broad_except_in_tuple_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            try:
                inject()
            except (ValueError, Exception):
                raise
            """,
            "RL105",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL105"]

    def test_specific_except_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            try:
                inject()
            except KeyError:
                pass
            """,
            "RL105",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_stdlib_random_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import random

            def victims(links):
                return random.sample(links, 3)
            """,
            "RL105",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL105"]

    def test_seedless_default_rng_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import numpy as np

            def victims(links):
                return np.random.default_rng().choice(links)
            """,
            "RL105",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL105"]

    def test_seeded_rng_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import numpy as np

            def victims(links, seed):
                rng = np.random.default_rng(seed)
                return rng.choice(links)
            """,
            "RL105",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_out_of_scope_path_ignored(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import random\n\nx = random.random()\n",
            "RL105",
            relpath="src/repro/analysis/mod.py",
        )
        assert out == []


# -- RL107 store-discipline ---------------------------------------------------


class TestStoreDiscipline:
    RELPATH = "src/repro/experiments/mod.py"

    def test_direct_topology_builder_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro.topologies import polarstar_topology

            def run():
                return polarstar_topology(7, p=1)
            """,
            "RL107",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL107"]

    def test_direct_table_router_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro.routing import TableRouter

            def run(topo):
                return TableRouter(topo.graph)
            """,
            "RL107",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL107"]

    def test_direct_min_bisection_and_dist_table_trigger(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro.analysis.bisection import min_bisection
            from repro.routing.table import build_distance_table

            def run(g):
                cut, _ = min_bisection(g)
                return cut, build_distance_table(g)
            """,
            "RL107",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL107", "RL107"]

    def test_store_resolution_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro import store

            def run():
                topo = store.table3_topology("DF")
                router = store.table_router(topo)
                cut, _ = store.min_bisection(topo.graph)
                return store.topology("dragonfly", a=4, h=2, p=2)
            """,
            "RL107",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_suppression_comment_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro.routing import TableRouter

            def run(degraded_graph):
                # ephemeral degraded graph: intentionally uncached
                return TableRouter(degraded_graph)  # repro-lint: disable=RL107
            """,
            "RL107",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_out_of_scope_path_ignored(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro.topologies import polarstar_topology

            def run():
                return polarstar_topology(7, p=1)
            """,
            "RL107",
            relpath="src/repro/topologies/mod.py",
        )
        assert out == []


# -- RL112 serve-discipline ---------------------------------------------------


class TestServeDiscipline:
    SERVE_RELPATH = "src/repro/serve/handlers.py"

    def test_asyncio_run_outside_server_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import asyncio

            def drive(coro):
                return asyncio.run(coro)
            """,
            "RL112",
            relpath="src/repro/experiments/mod.py",
        )
        assert codes(out) == ["RL112"]

    def test_loop_creation_and_run_until_complete_trigger(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import asyncio

            def drive(coro):
                loop = asyncio.new_event_loop()
                return loop.run_until_complete(coro)
            """,
            "RL112",
            relpath="src/repro/analysis/mod.py",
        )
        assert codes(out) == ["RL112", "RL112"]

    def test_aliased_from_import_run_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from asyncio import run as arun

            def drive(coro):
                return arun(coro)
            """,
            "RL112",
            relpath="src/repro/experiments/mod.py",
        )
        assert codes(out) == ["RL112"]

    def test_loop_owner_module_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import asyncio

            def serve_forever(coro):
                return asyncio.run(coro)
            """,
            "RL112",
            relpath="src/repro/serve/server.py",
        )
        assert out == []

    def test_store_call_in_async_handler_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro import store

            async def handle(req):
                return store.table3_topology(req["name"])
            """,
            "RL112",
            relpath=self.SERVE_RELPATH,
        )
        assert codes(out) == ["RL112"]

    def test_registry_load_and_sleep_in_async_trigger(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import time

            async def handle(registry, req):
                shard = registry.load(req["name"])
                time.sleep(0.01)
                return shard
            """,
            "RL112",
            relpath=self.SERVE_RELPATH,
        )
        assert codes(out) == ["RL112", "RL112"]

    def test_bfs_kernel_in_async_handler_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro.analysis.distances import hop_distances

            async def handle(graph, req):
                return hop_distances(graph, req["sources"])
            """,
            "RL112",
            relpath=self.SERVE_RELPATH,
        )
        assert codes(out) == ["RL112"]

    def test_sync_store_call_in_serve_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from repro import store

            def load_shard(name):
                return store.table3_topology(name)
            """,
            "RL112",
            relpath=self.SERVE_RELPATH,
        )
        assert out == []

    def test_async_store_call_outside_serve_passes(self, tmp_path):
        # Clause 2 is scoped to the serve package; other layers answer to
        # RL107 for store discipline, not to the async-handler rule.
        out = lint_source(
            tmp_path,
            """
            from repro import store

            async def gather(name):
                return store.table3_topology(name)
            """,
            "RL112",
            relpath="src/repro/experiments/mod.py",
        )
        assert out == []

    def test_asyncio_sleep_in_serve_async_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import asyncio

            async def backoff():
                await asyncio.sleep(0.01)
            """,
            "RL112",
            relpath=self.SERVE_RELPATH,
        )
        assert out == []

    def test_suppression_comment_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import asyncio

            def drive(coro):
                return asyncio.run(coro)  # repro-lint: disable=RL112
            """,
            "RL112",
            relpath="src/repro/experiments/mod.py",
        )
        assert out == []

    def test_servedemo_fixture_plants_all_fire(self):
        fixture = REPO_ROOT / "tests" / "fixtures" / "servedemo"
        violations, _ = run_paths(
            [str(fixture / "src")], root=fixture, select={"RL112"},
            program=True, use_cache=False,
        )
        hits = {(Path(v.path).name, v.rule) for v in violations}
        assert ("driver.py", "RL112") in hits
        assert ("handlers.py", "RL112") in hits
        assert all(Path(v.path).name != "clean.py" for v in violations)
        # one finding per planted violation: 4 loop calls + 3 blocking calls
        assert len(violations) == 7


# -- RL113 retry-discipline ---------------------------------------------------


class TestRetryDiscipline:
    RELPATH = "src/repro/experiments/mod.py"

    def test_sleep_in_retry_loop_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import time

            def fetch(client, req):
                while True:
                    try:
                        return client.request(req)
                    except ConnectionError:
                        time.sleep(0.1)
            """,
            "RL113",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL113"]

    def test_stdlib_random_jitter_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import random
            import time

            def fetch(client, req):
                for _ in range(5):
                    try:
                        return client.request(req)
                    except OSError:
                        time.sleep(random.random())
            """,
            "RL113",
            relpath=self.RELPATH,
        )
        assert sorted(codes(out)) == ["RL113", "RL113"]

    def test_unseeded_default_rng_in_retry_loop_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import numpy as np

            def fetch(client, req):
                while True:
                    try:
                        return client.request(req)
                    except OSError:
                        _jitter = np.random.default_rng().random()
            """,
            "RL113",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL113"]

    def test_sleep_loop_without_except_passes(self, tmp_path):
        # A plain poll loop is not a retry loop: nothing is caught.
        out = lint_source(
            tmp_path,
            """
            import time

            def wait_for(predicate):
                while not predicate():
                    time.sleep(0.01)
            """,
            "RL113",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_except_outside_loop_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import time

            def once(client, req):
                try:
                    return client.request(req)
                except ConnectionError:
                    return None

            def pace():
                for _ in range(3):
                    time.sleep(0.01)
            """,
            "RL113",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_seeded_rng_jitter_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import numpy as np

            def fetch(client, req, seed=0):
                rng = np.random.default_rng(seed)
                while True:
                    try:
                        return client.request(req)
                    except OSError:
                        _jitter = rng.random()
            """,
            "RL113",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_reliability_kit_is_exempt(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import time

            def request_with_retries(client, req):
                while True:
                    try:
                        return client.request(req)
                    except ConnectionError:
                        time.sleep(0.05)
            """,
            "RL113",
            relpath="src/repro/serve/reliability.py",
        )
        assert out == []

    def test_runtime_is_exempt(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import time

            def run_with_retries(trial):
                while True:
                    try:
                        return trial()
                    except RuntimeError:
                        time.sleep(0.05)
            """,
            "RL113",
            relpath="src/repro/runtime/pool.py",
        )
        assert out == []

    def test_suppression_comment_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import time

            def fetch(client, req):
                while True:
                    try:
                        return client.request(req)
                    except ConnectionError:
                        time.sleep(0.1)  # repro-lint: disable=RL113
            """,
            "RL113",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_servedemo_fixture_plants_fire(self):
        fixture = REPO_ROOT / "tests" / "fixtures" / "servedemo"
        violations, _ = run_paths(
            [str(fixture / "src")], root=fixture, select={"RL113"},
            program=True, use_cache=False,
        )
        hits = {(Path(v.path).name, v.rule) for v in violations}
        assert ("retry_loop.py", "RL113") in hits
        # the exempt-path negative control must stay silent
        assert all(
            Path(v.path).name != "reliability.py" for v in violations
        )
        # sleep + stdlib jitter in the for-loop, unseeded rng + sleep in
        # the while-loop: one finding per planted violation
        assert len(violations) == 4


# -- RL115 durability-discipline ----------------------------------------------


class TestDurabilityDiscipline:
    RELPATH = "src/repro/store/core.py"

    def test_write_mode_open_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            def save(path, text):
                with open(path, "w") as f:
                    f.write(text)
            """,
            "RL115",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL115"]

    def test_append_and_plus_modes_trigger(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            def touch(path):
                open(path, "ab").close()
                open(path, mode="r+b").close()
            """,
            "RL115",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL115", "RL115"]

    def test_dynamic_mode_triggers(self, tmp_path):
        # A mode the linter cannot see is treated as a write.
        out = lint_source(
            tmp_path,
            """
            def reopen(path, mode):
                return open(path, mode)
            """,
            "RL115",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL115"]

    def test_raw_os_calls_trigger(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import os

            def swap(tmp, path, fd):
                os.fsync(fd)
                os.replace(tmp, path)
            """,
            "RL115",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL115", "RL115"]

    def test_from_import_alias_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from os import replace as swap

            def commit(tmp, path):
                swap(tmp, path)
            """,
            "RL115",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL115"]

    def test_tempfile_and_path_writers_trigger(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import tempfile

            def scratch(path, text):
                fd, tmp = tempfile.mkstemp(dir=path.parent)
                path.write_text(text)
                return fd, tmp
            """,
            "RL115",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL115", "RL115"]

    def test_read_mode_opens_pass(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            def load(path):
                with open(path, "rb") as f:
                    return f.read()

            def load_default(path):
                with open(path) as f:
                    return f.read()
            """,
            "RL115",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_seam_calls_pass(self, tmp_path):
        # The sanctioned path: every durable op through the injected seam.
        out = lint_source(
            tmp_path,
            """
            def atomic_write(io, path, blob):
                f = io.exclusive_create(path.parent, prefix=".tmp-")
                io.write(f, blob)
                io.fsync(f)
                io.close(f)
                io.replace(f.path, path)
                io.fsync_dir(path.parent)
            """,
            "RL115",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_outside_durability_layer_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import os

            def save(path, text):
                with open(path, "w") as f:
                    f.write(text)
                os.fsync(f.fileno())
            """,
            "RL115",
            relpath="src/repro/experiments/mod.py",
        )
        assert out == []

    def test_suppression_comment_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            def save(path, text):
                with open(path, "w") as f:  # repro-lint: disable=RL115
                    f.write(text)
            """,
            "RL115",
            relpath=self.RELPATH,
        )
        assert out == []

    def test_servedemo_fixture_plants_fire(self):
        fixture = REPO_ROOT / "tests" / "fixtures" / "servedemo"
        violations, _ = run_paths(
            [str(fixture / "src")], root=fixture, select={"RL115"},
            program=True, use_cache=False,
        )
        hits = {(Path(v.path).name, v.rule) for v in violations}
        assert ("rawdisk.py", "RL115") in hits
        # the seam-mediated negative control must stay silent
        assert all(
            Path(v.path).name != "seamwrites.py" for v in violations
        )
        # write-mode open, dynamic-mode open, mkstemp, fdopen, fsync,
        # replace, aliased rename, Path.write_text
        assert len(violations) == 8


# -- RL108 process-discipline -------------------------------------------------


class TestProcessDiscipline:
    RELPATH = "src/repro/experiments/mod.py"
    RUNTIME_RELPATH = "src/repro/runtime/mod.py"

    def test_multiprocessing_import_outside_runtime_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import multiprocessing

            def run():
                return multiprocessing.Pool(4)
            """,
            "RL108",
            relpath=self.RELPATH,
        )
        # the import and the call
        assert codes(out) == ["RL108", "RL108"]

    def test_subprocess_from_import_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            from subprocess import run as sprun

            def shell(cmd):
                return sprun(cmd)
            """,
            "RL108",
            relpath=self.RELPATH,
        )
        # the import and the aliased subprocess.run call
        assert codes(out) == ["RL108", "RL108"]

    def test_os_fork_and_system_trigger(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import os

            def split():
                if os.fork() == 0:
                    os.system("true")
            """,
            "RL108",
            relpath=self.RELPATH,
        )
        assert codes(out) == ["RL108", "RL108"]

    def test_runtime_package_may_spawn(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import multiprocessing
            import os

            def spawn():
                ctx = multiprocessing.get_context("spawn")
                return ctx, os.getpid()
            """,
            "RL108",
            relpath=self.RUNTIME_RELPATH,
        )
        assert out == []

    def test_runtime_stdlib_random_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import random

            def jitter():
                return random.uniform(0.0, 0.25)
            """,
            "RL108",
            relpath=self.RUNTIME_RELPATH,
        )
        assert codes(out) == ["RL108"]

    def test_runtime_unseeded_default_rng_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import numpy as np

            def jitter():
                return np.random.default_rng().uniform()
            """,
            "RL108",
            relpath=self.RUNTIME_RELPATH,
        )
        assert codes(out) == ["RL108"]

    def test_runtime_seeded_rng_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import numpy as np

            def jitter(seed, attempt):
                return float(np.random.default_rng([seed, attempt]).uniform())
            """,
            "RL108",
            relpath=self.RUNTIME_RELPATH,
        )
        assert out == []

    def test_suppression_comment_is_honored(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import subprocess  # repro-lint: disable=RL108

            def rev():
                return subprocess.run(["git", "rev-parse", "HEAD"])  # repro-lint: disable=RL108
            """,
            "RL108",
            relpath="src/repro/obs/mod.py",
        )
        assert out == []


# -- RL201 mutable-default-arg ----------------------------------------------


class TestMutableDefaultArg:
    def test_list_default_triggers(self, tmp_path):
        out = lint_source(tmp_path, "def f(x=[]):\n    return x\n", "RL201")
        assert codes(out) == ["RL201"]

    def test_dict_call_default_triggers(self, tmp_path):
        out = lint_source(tmp_path, "def f(*, x=dict()):\n    return x\n", "RL201")
        assert codes(out) == ["RL201"]

    def test_none_default_passes(self, tmp_path):
        out = lint_source(tmp_path, "def f(x=None, y=(), z=3):\n    return x\n", "RL201")
        assert out == []


# -- RL202 broad-except ------------------------------------------------------


class TestBroadExcept:
    def test_silent_broad_except_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            try:
                risky()
            except Exception:
                fallback()
            """,
            "RL202",
        )
        assert codes(out) == ["RL202"]

    def test_bare_except_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            try:
                risky()
            except:
                pass
            """,
            "RL202",
        )
        assert codes(out) == ["RL202"]

    def test_specific_exception_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            try:
                risky()
            except ValueError:
                fallback()
            """,
            "RL202",
        )
        assert out == []

    def test_logged_fallback_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            try:
                risky()
            except Exception:
                logger.warning("fallback path taken")
                fallback()
            """,
            "RL202",
        )
        assert out == []

    def test_reraise_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            try:
                risky()
            except Exception:
                cleanup()
                raise
            """,
            "RL202",
        )
        assert out == []

    def test_used_exception_binding_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            failures = []
            try:
                risky()
            except Exception as exc:
                failures.append(exc)
            """,
            "RL202",
        )
        assert out == []


# -- RL203 implicit-dtype ----------------------------------------------------


class TestImplicitDtype:
    def test_zeros_without_dtype_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import numpy as np\nx = np.zeros(10)\n",
            "RL203",
            relpath="src/repro/sim/mod.py",
        )
        assert codes(out) == ["RL203"]

    def test_full_without_dtype_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import numpy as np\nx = np.full(10, 0.5)\n",
            "RL203",
            relpath="src/repro/routing/mod.py",
        )
        assert codes(out) == ["RL203"]

    def test_explicit_dtype_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import numpy as np\n"
            "x = np.zeros(10, dtype=np.int64)\n"
            "y = np.full(10, 0.5, dtype=np.float64)\n"
            "z = np.empty((3, 3), np.int32)\n",
            "RL203",
            relpath="src/repro/sim/mod.py",
        )
        assert out == []

    def test_out_of_scope_path_ignored(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import numpy as np\nx = np.zeros(10)\n",
            "RL203",
            relpath="src/repro/analysis/mod.py",
        )
        assert out == []


# -- RL204 legacy-random -----------------------------------------------------


class TestLegacyRandom:
    def test_legacy_call_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n",
            "RL204",
        )
        assert codes(out) == ["RL204", "RL204"]

    def test_generator_api_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.random(3)\n",
            "RL204",
        )
        assert out == []


# -- RL205 seedless-rng ------------------------------------------------------


class TestSeedlessRng:
    def test_seedless_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng()\n",
            "RL205",
        )
        assert codes(out) == ["RL205"]

    def test_seeded_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "rng2 = np.random.default_rng(seed=13)\n",
            "RL205",
        )
        assert out == []


# -- RL206 raw-wall-clock ----------------------------------------------------


class TestRawWallClock:
    def test_module_attribute_call_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import time\nstart = time.perf_counter()\n",
            "RL206",
        )
        assert codes(out) == ["RL206"]

    def test_time_time_and_monotonic_trigger(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import time\na = time.time()\nb = time.monotonic()\n",
            "RL206",
        )
        assert codes(out) == ["RL206", "RL206"]

    def test_from_import_bare_call_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            "from time import perf_counter\nstart = perf_counter()\n",
            "RL206",
        )
        assert codes(out) == ["RL206"]

    def test_from_import_alias_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            "from time import perf_counter as clock\nstart = clock()\n",
            "RL206",
        )
        assert codes(out) == ["RL206"]

    def test_non_clock_time_functions_pass(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import time\ntime.sleep(1)\ns = time.strftime('%Y')\n",
            "RL206",
        )
        assert out == []

    def test_obs_package_is_exempt(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import time\nstart = time.perf_counter()\n",
            "RL206",
            relpath="src/repro/obs/tracing.py",
        )
        assert out == []

    def test_unrelated_bare_name_passes(self, tmp_path):
        # a local function that happens to be called `perf_counter` but was
        # not imported from time must not fire
        out = lint_source(
            tmp_path,
            "def perf_counter():\n    return 0\n\nx = perf_counter()\n",
            "RL206",
        )
        assert out == []

    def test_suppression_comment(self, tmp_path):
        out = lint_source(
            tmp_path,
            "import time\n"
            "start = time.time()  # repro-lint: disable=RL206\n",
            "RL206",
        )
        assert out == []


# -- RL301 missing-all -------------------------------------------------------


class TestMissingAll:
    def test_module_without_all_triggers(self, tmp_path):
        out = lint_source(tmp_path, "def api():\n    return 1\n", "RL301")
        assert codes(out) == ["RL301"]

    def test_module_with_all_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            '__all__ = ["api"]\n\ndef api():\n    return 1\n',
            "RL301",
        )
        assert out == []

    def test_main_module_exempt(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def api():\n    return 1\n",
            "RL301",
            relpath="src/repro/__main__.py",
        )
        assert out == []

    def test_private_module_exempt(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def api():\n    return 1\n",
            "RL301",
            relpath="src/repro/_internal.py",
        )
        assert out == []


# -- RL302 stale-all ---------------------------------------------------------


class TestStaleAll:
    def test_undefined_export_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            '__all__ = ["api", "ghost"]\n\ndef api():\n    return 1\n',
            "RL302",
        )
        assert codes(out) == ["RL302"]
        assert "ghost" in out[0].message

    def test_non_literal_all_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            'names = ["api"]\n__all__ = names\n\ndef api():\n    return 1\n',
            "RL302",
        )
        assert codes(out) == ["RL302"]

    def test_defined_and_imported_exports_pass(self, tmp_path):
        out = lint_source(
            tmp_path,
            "from os.path import join\n"
            "import sys\n"
            '__all__ = ["join", "sys", "api", "LIMIT"]\n'
            "LIMIT = 3\n"
            "def api():\n    return 1\n",
            "RL302",
        )
        assert out == []


# -- RL303 undocumented-public ----------------------------------------------


class TestUndocumentedPublic:
    def test_missing_docstring_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def run_fig99():\n    return 1\n",
            "RL303",
            relpath="src/repro/experiments/fig99.py",
        )
        assert codes(out) == ["RL303"]

    def test_docstring_and_private_pass(self, tmp_path):
        out = lint_source(
            tmp_path,
            '''
            def run_fig99():
                """Reproduce Fig. 99."""
                return 1

            def _helper():
                return 2
            ''',
            "RL303",
            relpath="src/repro/experiments/fig99.py",
        )
        assert out == []


# -- RL304 assert-in-lib -----------------------------------------------------


class TestAssertInLib:
    def test_assert_in_src_triggers(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def f(x):\n    assert x > 0\n    return x\n",
            "RL304",
        )
        assert codes(out) == ["RL304"]

    def test_raise_passes(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def f(x):\n"
            "    if x <= 0:\n"
            "        raise ValueError(x)\n"
            "    return x\n",
            "RL304",
        )
        assert out == []

    def test_tests_out_of_scope(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def test_f():\n    assert 1 + 1 == 2\n",
            "RL304",
            relpath="tests/test_x.py",
        )
        assert out == []


# -- suppression comments ----------------------------------------------------


class TestSuppressions:
    def test_line_suppression_by_code(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def f(x=[]):  # repro-lint: disable=RL201\n    return x\n",
            "RL201",
        )
        assert out == []

    def test_line_suppression_by_slug(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def f(x=[]):  # repro-lint: disable=mutable-default-arg\n    return x\n",
            "RL201",
        )
        assert out == []

    def test_line_suppression_all(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def f(x=[]):  # repro-lint: disable=all\n    return x\n",
            "RL201",
        )
        assert out == []

    def test_file_suppression(self, tmp_path):
        out = lint_source(
            tmp_path,
            "# repro-lint: disable-file=RL201\n"
            "def f(x=[]):\n    return x\n"
            "def g(y={}):\n    return y\n",
            "RL201",
        )
        assert out == []

    def test_suppression_is_rule_specific(self, tmp_path):
        out = lint_source(
            tmp_path,
            "def f(x=[]):  # repro-lint: disable=RL204\n    return x\n",
            "RL201",
        )
        assert codes(out) == ["RL201"]

    def test_suppression_index_parsing(self):
        sup = Suppressions(
            "x = 1  # repro-lint: disable=RL201, RL204\n"
            "# repro-lint: disable-file=broad-except\n"
        )
        assert sup.line_rules[1] == {"RL201", "RL204"}
        assert sup.file_rules == {"broad-except"}
        hit = Violation("RL202", "broad-except", "f.py", 9, 1, "m")
        assert sup.is_suppressed(hit)

    def test_continuation_line_suppression_covers_statement_start(self, tmp_path):
        # The finding is reported at the call's opening line (2); the
        # suppression sits on a continuation line of the same statement.
        out = lint_source(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(
                # repro-lint: disable=RL205
            )
            """,
            "RL205",
            relpath="src/repro/sim/mod.py",
        )
        assert out == []

    def test_continuation_suppression_is_still_rule_specific(self, tmp_path):
        out = lint_source(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(
                # repro-lint: disable=RL204
            )
            """,
            "RL205",
            relpath="src/repro/sim/mod.py",
        )
        assert codes(out) == ["RL205"]

    def test_body_comment_does_not_silence_def_line(self, tmp_path):
        # A suppression inside a function body must not cover a finding
        # reported at the def header (compound statements map headers only).
        out = lint_source(
            tmp_path,
            """
            def f(x=[]):
                y = 1  # repro-lint: disable=RL201
                return x, y
            """,
            "RL201",
        )
        assert codes(out) == ["RL201"]

    def test_multiline_def_header_suppression(self, tmp_path):
        # ...but a comment on a wrapped *header* line does count.
        out = lint_source(
            tmp_path,
            """
            def f(
                x=[],  # repro-lint: disable=RL201
            ):
                return x
            """,
            "RL201",
        )
        assert out == []


# -- framework / config ------------------------------------------------------


class TestFramework:
    def test_catalog_has_at_least_eight_rules(self):
        rules = all_rules()
        assert len(rules) >= 8
        assert len({r.code for r in rules}) == len(rules)
        assert len({r.name for r in rules}) == len(rules)

    def test_get_rule_by_code_and_slug(self):
        assert get_rule("RL203") is get_rule("implicit-dtype")
        with pytest.raises(KeyError):
            get_rule("RL999")

    def test_path_in_scope_component_boundaries(self):
        assert path_in_scope("src/repro/sim/flow.py", ("src/repro/sim",))
        assert not path_in_scope("src/repro/simx.py", ("src/repro/sim",))
        assert path_in_scope("anything.py", None)

    def test_config_severity_override(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.rules.RL304]\nseverity = \"warning\"\n"
        )
        src = tmp_path / "src" / "repro" / "mod.py"
        src.parent.mkdir(parents=True)
        src.write_text('__all__: list[str] = []\n\nassert True\n')
        rc = main([str(src), "--root", str(tmp_path)])
        assert rc == 0  # downgraded to warning -> gate passes

    def test_config_rejects_unknown_rule(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.rules.RL999]\nseverity = \"warning\"\n"
        )
        with pytest.raises(ValueError):
            load_config(tmp_path)

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        out, n = run_paths([str(bad)], root=tmp_path)
        assert n == 1
        assert codes(out) == ["RL000"]

    def test_cli_exit_codes(self, tmp_path):
        dirty = tmp_path / "src" / "repro" / "dirty.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("def f(x=[]):\n    return x\n")
        assert main([str(dirty), "--root", str(tmp_path)]) == 1
        assert main([str(dirty), "--root", str(tmp_path), "--select", "RL202"]) == 0
        assert (
            main([str(dirty), "--root", str(tmp_path), "--ignore", "RL201,RL301"]) == 0
        )

    def test_cli_relative_paths_resolve_against_root(self, tmp_path):
        dirty = tmp_path / "src" / "repro" / "dirty.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("def f(x=[]):\n    return x\n")
        # "src" is relative to --root, not to the process CWD.
        assert main(["src", "--root", str(tmp_path)]) == 1

    def test_cli_unknown_rule_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["src", "--root", str(tmp_path), "--select", "RL999"])
        assert exc.value.code == 2
        assert "unknown rule 'RL999'" in capsys.readouterr().err

    def test_cli_missing_path_is_clean_error(self, tmp_path, capsys):
        assert main(["no/such/dir", "--root", str(tmp_path)]) == 2
        assert "repro-lint: error:" in capsys.readouterr().err


# -- meta: the repository itself is clean ------------------------------------


class TestRepoIsClean:
    def test_repro_lint_clean_on_repo(self):
        """The CI gate: the full catalog finds nothing in the repo."""
        violations, files_checked = run_paths(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
                str(REPO_ROOT / "examples"),
            ],
            root=REPO_ROOT,
        )
        errors = [v for v in violations if v.severity == "error"]
        assert errors == [], "\n".join(v.format() for v in errors)
        assert files_checked > 100  # sanity: discovery actually walked the tree

    def test_cli_entry_point_runs(self):
        """`python -m tools.lint` is the documented entry point."""
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "src", "--root", str(REPO_ROOT)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 errors" in proc.stdout

    @pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
    def test_mypy_clean_on_typed_subset(self):
        """The declared typed subset (pyproject [tool.mypy] files) passes."""
        proc = subprocess.run(
            ["mypy", "--no-error-summary"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
