"""Architecture contract passes: layering and dead exports.

RL109 enforces the architecture layering (``docs/ARCHITECTURE.md``): a
module may only import modules at its own layer or below, and the
module-top-level import graph must stay acyclic (function-level lazy
imports are the sanctioned cycle breaker and are exempt from the cycle
check, but not from the hard low-layer -> runtime ban).

RL110 checks the ``__all__`` export lists against actual cross-module use:
an export nobody imports or references is dead API surface.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import Violation, dotted_name

from tools.lint.program.base import ProgramRule, register_program
from tools.lint.program.callgraph import CallGraph
from tools.lint.program.model import ModuleInfo, ProjectModel

__all__ = [
    "Layering",
    "DeadExport",
]


#: Architecture layers, lowest first.  Rank lookup is by longest dotted
#: prefix, so leaf interface modules (``repro.store.registry``,
#: ``repro.topologies.base``) can sit below their parent package.
DEFAULT_LAYERS: tuple[tuple[str, ...], ...] = (
    ("repro.fields", "repro.obs"),
    ("repro.graphs",),
    ("repro.core", "repro.store.registry", "repro.topologies.base",
     "repro.routing.base"),
    ("repro.analysis",),
    ("repro.topologies", "repro.routing"),
    ("repro.layout", "repro.traffic", "repro.faults"),
    ("repro.sim", "repro.store", "repro.experiments.common"),
    ("repro.experiments",),
    ("repro.runtime",),
    ("repro.serve",),
    ("repro", "repro.cli", "repro.__main__"),
)

#: Layers that must never be imported (even lazily) from the low layers.
_HIGH_LAYER_PREFIXES = ("repro.experiments", "repro.cli", "repro.runtime")
_LOW_LAYER_PREFIXES = ("repro.core", "repro.graphs", "repro.topologies")


@register_program
class Layering(ProgramRule):
    """RL109: imports must point downward in the architecture stack."""

    code = "RL109"
    name = "layering"
    severity = "error"
    default_paths = ("src/repro",)
    description = (
        "architecture layering: a module may import only modules at its own "
        "layer or below; the top-level import graph must stay acyclic"
    )

    def _rank(self, name: str) -> int | None:
        best: tuple[int, int] | None = None  # (prefix length, rank)
        for rank, prefixes in enumerate(DEFAULT_LAYERS):
            for prefix in prefixes:
                if name == prefix or name.startswith(prefix + "."):
                    if best is None or len(prefix) > best[0]:
                        best = (len(prefix), rank)
        return None if best is None else best[1]

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        for name in sorted(model.modules):
            mod = model.modules[name]
            if not mod.rel_path.startswith("src/repro"):
                continue
            src_rank = self._rank(name)
            if src_rank is None:
                continue
            for edge in mod.top_imports:
                target_dotted = (
                    edge.target
                    if edge.symbol in (None, "*")
                    else f"{edge.target}.{edge.symbol}"
                )
                target_mod, _ = model.split_module_prefix(target_dotted)
                if target_mod is None or target_mod == name:
                    continue
                dst_rank = self._rank(target_mod)
                if dst_rank is None or dst_rank <= src_rank:
                    continue
                yield self.flag(
                    mod,
                    None,
                    f"layer violation: {name} (layer {src_rank}) imports "
                    f"{target_mod} (layer {dst_rank}); dependencies must "
                    "point downward — move shared code below both, or use "
                    "a registry/callback inversion",
                    line=edge.lineno,
                    col=1,
                )
            # Hard ban: low layers must not touch the orchestration layers
            # even through function-level lazy imports.
            if name.startswith(_LOW_LAYER_PREFIXES):
                for edge in mod.deferred_imports:
                    target_mod, _ = model.split_module_prefix(edge.target)
                    if target_mod is not None and target_mod.startswith(
                        _HIGH_LAYER_PREFIXES
                    ):
                        yield self.flag(
                            mod,
                            None,
                            f"layer violation: {name} lazily imports "
                            f"{target_mod}; core/graphs/topologies must never "
                            "depend on experiments/cli/runtime",
                            line=edge.lineno,
                            col=1,
                        )
        for cycle in model.import_cycles():
            members = [m for m in cycle if m in model.modules]
            if not members:
                continue
            first = model.modules[members[0]]
            lineno = min(
                (e.lineno for e in first.top_imports), default=1
            )
            yield self.flag(
                first,
                None,
                "import cycle among modules: " + " -> ".join(cycle) +
                "; break it with a function-level lazy import or by "
                "extracting the shared interface downward",
                line=lineno,
                col=1,
            )


@register_program
class DeadExport(ProgramRule):
    """RL110: ``__all__`` entries nobody imports or references."""

    code = "RL110"
    name = "dead-export"
    severity = "warning"
    default_paths = ("src/repro",)
    description = (
        "__all__ exports that no other module imports, re-exports or "
        "references are dead API surface"
    )

    #: Packages whose exports serve external consumers, not this repo.
    EXEMPT_MODULES = ("repro",)
    #: Trial-API names dispatched dynamically (importlib / getattr) by the
    #: runtime plan layer — those edges are invisible to the static graph.
    EXEMPT_NAMES = (
        "run_trial", "plan_trials", "merge_trials", "format_figure",
        "format_table", "TRIAL_FIDELITY",
    )

    def check(self, model: ProjectModel, graph: CallGraph) -> Iterator[Violation]:
        used: set[tuple[str, str]] = set()

        def mark_chain(dotted: str) -> None:
            cur = dotted
            for _ in range(16):
                mod_name, rest = model.split_module_prefix(cur)
                if mod_name is None or not rest:
                    return
                head = rest.split(".")[0]
                used.add((mod_name, head))
                mod = model.modules[mod_name]
                if head in mod.bindings:
                    tail = rest[len(head):]
                    nxt = mod.bindings[head] + tail
                    if nxt == cur:
                        return
                    cur = nxt
                    continue
                return

        for mod in model.modules.values():
            for edge in mod.top_imports + mod.deferred_imports:
                if edge.symbol == "*":
                    target = model.modules.get(edge.target)
                    if target is not None and target.exports:
                        for export_name, _ in target.exports:
                            mark_chain(f"{edge.target}.{export_name}")
                    continue
                if edge.symbol is not None:
                    mark_chain(f"{edge.target}.{edge.symbol}")
                else:
                    # `import a.b.c` marks nothing by itself; attribute
                    # references below pick up actual use.
                    pass
            # Every resolvable dotted reference anywhere in the module.
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    chain = dotted_name(node)
                    if chain is None or "." not in chain:
                        continue
                    resolved = graph.resolve_chain(chain, mod)
                    if resolved is not None:
                        mark_chain(chain if mod.name != "" else resolved)
                        # Mark through the module's own bindings first, then
                        # the canonical target.
                        head = chain.split(".")[0]
                        if head in mod.bindings:
                            mark_chain(
                                mod.bindings[head] + chain[len(head):]
                            )
                        mark_chain(resolved)

        # Calls resolved through function-local imports/aliases (the
        # attribute walk above only sees module-level bindings).
        for sites in graph.calls.values():
            for site in sites:
                if site.resolved is not None:
                    mark_chain(site.resolved)

        for name in sorted(model.modules):
            mod = model.modules[name]
            if not mod.rel_path.startswith("src/repro"):
                continue
            if name in self.EXEMPT_MODULES:
                continue
            if mod.is_package:
                # Package __init__ re-export lists are the outward API
                # surface; external consumers are invisible to this scan.
                continue
            if not mod.exports:
                continue
            same_module_uses = self._same_module_uses(mod)
            for export_name, lineno in mod.exports:
                if (name, export_name) in used:
                    continue
                if export_name in self.EXEMPT_NAMES:
                    continue
                if export_name in same_module_uses:
                    continue
                yield self.flag(
                    mod,
                    None,
                    f"__all__ exports {export_name!r} but no module imports "
                    "or references it; drop the export or the symbol",
                    line=lineno,
                    col=1,
                )

    @staticmethod
    def _same_module_uses(mod: ModuleInfo) -> set[str]:
        """Names read (Load context) anywhere in the module itself."""
        uses: set[str] = set()
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.add(node.id)
        return uses
