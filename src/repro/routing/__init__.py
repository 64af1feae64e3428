"""Routing: minimal (analytic and table-based) and adaptive (Valiant/UGAL).

* :class:`TableRouter` — all-minimal-path, BFS-table-based (what Booksim
  uses for SF/BF; §9.3 notes its storage cost).
* :class:`PolarStarRouter` — the paper's analytic minimal routing (§9.2);
  stores only structure-graph tables plus O(supernode²) local state.
* :class:`DragonflyRouter` / :class:`HyperXRouter` — the standard
  hierarchical / dimension-ordered minimal schemes.
* :class:`ValiantMixin`-style helpers for UGAL live in
  :mod:`repro.routing.ugal` and are consumed by the simulators.
"""

from repro.routing.base import Router, route_path
from repro.routing.table import TableRouter, next_hop_table
from repro.routing.polarstar_routing import PolarStarRouter
from repro.routing.dragonfly_routing import DragonflyRouter
from repro.routing.hyperx_routing import HyperXRouter
from repro.routing.ugal import UgalPolicy, valiant_path

__all__ = [
    "Router",
    "route_path",
    "TableRouter",
    "next_hop_table",
    "PolarStarRouter",
    "DragonflyRouter",
    "HyperXRouter",
    "UgalPolicy",
    "valiant_path",
]
