"""Routing: minimal next-hop policies (analytic and table-based).

* :class:`TableRouter` — all-minimal-path, BFS-table-based (what Booksim
  uses for SF/BF; §9.3 notes its storage cost).
* :class:`PolarStarRouter` — the paper's analytic minimal routing (§9.2);
  stores only structure-graph tables plus O(supernode²) local state.
* :class:`DragonflyRouter` / :class:`HyperXRouter` — the standard
  hierarchical / dimension-ordered minimal schemes.

Valiant and UGAL (§9.3) are built on these minimal routers inside each
simulator that runs them: the packet engines, the motif engine and the
flow model's ``ugal_saturation_load``.
"""

from repro.routing.base import Router, route_path
from repro.routing.table import TableRouter, next_hop_table
from repro.routing.polarstar_routing import PolarStarRouter
from repro.routing.dragonfly_routing import DragonflyRouter
from repro.routing.hyperx_routing import HyperXRouter

__all__ = [
    "Router",
    "route_path",
    "TableRouter",
    "next_hop_table",
    "PolarStarRouter",
    "DragonflyRouter",
    "HyperXRouter",
]
