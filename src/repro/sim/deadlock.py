"""Deadlock-freedom verification for the packet simulator's VC scheme.

The simulator assigns virtual channels by hop count (distance classes).
The channel dependency graph (Dally & Seitz) is then acyclic *provided no
packet ever needs more hops than there are VCs*: every dependency moves to
a strictly higher VC until the cap, and the capped class is only entered by
packets that have already exceeded the class count.

:func:`max_route_hops` computes the exact worst-case hop count of a routing
policy (optionally with Valiant two-phase detours); :func:`verify_vc_scheme`
turns that into a pass/fail check against a
:class:`~repro.sim.packet.PacketSimConfig`.  :func:`channel_dependency_graph`
builds the explicit CDG restricted to reachable (link, vc) channels so the
acyclicity argument can be checked mechanically on small instances.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.routing.base import Router
from repro.topologies.base import Topology

__all__ = [
    "max_route_hops",
    "verify_vc_scheme",
    "channel_dependency_graph",
    "is_acyclic",
]


def max_route_hops(
    topology: Topology, router: Router, valiant: bool = False, sample: int | None = None
) -> int:
    """Worst-case path length under the policy (2x for Valiant phases)."""
    n = topology.num_routers
    rng = np.random.default_rng(0)
    if sample is None or sample >= n:
        sources = np.arange(n, dtype=np.int64)
    else:
        sources = rng.choice(n, size=sample, replace=False)
    cur = np.repeat(sources, n)
    dst = np.tile(np.arange(n, dtype=np.int64), len(sources))
    worst = int(router.distance_batch(cur, dst).max(initial=0))
    return 2 * worst if valiant else worst


def verify_vc_scheme(
    topology: Topology,
    router: Router,
    num_vcs: int,
    valiant: bool = False,
    sample: int | None = 64,
) -> bool:
    """True iff hop-count VCs with ``num_vcs`` classes are deadlock-free for
    this (topology, policy): the packet entering hop *k* uses VC *k*, so we
    need ``num_vcs >= max_hops + 1``."""
    return num_vcs >= max_route_hops(topology, router, valiant, sample) + 1


def channel_dependency_graph(
    topology: Topology, router: Router, num_vcs: int
) -> tuple[sp.csr_matrix, int]:
    """Explicit CDG over (directed link, vc) channels under minimal routing.

    A dependency (l1, v) -> (l2, v+1) exists when some minimal route enters
    ``head(l1)`` via l1 and continues on l2.  Returns the adjacency matrix
    and the number of channels; acyclicity can be checked with
    :func:`is_acyclic`.
    """
    g = topology.graph
    link_id: dict[tuple[int, int], int] = {}
    for u in range(g.n):
        for v in g.neighbors(u):
            link_id[(u, int(v))] = len(link_id)
    nl = len(link_id)

    rows, cols = [], []
    for (u, v), l1 in link_id.items():
        # Successor links actually used by some destination's minimal route.
        next_links = set()
        for t in range(g.n):
            if t == v:
                continue
            if router.distance(v, t) == router.distance(u, t) - 1:
                for w in router.next_hops(v, t):
                    next_links.add(link_id[(v, w)])
        for l2 in next_links:
            for vc in range(num_vcs - 1):
                rows.append(l1 * num_vcs + vc)
                cols.append(l2 * num_vcs + min(vc + 1, num_vcs - 1))
    n_chan = nl * num_vcs
    data = np.ones(len(rows), dtype=np.int8)
    return sp.csr_matrix((data, (rows, cols)), shape=(n_chan, n_chan)), n_chan


def is_acyclic(adj: sp.csr_matrix) -> bool:
    """Cycle test via strongly connected components (every SCC must be a
    singleton without a self-loop)."""
    n_comp, labels = sp.csgraph.connected_components(adj, directed=True, connection="strong")
    if n_comp < adj.shape[0]:
        return False
    return (adj.diagonal() == 0).all()
