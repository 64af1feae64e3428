"""Hierarchical minimal routing for Dragonfly (local-global-local).

Stores only a group-pair gateway table (``O(g²)``), not per-router state:
a packet in group *G* headed for group *T* first moves locally to the
router owning the single G–T global link, crosses it, then moves locally to
the destination router.  This matches Booksim's built-in Dragonfly MIN
routing (§9.1).  ``next_hop_batch`` and ``distance_batch`` compute the
same l-g-l answers for whole arrays of pairs from two gathers on
``groups`` and two on ``gateway``.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import Router, check_pairs
from repro.topologies.base import Topology

__all__ = [
    "DragonflyRouter",
]


class DragonflyRouter(Router):
    """Minimal l-g-l routing on a :func:`dragonfly_topology` network."""

    def __init__(self, topology: Topology):
        if topology.groups is None or "a" not in topology.meta:
            raise ValueError("DragonflyRouter needs a dragonfly_topology network")
        self.topology = topology
        self.graph = topology.graph
        self.a = topology.meta["a"]
        self.h = topology.meta["h"]
        self.g = topology.meta["num_groups"]
        self.groups = topology.groups

        # gateway[src_group, dst_group] = router (id) in src_group owning the
        # global link toward dst_group.
        gw = np.full((self.g, self.g), -1, dtype=np.int64)
        for grp in range(self.g):
            for k in range(self.a * self.h):
                tgt = k if k < grp else k + 1
                gw[grp, tgt] = grp * self.a + k // self.h
        self.gateway = gw

    def distance(self, current: int, dest: int) -> int:
        if current == dest:
            return 0
        gc, gt = self.groups[current], self.groups[dest]
        if gc == gt:
            return 1  # groups are cliques
        src_gw = self.gateway[gc, gt]
        dst_gw = self.gateway[gt, gc]
        return int(current != src_gw) + 1 + int(dest != dst_gw)

    def next_hops(self, current: int, dest: int) -> list[int]:
        if current == dest:
            return []
        gc, gt = self.groups[current], self.groups[dest]
        if gc == gt:
            return [dest]
        src_gw = int(self.gateway[gc, gt])
        if current == src_gw:
            dst_gw = int(self.gateway[gt, gc])
            return [dst_gw]
        return [src_gw]

    def _gateways(self, current, dest):
        cur, dst = check_pairs(current, dest, self.graph.n)
        gc, gt = self.groups[cur], self.groups[dst]
        return cur, dst, gc == gt, self.gateway[gc, gt], self.gateway[gt, gc]

    def next_hop_batch(self, current: np.ndarray, dest: np.ndarray) -> np.ndarray:
        cur, dst, local, src_gw, dst_gw = self._gateways(current, dest)
        hop = np.where(local, dst, np.where(cur == src_gw, dst_gw, src_gw))
        hop[cur == dst] = -1
        return hop

    def distance_batch(self, current: np.ndarray, dest: np.ndarray) -> np.ndarray:
        cur, dst, local, src_gw, dst_gw = self._gateways(current, dest)
        hops = (cur != src_gw).astype(np.int64) + 1 + (dst != dst_gw)
        return np.where(cur == dst, 0, np.where(local, 1, hops))

    @property
    def table_bytes(self) -> int:
        return self.gateway.nbytes
