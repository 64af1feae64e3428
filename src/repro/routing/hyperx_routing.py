"""Dimension-aligned minimal routing for HyperX (Ahn et al. 2009).

A minimal HyperX path aligns each mismatched coordinate exactly once, in
any order — so the minimal next hops from *u* toward *t* are the neighbors
of *u* with one more coordinate aligned.  No tables are needed beyond the
dimension strides (the property §9.3 credits HyperX with).
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import Router
from repro.topologies.base import Topology

__all__ = ["HyperXRouter"]


class HyperXRouter(Router):
    """All-minimal-path dimension-ordered routing on a HyperX."""

    def __init__(self, topology: Topology):
        if "dims" not in topology.meta:
            raise ValueError("HyperXRouter needs a hyperx_topology network")
        self.topology = topology
        self.graph = topology.graph
        self.dims = tuple(topology.meta["dims"])
        self.strides = np.asarray(topology.meta["strides"], dtype=np.int64)

    def coords(self, router: int) -> tuple[int, ...]:
        out = []
        for stride, size in zip(self.strides, self.dims):
            out.append((router // stride) % size)
        return tuple(out)

    def distance(self, current: int, dest: int) -> int:
        cc, tc = self.coords(current), self.coords(dest)
        return sum(int(a != b) for a, b in zip(cc, tc))

    def next_hops(self, current: int, dest: int) -> list[int]:
        if current == dest:
            return []
        cc, tc = self.coords(current), self.coords(dest)
        hops = []
        for axis, (a, b) in enumerate(zip(cc, tc)):
            if a != b:
                hops.append(int(current + (b - a) * self.strides[axis]))
        return hops

