"""Random link-failure resilience (Fig. 14, §11.2).

The paper removes random links until the network disconnects, reporting the
evolution of diameter and average shortest-path length, plus the
*disconnection ratio* (fraction of links removed when the network first
disconnects), median over 100 scenarios.

Connectivity probes share a :class:`ConnectivityProber`, which hoists the
per-call COO endpoint/weight buffers out of the hot loop — a disconnection
binary search issues O(log m) probes against one graph, and the median over
scenarios issues hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.analysis.distances import average_path_length, diameter
from repro.graphs.base import Graph

__all__ = [
    "ConnectivityProber",
    "FaultSweepResult",
    "disconnection_ratio",
    "link_failure_sweep",
    "median_disconnection_ratio",
]


@dataclass
class FaultSweepResult:
    """Diameter/APL trajectory of one link-failure scenario."""

    fractions: list[float] = field(default_factory=list)
    diameters: list[float] = field(default_factory=list)
    avg_path_lengths: list[float] = field(default_factory=list)
    disconnection_ratio: float = 1.0


class ConnectivityProber:
    """Reusable is-the-graph-still-connected tester for one graph.

    Holds the edge endpoint arrays and a unit-weight buffer once, so each
    probe only slices them by the surviving-edge mask and runs
    ``connected_components`` — no per-call edge-array fetch or weight
    allocation.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        e = graph.edge_array
        self._rows = np.ascontiguousarray(e[:, 0]) if graph.m else np.empty(0, np.int64)
        self._cols = np.ascontiguousarray(e[:, 1]) if graph.m else np.empty(0, np.int64)
        self._ones = np.ones(graph.m, dtype=np.int8)

    def is_connected(self, keep_mask: np.ndarray) -> bool:
        """True iff the subgraph keeping ``keep_mask`` edges is connected."""
        n = self.graph.n
        if n <= 1:
            return True
        rows = self._rows[keep_mask]
        if len(rows) < n - 1:
            return False  # fewer edges than any spanning tree
        cols = self._cols[keep_mask]
        deg = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
        if (deg == 0).any():
            return False  # isolated vertex — the common random-failure cut
        mat = sp.coo_matrix(
            (self._ones[: len(rows)], (rows, cols)), shape=(n, n)
        )
        ncomp, _ = sp.csgraph.connected_components(mat, directed=False)
        return bool(ncomp == 1)

    def first_disconnecting_count(
        self, order: np.ndarray, lo: int = 0, hi: int | None = None
    ) -> int:
        """Smallest removal count (prefix of ``order``) that disconnects.

        ``lo`` must leave the graph connected and ``hi`` (default ``m``)
        disconnect it; standard bisection invariant.  Returns ``hi`` when
        the bracket is already tight.
        """
        hi = self.graph.m if hi is None else hi
        keep = np.ones(self.graph.m, dtype=bool)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            keep[:] = True
            keep[order[:mid]] = False
            if self.is_connected(keep):
                lo = mid
            else:
                hi = mid
        return hi


def disconnection_ratio(
    graph: Graph, seed: int = 0, prober: ConnectivityProber | None = None
) -> float:
    """Fraction of links whose (random-order) removal first disconnects the
    graph, found by binary search over one random removal order."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.m)
    prober = prober if prober is not None else ConnectivityProber(graph)
    return prober.first_disconnecting_count(order) / graph.m


def link_failure_sweep(
    graph: Graph,
    fractions,
    seed: int = 0,
    sample_sources: int | None = 64,
) -> FaultSweepResult:
    """Remove cumulative random link subsets and track diameter / APL.

    ``fractions`` is an increasing sequence of failed-link fractions; each
    step reuses the same random removal order (cumulative failures, as in
    the paper).  Diameter/APL are estimated from ``sample_sources`` BFS
    sources.  Stops early at the first disconnecting step; the recorded
    disconnection ratio is then *bisected* between the last connected step
    and the disconnecting one, not the coarse grid fraction.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.m)
    prober = ConnectivityProber(graph)
    result = FaultSweepResult()
    prev_k = 0
    for frac in fractions:
        k = int(round(frac * graph.m))
        keep = np.ones(graph.m, dtype=bool)
        keep[order[:k]] = False
        if not prober.is_connected(keep):
            first_bad = prober.first_disconnecting_count(order, lo=prev_k, hi=k)
            result.disconnection_ratio = first_bad / graph.m
            break
        prev_k = k
        sub = Graph(graph.n, graph.edge_array[keep], name=graph.name)
        result.fractions.append(frac)
        result.diameters.append(diameter(sub, sample=sample_sources, seed=seed))
        result.avg_path_lengths.append(
            average_path_length(sub, sample=sample_sources, seed=seed)
        )
    else:
        result.disconnection_ratio = prober.first_disconnecting_count(order) / graph.m
    return result


def median_disconnection_ratio(graph: Graph, scenarios: int = 100, seed: int = 0) -> float:
    """Median disconnection ratio over independent random scenarios (§11.2)."""
    prober = ConnectivityProber(graph)
    ratios = [
        disconnection_ratio(graph, seed=seed + i, prober=prober)
        for i in range(scenarios)
    ]
    return float(np.median(ratios))
