"""Structural analysis: distances, bisection, fault tolerance, path diversity."""

from repro.analysis.distances import (
    average_path_length,
    bfs_distances,
    diameter,
    distance_matrix,
    eccentricity,
    hop_distances,
)
from repro.analysis.bisection import bisection_fraction, min_bisection
from repro.analysis.cost import CostParameters, CostReport, cost_report
from repro.analysis.distances import distance_distribution
from repro.analysis.faults import FaultSweepResult, link_failure_sweep
from repro.analysis.paths import PathDiversity, minimal_path_counts, path_diversity
from repro.analysis.spanning_trees import greedy_edst, verify_edst

__all__ = [
    "average_path_length",
    "bfs_distances",
    "diameter",
    "distance_matrix",
    "eccentricity",
    "hop_distances",
    "bisection_fraction",
    "min_bisection",
    "FaultSweepResult",
    "link_failure_sweep",
    "distance_distribution",
    "CostParameters",
    "CostReport",
    "cost_report",
    "PathDiversity",
    "minimal_path_counts",
    "path_diversity",
    "greedy_edst",
    "verify_edst",
]
