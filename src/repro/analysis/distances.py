"""Shortest-path distance computations.

Diameter and average-path-length queries appear throughout the paper
(diameter-3 verification, Fig. 14's fault-tolerance curves), and every
all-pairs distance table (:func:`repro.routing.table.build_distance_table`)
is built here.  One kernel computes them all: :func:`hop_distances`, a
level-synchronous BFS from a block of sources at once.  Each vertex holds
one bit per source, packed into ``uint64`` words, and one BFS level is a
gather of the neighbours' words over the CSR ``indices``, an OR over each
vertex's CSR segment (``np.bitwise_or.reduceat``) and an unpack of the
still-unreached bits into the ``int16`` result.  That is ``O(E * k / 64)``
word operations per level for ``k`` sources, and the Table 3 networks need
3-5 levels.  Each call is short, so a thread building a table hands the
interpreter lock back often (the server builds fault-epoch tables in an
executor thread while its event loop answers queries).

BFS distances are unique, so the results equal any other exact BFS;
``tests/test_analysis.py`` checks them against SciPy's.  Sources are
processed in blocks of :data:`_BLOCK`, which also bounds the memory of the
whole-graph analyses below.  Unreached vertices are ``iinfo(int16).max``
in :func:`hop_distances` and ``inf`` in the float views.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro import obs
from repro.graphs.base import Graph

__all__ = [
    "hop_distances",
    "bfs_distances",
    "eccentricity",
    "diameter",
    "average_path_length",
    "distance_distribution",
    "distance_matrix",
]

#: Sources per BFS block: 8 ``uint64`` words of bits per vertex, so one
#: level's gather over the CSR moves 64 bytes per directed entry.
_BLOCK = 512

#: Distance of an unreached vertex; also one past the deepest BFS level an
#: ``int16`` result can hold.
_UNREACHED = int(np.iinfo(np.int16).max)


def hop_distances(graph: Graph, sources) -> np.ndarray:
    """Hop distances from each of *sources* to every vertex of *graph*.

    ``sources`` is a vertex id or a 1-D sequence of them; the result is an
    ``int16`` array of shape ``(len(sources), n)`` with
    ``iinfo(int16).max`` for unreachable pairs.  Raises ``ValueError`` for
    a source outside ``[0, n)`` (negative ids are not wrapped) and for a
    graph whose BFS goes deeper than ``int16`` holds.
    """
    src = np.atleast_1d(np.asarray(sources))
    n = graph.n
    if src.size == 0:
        src = src.astype(np.int64)
    elif src.ndim != 1 or not np.issubdtype(src.dtype, np.integer):
        raise ValueError(f"sources must be a vertex id or a 1-D sequence of ids, not {sources!r}")
    elif src.min() < 0 or src.max() >= n:
        bad = src[(src < 0) | (src >= n)][0]
        raise ValueError(f"source {bad} is not a vertex of {graph.name!r} (n={n})")
    out = np.empty((len(src), n), dtype=np.int16)
    for lo in range(0, len(src), _BLOCK):
        _bfs_block(graph, src[lo : lo + _BLOCK], out[lo : lo + _BLOCK])
    return out


def _bfs_block(graph: Graph, block: np.ndarray, dist: np.ndarray) -> None:
    """BFS from every vertex of *block* at once into ``dist[j, v]``.

    Bit ``j`` of a vertex's words stands for source ``block[j]``.  A
    vertex's distance is the number of levels it stays unreached, so each
    level adds the unpacked unreached bits to ``dist``; the vertices still
    unreached when a level reaches nothing new get the sentinel.
    """
    k, n = dist.shape
    # reduceat gives an empty segment the *next* segment's first element
    # (and rejects a start past the end), so zero-degree rows -- down
    # nodes of a faulted graph -- stay out of the reduction.
    live = np.flatnonzero(np.diff(graph.indptr))
    starts = graph.indptr[live]
    width = -(-k // 64) * 64
    seed = np.zeros((n, width), dtype=bool)
    seed[block, np.arange(k)] = True
    frontier = np.packbits(seed, axis=1, bitorder="little").view("<u8")
    # Bits k..width-1 of the last word stand for no source: never unreached.
    unreached = ~frontier & np.packbits(np.arange(width) < k, bitorder="little").view("<u8")
    dist.fill(0)
    level = 0
    while unreached.any():
        level += 1
        if level == _UNREACHED:
            raise ValueError(f"BFS deeper than {_UNREACHED - 1} levels does not fit int16")
        np.add(dist, _unpack(unreached, k), out=dist)
        reached = np.zeros_like(frontier)
        reached[live] = np.bitwise_or.reduceat(
            np.take(frontier, graph.indices, axis=0), starts, axis=0
        )
        reached &= unreached
        if not reached.any():
            dist[_unpack(unreached, k).view(bool)] = _UNREACHED
            return
        unreached ^= reached
        frontier = reached


def _unpack(words: np.ndarray, k: int) -> np.ndarray:
    """``(k, n)`` 0/1 ``uint8`` matrix of bits ``0..k-1`` of each row of an
    ``(n, w)`` little-endian word array."""
    return np.unpackbits(words.view(np.uint8).T, axis=0, count=k, bitorder="little")


def bfs_distances(graph: Graph, sources) -> np.ndarray:
    """BFS distance array(s) as ``float64``, ``inf`` where unreachable.

    ``sources`` may be an int (returns shape ``(n,)``) or a sequence
    (returns shape ``(len(sources), n)``); see :func:`hop_distances`.
    """
    hops = hop_distances(graph, sources)
    d = hops.astype(np.float64)
    d[hops == _UNREACHED] = np.inf
    return d[0] if np.isscalar(sources) else d


def eccentricity(graph: Graph, source: int) -> float:
    """Max distance from *source*; ``inf`` when the graph is disconnected."""
    return float(bfs_distances(graph, source).max())


def diameter(graph: Graph, sample: int | None = None, seed: int = 0) -> float:
    """Graph diameter (``inf`` if disconnected).

    ``sample``: if given, estimate from that many random source vertices — a
    lower bound, adequate for vertex-transitive graphs (where one source is
    exact) and for the fault-tolerance sweeps.
    """
    worst = 0
    with obs.span("analysis.distances.diameter"):
        for d in _hop_blocks(graph, sample, seed):
            worst = max(worst, int(d.max()))
            if worst == _UNREACHED:
                return float("inf")
    return float(worst)


def average_path_length(graph: Graph, sample: int | None = None, seed: int = 0) -> float:
    """Mean distance over ordered vertex pairs with distinct endpoints,
    restricted to reachable pairs (``inf`` distances are excluded so the
    metric stays meaningful on faulted, possibly-disconnected networks)."""
    total = 0.0
    count = 0
    with obs.span("analysis.distances.average_path_length"):
        for d in _hop_blocks(graph, sample, seed):
            reached = d[d != _UNREACHED]
            total += reached.sum(dtype=np.int64)
            count += reached.size - len(d)  # exclude the zero self-distances
    return total / count if count else float("inf")


def distance_distribution(
    graph: Graph, sample: int | None = None, seed: int = 0
) -> np.ndarray:
    """Histogram of pairwise distances: ``out[k]`` = fraction of ordered
    reachable pairs (distinct endpoints) at distance *k*.

    For a diameter-3 network this is the (1-hop, 2-hop, 3-hop) traffic
    split that determines average latency at low load.
    """
    counts = np.zeros(1, dtype=np.int64)
    for d in _hop_blocks(graph, sample, seed):
        c = np.bincount(d[d != _UNREACHED])
        if len(c) > len(counts):
            counts = np.pad(counts, (0, len(c) - len(counts)))
        counts[: len(c)] += c
    counts[0] = 0  # the self-distances
    total = int(counts.sum())
    if not total:
        return np.array([1.0])
    return counts / total


def distance_matrix(graph: Graph) -> np.ndarray:
    """Full ``(n, n)`` distance matrix — only for small graphs (tests)."""
    return bfs_distances(graph, np.arange(graph.n))


def _hop_blocks(graph: Graph, sample: int | None, seed: int) -> Iterator[np.ndarray]:
    """:func:`hop_distances` over the (sampled) source set, one block of
    :data:`_BLOCK` sources at a time."""
    sources = _source_set(graph.n, sample, seed)
    for lo in range(0, len(sources), _BLOCK):
        yield hop_distances(graph, sources[lo : lo + _BLOCK])


def _source_set(n: int, sample: int | None, seed: int) -> np.ndarray:
    if sample is None or sample >= n:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=sample, replace=False)
