"""Output oracles, each independent of the code path it checks.

Every function returns a list of human-readable problems (empty = pass),
so one planted fault shows up as one message, and the harness can count
failures without exceptions.  They run outside the timed window.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

#: Stable fault-free points must deliver this close to the offered load.
THROUGHPUT_BAND = 0.10


def bfs_table(graph) -> np.ndarray:
    """All-pairs hop distances by SciPy's BFS (-1 = unreachable); shares no
    code with ``repro.routing.table``."""
    n = graph.n
    adj = sp.csr_matrix(
        (np.ones(len(graph.indices), dtype=np.int8), graph.indices, graph.indptr),
        shape=(n, n),
    )
    dist = shortest_path(adj, unweighted=True, directed=False)
    out = np.full((n, n), -1, dtype=np.int16)
    finite = np.isfinite(dist)
    out[finite] = dist[finite].astype(np.int64)
    return out


def dragonfly_lgl_hops(graph, groups) -> np.ndarray:
    """Lengths of local-global-local routes, read off the graph: within a
    group 1 hop (groups are cliques); across groups, one hop to the router
    holding the single global link between the two groups, the global hop,
    and one hop from its far end, each local hop skipped when already
    there."""
    groups = np.asarray(groups, dtype=np.int64)
    n, g = graph.n, int(groups.max()) + 1
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    dst = np.asarray(graph.indices, dtype=np.int64)
    cross = groups[src] != groups[dst]
    gateway = np.full((g, g), -1, dtype=np.int64)
    gateway[groups[src[cross]], groups[dst[cross]]] = src[cross]
    gs, gt = groups[:, None], groups[None, :]
    ids = np.arange(n)
    hops = ((ids[:, None] != gateway[gs, gt]).astype(np.int64) + 1
            + (ids[None, :] != gateway[gt, gs]))
    hops[gs == gt] = 1
    np.fill_diagonal(hops, 0)
    return hops


def flow_identity(loads: np.ndarray, demand: np.ndarray, hops: np.ndarray,
                  rtol: float = 1e-9) -> list[str]:
    """Under routing whose routes are ``hops[s, t]`` long, every unit of
    demand crosses exactly that many links: sum(loads) = sum(demand * hops)."""
    want = float((demand * hops).sum())
    got = float(np.asarray(loads).sum())
    if not np.isclose(got, want, rtol=rtol, atol=1e-9):
        return [f"sum of link loads {got!r} != demand-weighted hops {want!r}"]
    if (np.asarray(loads) < 0).any():
        return ["negative link load"]
    return []


def packet_accounting(res, load: float, cycles: dict, fault_free: bool) -> list[str]:
    """Bookkeeping every :class:`PacketSimResult` must satisfy.

    *cycles* holds the run's ``warmup_cycles``, ``measure_cycles`` and
    ``drain_cycles``.  Link utilization is busy cycles over the injection
    horizon (warm-up + measure), while sends go on through the drain, so
    a link's utilization is at most (warm-up + measure + drain) / horizon;
    fault-free points stay below 1 (faulted runs can reach 1.02-1.03, both
    engines agreeing).
    """
    problems = []
    horizon = cycles["warmup_cycles"] + cycles["measure_cycles"]
    util_max = 1.0 if fault_free else (horizon + cycles["drain_cycles"]) / horizon
    if not 0.0 <= res.max_link_utilization <= util_max:
        problems.append(f"link utilization {res.max_link_utilization} outside [0, {util_max:g}]")
    if res.delivered + res.dropped > res.injected:
        problems.append(
            f"delivered {res.delivered} + dropped {res.dropped} > injected {res.injected}")
    if sum(res.drop_causes.values()) != res.dropped:
        problems.append(f"drop causes {res.drop_causes} do not sum to {res.dropped}")
    if res.injected and not np.isclose(res.delivered_fraction, res.delivered / res.injected):
        problems.append("delivered_fraction != delivered / injected")
    if fault_free:
        if res.dropped:
            problems.append(f"fault-free run dropped {res.dropped} packets")
        if res.stable and abs(res.throughput - load) > THROUGHPUT_BAND * load:
            problems.append(
                f"stable point delivered {res.throughput:.4f} at offered load {load}")
    return problems


def same_result(a, b, what: str) -> list[str]:
    """Field-for-field equality of two simulator results."""
    if asdict(a) != asdict(b):
        return [f"{what}: {a!r} != {b!r}"]
    return []


def served_distances(pairs: np.ndarray, got, table: np.ndarray) -> int:
    """Wrong answers among served distances (-1 = unreachable)."""
    got = np.asarray(got, dtype=np.int64)
    if got.shape != (len(pairs),):
        return len(pairs)
    want = table[pairs[:, 0], pairs[:, 1]]
    return int((got != want).sum())


def served_paths(pairs: np.ndarray, paths, table: np.ndarray) -> int:
    """Wrong answers among served paths: each must be a walk over real
    links (``table == 1``) from src to dst of exactly the oracle length, or
    ``None`` exactly when the pair is cut apart."""
    if len(paths) != len(pairs):
        return len(pairs)
    wrong = 0
    for (s, d), path in zip(pairs.tolist(), paths):
        want = table[s, d]
        if path is None:
            wrong += want != -1
            continue
        hops = np.asarray(path, dtype=np.int64)
        if (want == -1 or len(hops) != want + 1 or hops[0] != s or hops[-1] != d
                or (len(hops) > 1 and (table[hops[:-1], hops[1:]] != 1).any())):
            wrong += 1
    return int(wrong)
