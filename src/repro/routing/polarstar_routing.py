"""Analytic minimal routing for star-product networks (§9.2).

The router computes every minimal path from the star-product structure
instead of global tables.  Stored state (the paper's selling point over the
SF/BF routing tables):

* structure-graph tables: adjacency, one 2-walk *middle* witness per vertex
  pair (``O(n_s²)`` for ``n_s = q²+q+1`` supernodes — not ``O(n²)`` routers),
* supernode-local tables: adjacency, the bijection *f*, and intra-supernode
  next-hop tables of size ``O(n'²)`` (``n' = 2d'+2``).

Routing case analysis (source ``(c, c')``, destination ``(t, t')``):

* **same supernode** — route intra-supernode (quadric supernodes also have
  the ``f``-matching edges) unless a neighbor detour
  ``(c,c') → (a, g c') → (a, g t') → (c, t')`` is shorter;
* **adjacent supernodes** — the four R*/R_1 cases of §9.2: the direct cross
  edge, cross-then-intra, intra-then-cross, or an alternating 2-walk via a
  structure middle (Property R guarantees one for *every* pair, including
  adjacent ones);
* **non-adjacent supernodes** — hop to the 2-walk middle, then the adjacent
  case finishes in ≤ 2 more hops (Theorems 4/5 give diameter 3).

Both involution supernodes (IQ, Theorem 4) and R_1 supernodes (Paley,
Theorem 5 — where crossing an arc forward applies ``f`` and backward
``f⁻¹``) are supported.

Two paths answer the same questions from the same state:

* **array kernel** — ``next_hop_batch`` and ``distance_batch`` run the case
  split above over whole arrays of pairs in a fixed handful of NumPy
  gathers (a crossing is one gather from ``[f⁻¹, f]`` at ``(c < t)·n' +
  x``), with ``O(pairs)`` temporaries.  The flow solver, the dense next-hop
  table and the packet engine's distance table ask for all pairs at once:
  all ``1064²`` pairs of Table 3 PS-IQ take about 0.05 s per method on a
  2-core x86-64 host, against 1.8 s (next hops) and 2.2 s (distances) of
  scalar calls.
* **scalar methods** — ``next_hops``/``distance``/``all_minimal_hops``
  answer one pair per call.  They stay because the fault router's ladder
  asks one pair at a time: one perfbench ``packet_faults`` pass makes
  39,638 ``next_hops`` and 4,259 ``all_minimal_hops`` calls (42,590
  ``distance`` calls) on reduced PS-IQ, and on that host a one-pair batch
  call costs 38 µs against 1.4 µs for ``_next_hop`` (41 µs against 1.7 µs
  for ``distance``).

Tests check the kernel against a BFS oracle on every pair of every feasible
configuration up to radix 16 in tier-1 and up to radix 24 in CI, and
against the scalar methods on every pair of the small and reduced routers
(tier-1) and of full Table 3 (CI); the scalar methods are checked against
BFS on every pair of several PolarStar instances.
"""

from __future__ import annotations

import numpy as np

from repro.core.star_product import StarProduct
from repro.graphs.base import Graph
from repro.routing.base import Router, check_pairs
from repro.routing.table import first_minimal_hops

__all__ = [
    "PolarStarRouter",
]


def _dense_adj(graph: Graph, aug_diag: bool = False) -> np.ndarray:
    a = np.zeros((graph.n, graph.n), dtype=bool)
    e = graph.edge_array
    if len(e):
        a[e[:, 0], e[:, 1]] = True
        a[e[:, 1], e[:, 0]] = True
    if aug_diag and len(graph.self_loops):
        a[graph.self_loops, graph.self_loops] = True
    return a


def _intra_tables(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs (distance, first-hop) tables of a supernode graph.

    Distances are ``int8`` with 127 for unreachable pairs.  The first hop
    of ``(s, v)`` is the smallest-id neighbour of ``s`` one step closer to
    ``v`` (:func:`~repro.routing.table.first_minimal_hops`), and ``-1`` on
    the diagonal and for unreachable pairs.
    """
    # Imported here, as in repro.routing.table: repro.analysis pulls in the
    # topologies/store stack, which imports repro.routing.
    from repro.analysis.distances import hop_distances

    n = graph.n
    dist = hop_distances(graph, np.arange(n))
    src, dst = np.divmod(np.arange(n * n), n)
    nxt = first_minimal_hops(graph, dist, src, dst).reshape(n, n)
    return np.minimum(dist, 127).astype(np.int8), nxt


class PolarStarRouter(Router):
    """Destination-based analytic minimal routing on a :class:`StarProduct`."""

    def __init__(self, star: StarProduct):
        self.star = star
        self.graph = star.graph
        self.f = star.f
        self.f_inv = star.f_inv
        self.involution = bool(np.array_equal(self.f, self.f_inv))
        self.np_ = star.supernode.n

        s = star.structure
        self.s_adj = _dense_adj(s, aug_diag=False)
        s_aug = _dense_adj(s, aug_diag=True)
        self.quadric = np.zeros(s.n, dtype=bool)
        self.quadric[s.self_loops] = True

        # middle[c, t]: one witness b with c~b~t in the self-loop-augmented
        # structure graph (Property R guarantees existence for every pair).
        self.middle = np.full((s.n, s.n), -1, dtype=np.int64)
        for c in range(s.n):
            reach = s_aug[c][:, None] & s_aug  # reach[b, t]
            found = reach.any(axis=0)
            self.middle[c, found] = np.argmax(reach, axis=0)[found]

        # A lowest / highest structure neighbor per vertex, for directed
        # detours in the R_1 (non-involution) case.
        self.lo_nbr = np.full(s.n, -1, dtype=np.int64)
        self.hi_nbr = np.full(s.n, -1, dtype=np.int64)
        for v in range(s.n):
            nbrs = s.neighbors(v)
            if len(nbrs):
                self.lo_nbr[v] = nbrs[0] if nbrs[0] < v else -1
                self.hi_nbr[v] = nbrs[-1] if nbrs[-1] > v else -1

        # Supernode tables: plain, and augmented with the f-matching edges
        # that quadric supernodes carry.
        sn = star.supernode
        self.sn_adj = _dense_adj(sn)
        self.intra_dist_plain, self.intra_next_plain = _intra_tables(sn)
        ids = np.arange(self.np_)
        moved = ids[self.f != ids]
        matching = np.stack([moved, self.f[moved]], axis=1)
        aug = Graph(sn.n, np.concatenate([sn.edge_array, matching]), name=f"{sn.name}+f")
        self.intra_dist_aug, self.intra_next_aug = _intra_tables(aug)

        # Array-kernel views of f: crossing a structure edge is one gather
        # from [f⁻¹, f] at (c < t)·n' + x, and the quadric matching step
        # takes f unless f fixes x.
        self._cross_tab = np.concatenate([self.f_inv, self.f])
        self._match = np.where(self.f != ids, self.f, self.f_inv)

    # -- primitive moves -------------------------------------------------------

    def _cross(self, c: int, t: int, xp: int) -> int:
        """Supernode coordinate after crossing the structure edge {c, t}
        starting from c (forward arcs apply f, backward f⁻¹)."""
        return int(self.f[xp]) if c < t else int(self.f_inv[xp])

    def _cross_pre(self, c: int, t: int, tp: int) -> int:
        """Coordinate z' with ``cross(c, t, z') == tp``."""
        return int(self.f_inv[tp]) if c < t else int(self.f[tp])

    def _intra(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        if self.quadric[c]:
            return self.intra_dist_aug, self.intra_next_aug
        return self.intra_dist_plain, self.intra_next_plain

    # -- distance (closed form; oracle-verified in tests) ----------------------

    def distance(self, current: int, dest: int) -> int:
        c, cp = self.star.split(current)
        t, tp = self.star.split(dest)
        if c == t:
            if cp == tp:
                return 0
            d, _ = self._intra(c)
            return min(int(d[cp, tp]), 3)
        if self.s_adj[c, t]:
            return 1 if tp == self._cross(c, t, cp) else (2 if self._adjacent_two_hop(c, cp, t, tp) else 3)
        return 2 if self._nonadjacent_two_hop(c, cp, t, tp) else 3

    def _adjacent_two_hop(self, c, cp, t, tp) -> bool:
        img = self._cross(c, t, cp)
        if self.sn_adj[img, tp] or self.sn_adj[cp, self._cross_pre(c, t, tp)]:
            return True
        # Alternating 2-walk through a structure middle (case b).
        return self._walk_two_hop(c, cp, t, tp)

    def _walk_two_hop(self, c, cp, t, tp) -> bool:
        b = int(self.middle[c, t])
        if self.involution:
            return tp == cp and b >= 0
        return b >= 0 and self._walk_landing_matches(c, cp, b, t, tp)

    def _walk_landing_matches(self, c, cp, b, t, tp) -> bool:
        for first in self._walk_first_images(c, b, cp):
            for final in self._walk_first_images(b, t, first):
                if final == tp:
                    return True
        return False

    def _walk_first_images(self, c: int, b: int, xp: int) -> list[int]:
        """Possible supernode coordinates after traversing the walk step
        c -> b (a self-loop step uses the matching edge, either direction)."""
        if b == c:
            imgs = {int(self.f[xp]), int(self.f_inv[xp])}
            imgs.discard(xp)
            return sorted(imgs)
        return [self._cross(c, b, xp)]

    def _nonadjacent_two_hop(self, c, cp, t, tp) -> bool:
        """True iff the 2-walk via the middle lands on *tp*."""
        b = int(self.middle[c, t])
        return b >= 0 and self._cross(b, t, self._cross(c, b, cp)) == tp

    # -- next hop ----------------------------------------------------------------

    def next_hops(self, current: int, dest: int) -> list[int]:
        if current == dest:
            return []
        return [self._next_hop(current, dest)]

    def all_minimal_hops(self, current: int, dest: int) -> list[int]:
        """Every neighbor on some minimal path (one-step lookahead with the
        analytic distance).  Costs O(radix) distance evaluations — used by
        the path-diversity ablation; plain ``next_hops`` stays single-path
        as in §9.2."""
        if current == dest:
            return []
        d = self.distance(current, dest)
        return [
            int(v)
            for v in self.graph.neighbors(current)
            if self.distance(int(v), dest) == d - 1
        ]

    def _next_hop(self, current: int, dest: int) -> int:
        star = self.star
        c, cp = star.split(current)
        t, tp = star.split(dest)

        if c == t:
            return self._same_supernode_hop(c, cp, tp)

        if self.s_adj[c, t]:
            img = self._cross(c, t, cp)
            if tp == img or self.sn_adj[img, tp]:
                return star.node_id(t, img)  # direct cross / cross-then-intra
            z = self._cross_pre(c, t, tp)
            if self.sn_adj[cp, z]:
                return star.node_id(c, z)  # intra-then-cross
            # Case (b): alternating 2-walk via a structure middle.
            b = int(self.middle[c, t])
            if b == c:
                # quadric self-loop at c: matching edge first
                return star.node_id(c, int(self._match[cp]))
            return star.node_id(b, self._cross(c, b, cp))

        # Non-adjacent supernodes: go to the 2-walk middle.
        b = int(self.middle[c, t])
        return star.node_id(b, self._cross(c, b, cp))

    def _same_supernode_hop(self, c: int, cp: int, tp: int) -> int:
        star = self.star
        d, nxt = self._intra(c)
        intra = int(d[cp, tp])
        if intra <= 3:
            return star.node_id(c, int(nxt[cp, tp]))
        # Rare degenerate supernodes (e.g. IQ_0): leave and come back.
        for g, a in ((self.f, int(self.hi_nbr[c])), (self.f_inv, int(self.lo_nbr[c]))):
            if a >= 0 and self.sn_adj[g[cp], g[tp]]:
                return star.node_id(a, int(g[cp]))  # detour via neighbor a
        # f-pair fallback: any neighbor, then the adjacent 2-walk case.
        a = int(self.hi_nbr[c]) if self.hi_nbr[c] >= 0 else int(self.lo_nbr[c])
        return star.node_id(a, self._cross(c, a, cp))

    # -- array kernel: the same case split over whole batches of pairs ---------

    def next_hop_batch(self, current: np.ndarray, dest: np.ndarray) -> np.ndarray:
        c, cp, t, tp, b = self._split_pairs(current, dest)
        hop = b * self.np_ + self._cross_batch(c, b, cp)  # non-adjacent: the middle
        adj = np.flatnonzero(self.s_adj[c, t])
        hop[adj] = self._adjacent_hops(c[adj], cp[adj], t[adj], tp[adj], b[adj], hop[adj])
        same = np.flatnonzero(c == t)
        hop[same] = self._same_supernode_hops(c[same], cp[same], tp[same])
        return hop

    def distance_batch(self, current: np.ndarray, dest: np.ndarray) -> np.ndarray:
        c, cp, t, tp, b = self._split_pairs(current, dest)
        # Non-adjacent: 2 iff the 2-walk via the middle lands on tp.
        lands = self._cross_batch(b, t, self._cross_batch(c, b, cp)) == tp
        dist = np.where((b >= 0) & lands, 2, 3)
        adj = np.flatnonzero(self.s_adj[c, t])
        dist[adj] = self._adjacent_distances(c[adj], cp[adj], t[adj], tp[adj], b[adj])
        same = np.flatnonzero(c == t)
        cs, cps, tps = c[same], cp[same], tp[same]
        intra = np.where(
            self.quadric[cs], self.intra_dist_aug[cps, tps], self.intra_dist_plain[cps, tps]
        )
        dist[same] = np.minimum(intra, 3)
        return dist

    def _split_pairs(self, current, dest):
        """``(c, c', t, t', middle[c, t])`` of every checked pair."""
        cur, dst = check_pairs(current, dest, self.graph.n)
        c, cp = np.divmod(cur, self.np_)
        t, tp = np.divmod(dst, self.np_)
        return c, cp, t, tp, self.middle[c, t]

    def _cross_batch(self, c: np.ndarray, t: np.ndarray, xp: np.ndarray) -> np.ndarray:
        """:meth:`_cross` of every triple."""
        return self._cross_tab[(c < t) * self.np_ + xp]

    def _adjacent_hops(self, c, cp, t, tp, b, via_middle):
        k = self.np_
        img = self._cross_batch(c, t, cp)
        z = self._cross_tab[(c > t) * k + tp]  # _cross_pre
        return np.select(
            [(tp == img) | self.sn_adj[img, tp], self.sn_adj[cp, z], b == c],
            [t * k + img, c * k + z, c * k + self._match[cp]],
            via_middle,
        )

    def _same_supernode_hops(self, c, cp, tp):
        quad = self.quadric[c]
        intra = np.where(quad, self.intra_dist_aug[cp, tp], self.intra_dist_plain[cp, tp])
        nxt = np.where(quad, self.intra_next_aug[cp, tp], self.intra_next_plain[cp, tp])
        hop = c * self.np_ + nxt
        far = np.flatnonzero(intra > 3)
        hop[far] = self._detour_hops(c[far], cp[far], tp[far])
        hop[cp == tp] = -1
        return hop

    def _detour_hops(self, c, cp, tp):
        """The IQ_0 detour of :meth:`_same_supernode_hop`, then its fallback."""
        k, f, f_inv = self.np_, self.f, self.f_inv
        hi, lo = self.hi_nbr[c], self.lo_nbr[c]
        a = np.where(hi >= 0, hi, lo)
        return np.select(
            [(hi >= 0) & self.sn_adj[f[cp], f[tp]], (lo >= 0) & self.sn_adj[f_inv[cp], f_inv[tp]]],
            [hi * k + f[cp], lo * k + f_inv[cp]],
            a * k + self._cross_batch(c, a, cp),
        )

    def _adjacent_distances(self, c, cp, t, tp, b):
        img = self._cross_batch(c, t, cp)
        z = self._cross_tab[(c > t) * self.np_ + tp]  # _cross_pre
        two = self.sn_adj[img, tp] | self.sn_adj[cp, z]
        if self.involution:
            two |= (tp == cp) & (b >= 0)
        else:
            # The R_1 walk check; no adjacent pair of a feasible Paley
            # configuration up to radix 24 reaches it, so it stays scalar.
            walk = np.flatnonzero(~two & (tp != img))
            two[walk] = [
                self._walk_two_hop(*q)
                for q in zip(c[walk].tolist(), cp[walk].tolist(), t[walk].tolist(), tp[walk].tolist())
            ]
        return np.where(tp == img, 1, np.where(two, 2, 3))

    # -- storage accounting (the §9.3 routing-table comparison) -----------------

    @property
    def table_bytes(self) -> int:
        """Bytes of routing state: structure middles + supernode tables."""
        return (
            self.middle.nbytes
            + self.s_adj.nbytes
            + self.sn_adj.nbytes
            + self.intra_dist_plain.nbytes
            + self.intra_next_plain.nbytes
            + self.intra_dist_aug.nbytes
            + self.intra_next_aug.nbytes
            + self.f.nbytes
        )
