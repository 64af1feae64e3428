"""The star product of two graphs (§4, Definition 1).

``star_product(G, G', f)`` builds the graph on ``V(G) × V(G')`` with

* *supernode* edges: ``(x, x') ~ (x, y')`` whenever ``(x', y') ∈ E(G')``;
* *cross* edges: ``(x, x') ~ (y, f(x'))`` for each arc ``(x, y)`` of an
  orientation of ``E(G)``;
* *loop* edges: a self-loop on structure vertex *x* (ER_q's quadric
  vertices) contributes ``(x, x') ~ (x, f(x'))``; degenerate self-loops in
  the product (when ``f(x') == x'``) are dropped, per §6.1.2.

When *f* is an involution the orientation is irrelevant (the edge rule is
symmetric); for a general bijection (the Paley / Theorem 5 case) we orient
every structure edge from its lower-numbered endpoint, and the resulting
product is still diameter ``D + 1`` when G' has Property R_1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.base import Graph

__all__ = [
    "StarProduct",
    "star_product",
]


@dataclass(frozen=True)
class StarProduct:
    """A star product together with its factorization.

    Product vertex ``(x, x')`` has id ``x * supernode.n + x'``; helpers
    below translate both ways.  The factorization is what PolarStar's
    analytic routing (§9.2) consumes.
    """

    graph: Graph
    structure: Graph
    supernode: Graph
    f: np.ndarray
    f_inv: np.ndarray = field(init=False)

    def __post_init__(self):
        # Direct construction must honor the same contract as the factory:
        # a non-bijective f would silently scatter garbage into f_inv.
        if len(self.f) != self.supernode.n:
            raise ValueError("bijection length must equal supernode order")
        if not np.array_equal(np.sort(self.f), np.arange(self.supernode.n)):
            raise ValueError("f is not a bijection on the supernode vertices")
        if self.graph.n != self.structure.n * self.supernode.n:
            raise ValueError("product order must be |structure| x |supernode|")
        inv = np.empty_like(self.f)
        inv[self.f] = np.arange(len(self.f))
        object.__setattr__(self, "f_inv", inv)

    @property
    def n(self) -> int:
        return self.graph.n

    def node_id(self, x: int, xp: int) -> int:
        return x * self.supernode.n + xp

    def split(self, v: int) -> tuple[int, int]:
        """Decompose product vertex id into ``(structure, supernode)`` parts."""
        return divmod(v, self.supernode.n)

    @property
    def supernode_of(self) -> np.ndarray:
        """Structure-graph vertex (supernode id) of every product vertex."""
        return np.arange(self.graph.n) // self.supernode.n


def star_product(
    structure: Graph,
    supernode: Graph,
    f: np.ndarray,
    name: str | None = None,
) -> StarProduct:
    """Build ``structure * supernode`` with the single bijection *f* on every
    arc (the Theorem 4 / Theorem 5 setting).

    Arcs are oriented low -> high vertex id.  Structure self-loops become
    intra-supernode ``(x, x') ~ (x, f(x'))`` edges.
    """
    f = np.asarray(f, dtype=np.int64)
    if len(f) != supernode.n:
        raise ValueError("bijection length must equal supernode order")
    if sorted(f.tolist()) != list(range(supernode.n)):
        raise ValueError("f is not a bijection on the supernode vertices")

    np_ = supernode.n
    ids = np.arange(np_, dtype=np.int64)

    chunks: list[np.ndarray] = []

    # Supernode-internal edges, replicated into every supernode.
    se = supernode.edge_array
    if len(se):
        offsets = np.arange(structure.n, dtype=np.int64)[:, None, None] * np_
        chunks.append((se[None, :, :] + offsets).reshape(-1, 2))

    # Cross edges along structure arcs (oriented low -> high).
    ce = structure.edge_array
    if len(ce):
        u = ce[:, 0:1] * np_ + ids[None, :]
        v = ce[:, 1:2] * np_ + f[None, :]
        chunks.append(np.stack([u.ravel(), v.ravel()], axis=1))

    # Structure self-loops -> intra-supernode f-matching edges.
    loops = structure.self_loops
    if len(loops):
        moved = ids[f != ids]
        if len(moved):
            u = loops[:, None] * np_ + moved[None, :]
            v = loops[:, None] * np_ + f[moved][None, :]
            chunks.append(np.stack([u.ravel(), v.ravel()], axis=1))

    edges = np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    g = Graph(
        structure.n * np_,
        edges,
        name=name or f"{structure.name}*{supernode.name}",
    )
    return StarProduct(graph=g, structure=structure, supernode=supernode, f=f)
