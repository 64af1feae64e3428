"""Router interface.

A router answers one question: *from router u, heading to router t, which
neighbors lie on a minimal path?*  Everything else (adaptive choices,
Valiant detours, simulation mechanics) composes on top of this.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from typing import overload

import numpy as np

from repro.graphs.base import Graph

__all__ = [
    "HopView",
    "Router",
    "check_pairs",
    "route_path",
]


def check_pairs(current, dest, n: int) -> tuple[np.ndarray, np.ndarray]:
    """*current* and *dest* as matching 1-D int64 arrays of router ids.

    Raises ``ValueError`` for any other shape, for non-integer ids and for
    an id outside ``[0, n)``: fancy indexing would wrap a negative id into
    a wrong answer instead of failing.
    """
    cur, dst = np.asarray(current), np.asarray(dest)
    if cur.shape != dst.shape or cur.ndim != 1:
        raise ValueError("current and dest must be matching 1-D id arrays")
    if cur.size == 0:
        return cur.astype(np.int64), dst.astype(np.int64)
    for ids in (cur, dst):
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"router ids must be integers, not {ids.dtype}")
        if ids.min() < 0 or ids.max() >= n:
            bad = ids[(ids < 0) | (ids >= n)][0]
            raise ValueError(f"router id {bad} is outside [0, {n})")
    return cur.astype(np.int64, copy=False), dst.astype(np.int64, copy=False)


class HopView(Sequence[int]):
    """Zero-copy sequence view over a NumPy array of next-hop candidates.

    Routers hand back next-hop sets as array slices; this adapter gives
    those slices ``list``-like semantics (iteration yields Python ``int``,
    ``==`` compares element-wise against any sequence, emptiness is a plain
    ``bool``) without materializing a list per query.  Vectorized consumers
    can grab the underlying array via :meth:`to_array`.
    """

    __slots__ = ("_arr",)

    def __init__(self, arr: np.ndarray) -> None:
        self._arr = arr

    def __len__(self) -> int:
        return int(self._arr.shape[0])

    def __bool__(self) -> bool:
        return self._arr.shape[0] > 0

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> "HopView": ...

    def __getitem__(self, index: int | slice) -> "int | HopView":
        if isinstance(index, slice):
            return HopView(self._arr[index])
        return int(self._arr[index])

    def __iter__(self) -> Iterator[int]:
        return (int(v) for v in self._arr)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HopView):
            return bool(np.array_equal(self._arr, other._arr))
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                int(a) == b for a, b in zip(self._arr, other)
            )
        if isinstance(other, np.ndarray):
            return bool(np.array_equal(self._arr, other))
        return NotImplemented  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"HopView({self._arr.tolist()!r})"

    def to_array(self) -> np.ndarray:
        """The underlying candidate array (do not mutate)."""
        return self._arr

    __hash__ = None  # type: ignore[assignment]


class Router(ABC):
    """Destination-based minimal routing policy for one graph."""

    graph: Graph

    @abstractmethod
    def next_hops(self, current: int, dest: int) -> Sequence[int]:
        """All neighbors of *current* on minimal paths to *dest*.

        Must be empty iff ``current == dest`` or *dest* unreachable.
        Implementations may return a ``list`` or a :class:`HopView`; both
        compare equal to lists and are falsy when empty.
        """

    @abstractmethod
    def distance(self, current: int, dest: int) -> int:
        """Minimal-path length from *current* to *dest* under this policy.

        For exact-minimal routers this is the graph distance; analytic
        schemes may exceed it on corner cases only if documented.
        """

    def next_hop(self, current: int, dest: int) -> int:
        """A single deterministic minimal next hop (first candidate)."""
        hops = self.next_hops(current, dest)
        if not hops:
            raise ValueError(f"no next hop from {current} to {dest}")
        return int(hops[0])

    def next_hop_batch(self, current: np.ndarray, dest: np.ndarray) -> np.ndarray:
        """:meth:`next_hop` of every pair ``(current[i], dest[i])`` as int64,
        ``-1`` where ``current == dest`` or *dest* is unreachable (empty
        :meth:`next_hops`); ids outside ``[0, n)`` raise ``ValueError``.

        This default asks :meth:`next_hops` pair by pair.  The routers the
        flow solver and the packet engine's tables ask for whole batches
        (table, PolarStar, Dragonfly) override it with array kernels.
        """
        cur, dst = check_pairs(current, dest, self.graph.n)
        hops = self.next_hops
        out: list[int] = []
        for u, t in zip(cur.tolist(), dst.tolist()):
            cand = hops(u, t) if u != t else ()
            out.append(int(cand[0]) if cand else -1)
        return np.array(out, dtype=np.int64)

    def distance_batch(self, current: np.ndarray, dest: np.ndarray) -> np.ndarray:
        """:meth:`distance` of every pair ``(current[i], dest[i])`` as int64
        (``0`` where ``current == dest``); ids outside ``[0, n)`` raise
        ``ValueError``.  This default asks :meth:`distance` pair by pair;
        the same routers as for :meth:`next_hop_batch` override it."""
        cur, dst = check_pairs(current, dest, self.graph.n)
        dist = self.distance
        return np.array(
            [dist(u, t) for u, t in zip(cur.tolist(), dst.tolist())], dtype=np.int64
        )


def route_path(router: Router, src: int, dest: int, max_hops: int = 64) -> list[int]:
    """Follow ``router.next_hop`` from *src* to *dest*; returns the vertex
    sequence including both endpoints.  Guards against routing loops."""
    path = [src]
    cur = src
    while cur != dest:
        if len(path) > max_hops:
            raise RuntimeError(
                f"routing loop: no progress from {src} to {dest} within {max_hops} hops"
            )
        cur = router.next_hop(cur, dest)
        path.append(cur)
    return path
