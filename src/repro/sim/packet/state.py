"""Struct-of-arrays state for the per-arrival packet loop.

The reference engine (:mod:`repro.sim.packet.reference`) keeps one Python
``_Packet`` object per packet.  The per-arrival loop
(:meth:`~repro.sim.packet.engine.PacketSimulator._run_soa`) replaces it
with:

* :class:`PacketArrays` — every per-packet field the loop reads or writes
  lives in one ``int64`` NumPy column keyed by packet slot
  (``src/dest/router/vc/in_link/intermediate/birth/hops/retries``), so a
  cycle's arrival batch is gathered and its sends scattered (the engine's
  ``_record_sends``) with fancy indexing instead of touching attributes
  one packet at a time.  The enqueue cycle the escape timeout reads
  travels in the waiting-queue entries instead.
* :class:`LinkState` — per-link mirrors (credits, serialization state,
  FIFO queues, wake dedup flags) kept as plain Python lists.  The
  dispatch/credit interleave is order-sensitive and runs element-at-a-time
  inside one cycle, where CPython list indexing is several times cheaper
  than NumPy scalar indexing; :meth:`LinkState.busy_array` converts back
  to an array for the bulk metrics flush.

:func:`build_link_id_table` serves both fast loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinkState",
    "PacketArrays",
    "build_link_id_table",
]


class PacketArrays:
    """Columnar packet state: one ``int64`` array per ``_Packet`` field
    (all but ``enq``, see the module docstring)."""

    __slots__ = (
        "n", "src", "dest", "router", "vc", "in_link", "intermediate",
        "birth", "hops", "retries",
    )

    def __init__(self, src, dest, birth) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dest = np.asarray(dest, dtype=np.int64)
        self.birth = np.asarray(birth, dtype=np.int64)
        n = int(self.src.shape[0])
        self.n = n
        self.router = self.src.copy()
        self.vc = np.zeros(n, dtype=np.int64)
        self.in_link = np.full(n, -1, dtype=np.int64)
        self.intermediate = np.full(n, -1, dtype=np.int64)
        self.hops = np.zeros(n, dtype=np.int64)
        self.retries = np.zeros(n, dtype=np.int64)


class LinkState:
    """Per-link hot state as plain-list mirrors (see module docstring)."""

    __slots__ = (
        "num_links", "ends_v", "link_free", "link_busy", "link_ok",
        "link_ser", "credits", "waiting", "wake_scheduled", "escape_at",
    )

    def __init__(self, ends, packet_size: int, num_vcs: int, buffer_packets: int):
        m = len(ends)
        self.num_links = m
        self.ends_v = [int(v) for (_, v) in ends]
        self.link_free = [0] * m
        self.link_busy = [0] * m
        self.link_ok = [True] * m
        self.link_ser = [packet_size] * m
        #: Flat ``(link, vc)`` credit counters: index ``lid * num_vcs + vc``.
        self.credits = [buffer_packets] * (m * num_vcs)
        #: FIFO output queues of ``(pid, vc, in_link, enq)`` tuples — the
        #: three packet fields the dispatch loop reads are captured as
        #: plain ints at enqueue time so sends never touch the arrays.
        self.waiting: list[list[tuple[int, int, int, int]]] = [[] for _ in range(m)]
        self.wake_scheduled = [False] * m
        self.escape_at = [-1] * m

    def refresh_health(self, packet_size: int, health) -> None:
        """Re-derive ``link_ok`` / ``link_ser`` from the shared health mask
        (run start with a pre-degraded mask, and after every fault event).

        Link ids are CSR entry positions, so this is one array pass over
        the health's per-entry views, written in place: the loops hold
        these lists as locals.
        """
        self.link_ok[:] = health.entry_up().tolist()
        ser = np.ceil(packet_size * health.entry_factor()).astype(np.int64)
        self.link_ser[:] = ser.tolist()

    def busy_array(self) -> np.ndarray:
        return np.asarray(self.link_busy, dtype=np.int64)


def build_link_id_table(n: int, link_id: dict[tuple[int, int], int]) -> np.ndarray:
    """Dense ``(n, n)`` int32 link-id matrix (``-1`` for non-edges) so the
    fast loops resolve ``(router, next_hop) -> lid`` by indexing."""
    tab = np.full((n, n), -1, dtype=np.int32)
    for (u, v), lid in link_id.items():
        tab[u, v] = lid
    tab.setflags(write=False)
    return tab
