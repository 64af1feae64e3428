"""Batched per-cycle kernel for the per-arrival packet loop.

:meth:`~repro.sim.packet.engine.PacketSimulator._run_soa` buffers each
cycle's send effects in plain lists and scatters them into the packet
columns of :class:`~repro.sim.packet.state.PacketArrays` in one
whole-batch NumPy pass.  **Hot-loop discipline (lint rule RL114) applies
to this module**: no per-element Python ``for`` loops over packet arrays
and no object-per-packet attribute access; anything order-sensitive (the
credit/dispatch interleave) lives in :mod:`repro.sim.packet.engine`
instead.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "record_sends",
]


def record_sends(arrays, pids, vcs, lids, ends_v) -> None:
    """Flush one cycle's buffered send effects into the packet columns.

    Each pid appears at most once per cycle (a sent packet is in flight
    for >= 2 cycles before its next event), so plain fancy-indexed
    scatters are exact: new router (the link's downstream end), new VC,
    occupied input link, and the hop count increment.
    """
    idx = np.asarray(pids, dtype=np.int64)
    lid_arr = np.asarray(lids, dtype=np.int64)
    arrays.router[idx] = ends_v[lid_arr]
    arrays.vc[idx] = np.asarray(vcs, dtype=np.int64)
    arrays.in_link[idx] = lid_arr
    arrays.hops[idx] += 1
