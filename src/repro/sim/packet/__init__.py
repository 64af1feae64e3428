"""Packet-level network simulator: two fast loops + scalar reference.

Public surface (unchanged from the original single-module simulator):

* :class:`PacketSimulator` — the facade; ``engine="soa"`` (default) runs
  the fast engine, ``engine="reference"`` the pinned scalar event-heap
  loop.  Both are byte-identical on seeded runs.
* :class:`PacketSimConfig` / :class:`PacketSimResult` — shared config and
  result types (defined next to the reference engine, the semantic spec).
* :func:`latency_load_sweep` — load sweep with saturation early-stop.

Internals: :mod:`~repro.sim.packet.engine` (the precomputed-route loop
for fault-free minimal runs, and one per-arrival loop for UGAL and
fault-aware runs, with its per-cycle send scatter),
:mod:`~repro.sim.packet.state` (the per-arrival loop's columnar packet
arrays and link mirrors) and :mod:`~repro.sim.packet.reference` (the spec
engine).  See docs/SIMULATORS.md for the parity guarantee and how the
two engines are compared.
"""

from repro.sim.packet.engine import PacketSimulator, latency_load_sweep
from repro.sim.packet.reference import (
    PacketSimConfig,
    PacketSimResult,
    ReferencePacketSimulator,
)

__all__ = [
    "PacketSimConfig",
    "PacketSimResult",
    "PacketSimulator",
    "ReferencePacketSimulator",
    "latency_load_sweep",
]
