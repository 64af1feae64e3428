"""Network simulation substrates.

Three models at different fidelity/scale trade-offs (see DESIGN.md):

* :mod:`repro.sim.flow` — flow-level link-load analysis; exact saturation
  throughput under a routing policy at full Table 3 scale.
* :mod:`repro.sim.packet` — event-driven packet-level simulation with
  virtual channels, credit flow control and finite buffers; latency-vs-load
  curves at reduced scale (the Booksim substitute).
* :mod:`repro.sim.motif` — message-level discrete-event engine replaying
  communication motifs (Allreduce, Sweep3D) with link contention (the
  SST/Ember substitute).
"""

from repro.sim.flow import (
    link_loads,
    saturation_load,
    ugal_saturation_load,
    valiant_link_loads,
)
from repro.sim.packet import PacketSimConfig, PacketSimResult, PacketSimulator
from repro.sim.motif import MotifEngine, MotifNetworkConfig

__all__ = [
    "link_loads",
    "saturation_load",
    "ugal_saturation_load",
    "valiant_link_loads",
    "PacketSimConfig",
    "PacketSimResult",
    "PacketSimulator",
    "MotifEngine",
    "MotifNetworkConfig",
]
