"""``repro.faults`` — dynamic fault injection and fault-tolerant routing.

The subsystem has four parts (see ``docs/FAULT_TOLERANCE.md``):

* :mod:`repro.faults.model` — typed :class:`FaultEvent` records and seeded
  :class:`FaultSchedule` scenario generators (permanent link/node failures,
  transient flaps, degraded links);
* :mod:`repro.faults.health` — :class:`LinkHealth`, the live link/node
  health mask shared by routing and simulation, with an ``epoch`` counter
  driving cache invalidation;
* :mod:`repro.faults.router` — :class:`FaultAwareRouter`, a
  :class:`~repro.routing.base.Router` wrapper that degrades gracefully
  through a primary → alternate → recomputed → detour fallback ladder;
  its ``next_hop`` raises :class:`RouteUnavailableError` when a
  destination is cut off, where ``next_hops`` returns ``[]``;
* :mod:`repro.faults.io` — the deterministic I/O fault-injection seam:
  :class:`DiskIo` (the real OS calls the store's disk tier and the run
  journal write through) and :class:`FaultyIo`, which injects scripted
  (:class:`ScriptedPolicy`) or seeded (:class:`SeededPolicy`) EIO /
  ENOSPC / torn writes / fsync failures / simulated crashes, and models
  the durable state a power cut leaves behind (driving
  ``repro faults crashpoints``, see :mod:`repro.runtime.crashpoints`).

The packet simulator (:mod:`repro.sim.packet`) consumes all three: pass a
``FaultSchedule`` to :class:`~repro.sim.packet.PacketSimulator` and fault
events enter the event heap, packets re-route with bounded retries, and
drops are accounted by cause.
"""

from repro.faults.health import LinkHealth, UNREACHABLE
from repro.faults.io import (
    CRASH_MODES,
    DiskIo,
    FAULT_KINDS,
    FaultyIo,
    IoFault,
    IoFile,
    IoOp,
    IoPolicy,
    ScriptedPolicy,
    SeededPolicy,
    SimulatedCrash,
)
from repro.faults.model import (
    EVENT_KINDS,
    FaultEvent,
    FaultSchedule,
    degraded_links,
    link_flaps,
    node_failures,
    permanent_link_failures,
)
from repro.faults.router import FaultAwareRouter, RouteUnavailableError

__all__ = [
    "CRASH_MODES",
    "DiskIo",
    "EVENT_KINDS",
    "FAULT_KINDS",
    "FaultAwareRouter",
    "FaultEvent",
    "FaultSchedule",
    "FaultyIo",
    "IoFault",
    "IoFile",
    "IoOp",
    "IoPolicy",
    "LinkHealth",
    "RouteUnavailableError",
    "ScriptedPolicy",
    "SeededPolicy",
    "SimulatedCrash",
    "UNREACHABLE",
    "degraded_links",
    "link_flaps",
    "node_failures",
    "permanent_link_failures",
]
