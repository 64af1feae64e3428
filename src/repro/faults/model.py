"""Typed fault events and seeded fault schedules (§11.2, made dynamic).

The static Fig. 14 study (:mod:`repro.analysis.faults`) deletes links from a
graph and re-measures it.  This module describes *when* things fail, so the
packet simulator can degrade a live network mid-run:

* a :class:`FaultEvent` is one timestamped state change — a link or node
  going down or coming back up, or a link entering a degraded (slow) state;
* a :class:`FaultSchedule` is a validated, time-sorted sequence of events,
  either written explicitly or generated from a *seeded scenario* so that
  every run is reproducible bit-for-bit (fault times and victim sets come
  from ``np.random.default_rng(seed)``, never ambient state).

Scenario generators cover the taxonomy used by docs/FAULT_TOLERANCE.md:
permanent random link failures (the paper's model), permanent node
failures, transient link flaps with up/down dwell times, and degraded
links that serialize packets more slowly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.graphs.base import Graph

__all__ = [
    "EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "degraded_links",
    "link_flaps",
    "node_failures",
    "permanent_link_failures",
]

#: Recognized event kinds.  ``link_*`` events carry a ``(u, v)`` endpoint
#: pair; ``node_*`` events carry only ``u``.  ``link_degrade`` additionally
#: carries a serialization ``factor`` (finite, >= 1); ``link_up`` clears both a
#: down state and a degraded state.
EVENT_KINDS = ("link_down", "link_up", "link_degrade", "node_down", "node_up")

_NODE_KINDS = frozenset({"node_down", "node_up"})


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One timestamped fault-state change.

    Ordering is by ``(time, kind, u, v)`` so heterogeneous schedules sort
    deterministically.  ``v`` is ``-1`` for node events; ``factor`` is the
    serialization multiplier for ``link_degrade`` (ignored otherwise).
    """

    time: int
    kind: str
    u: int
    v: int = -1
    factor: float = 1.0

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; options: {EVENT_KINDS}")
        if self.time < 0:
            raise ValueError(f"fault event time must be >= 0, got {self.time}")
        if self.kind in _NODE_KINDS:
            if self.v != -1:
                raise ValueError(f"node event {self.kind!r} must leave v=-1")
        elif self.v < 0:
            raise ValueError(f"link event {self.kind!r} needs both endpoints")
        if self.kind == "link_degrade" and not (
            math.isfinite(self.factor) and self.factor >= 1.0
        ):
            raise ValueError(
                f"link_degrade factor must be finite and >= 1 (slowdown), "
                f"got {self.factor!r}"
            )

    @property
    def is_node_event(self) -> bool:
        return self.kind in _NODE_KINDS

    def edge(self) -> tuple[int, int]:
        """Canonical ``(min, max)`` endpoint pair of a link event."""
        if self.is_node_event:
            raise ValueError(f"{self.kind!r} event has no edge")
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    def to_jsonable(self) -> dict:
        """Wire/file form of this event (inverse of :meth:`from_jsonable`).

        Node events omit ``v``; ``factor`` appears only for
        ``link_degrade`` — so the JSON stays minimal and round-trips to an
        equal :class:`FaultEvent`.
        """
        out: dict = {"time": self.time, "kind": self.kind, "u": self.u}
        if not self.is_node_event:
            out["v"] = self.v
            if self.kind == "link_degrade":
                out["factor"] = self.factor
        return out

    @classmethod
    def from_jsonable(cls, obj: object) -> "FaultEvent":
        """Parse one event from its JSON object form.

        Raises :class:`ValueError` (never ``KeyError``/``TypeError``) on
        malformed input, so protocol handlers can map it to a 400.
        """
        if not isinstance(obj, dict):
            raise ValueError(
                f"fault event must be a JSON object, got {type(obj).__name__}"
            )
        unknown = set(obj) - {"time", "kind", "u", "v", "factor"}
        if unknown:
            raise ValueError(f"unknown fault event fields: {sorted(unknown)}")
        if "kind" not in obj or "u" not in obj:
            raise ValueError(f"fault event needs 'kind' and 'u': {obj!r}")
        try:
            return cls(
                time=int(obj.get("time", 0)),
                kind=str(obj["kind"]),
                u=int(obj["u"]),
                v=int(obj.get("v", -1)),
                factor=float(obj.get("factor", 1.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad fault event {obj!r}: {exc}") from exc


class FaultSchedule:
    """A validated, time-sorted sequence of :class:`FaultEvent`.

    Schedules are immutable values: concatenating two with ``+`` produces a
    new merged (re-sorted) schedule, so scenario generators compose —
    ``permanent_link_failures(...) + link_flaps(...)``.
    """

    def __init__(self, events: Iterable[FaultEvent] = (), graph: Graph | None = None):
        evs = sorted(events)
        if graph is not None:
            for ev in evs:
                hi = max(ev.u, ev.v)
                if ev.u < 0 or hi >= graph.n:
                    raise ValueError(
                        f"fault event {ev} references a vertex outside [0, {graph.n})"
                    )
                if not ev.is_node_event and not graph.has_edge(*ev.edge()):
                    raise ValueError(f"fault event {ev} names a non-existent link")
        self.events: tuple[FaultEvent, ...] = tuple(evs)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(self.events + other.events)

    def __repr__(self) -> str:
        kinds = self.summary()["by_kind"]
        return f"FaultSchedule({len(self.events)} events, {kinds})"

    def to_jsonable(self) -> list[dict]:
        """Wire/file form: a JSON array of event objects, time-sorted."""
        return [ev.to_jsonable() for ev in self.events]

    @classmethod
    def from_jsonable(
        cls, objs: object, graph: Graph | None = None
    ) -> "FaultSchedule":
        """Parse a schedule from its JSON array form (optionally validated
        against *graph* like the regular constructor); raises
        :class:`ValueError` on malformed input."""
        if not isinstance(objs, (list, tuple)):
            raise ValueError(
                f"fault schedule must be a JSON array of events, "
                f"got {type(objs).__name__}"
            )
        return cls([FaultEvent.from_jsonable(o) for o in objs], graph=graph)

    def summary(self) -> dict:
        """JSON-safe digest stamped into run manifests."""
        by_kind: dict[str, int] = {}
        links: set[tuple[int, int]] = set()
        nodes: set[int] = set()
        for ev in self.events:
            by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
            if ev.is_node_event:
                nodes.add(ev.u)
            else:
                links.add(ev.edge())
        return {
            "events": len(self.events),
            "by_kind": dict(sorted(by_kind.items())),
            "links_touched": len(links),
            "nodes_touched": len(nodes),
            "first_time": self.events[0].time if self.events else None,
            "last_time": self.events[-1].time if self.events else None,
        }


def _pick_edges(graph: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    if not 0 <= count <= graph.m:
        raise ValueError(f"cannot pick {count} links from a graph with {graph.m}")
    return rng.permutation(graph.m)[:count]


def permanent_link_failures(
    graph: Graph, fraction: float, seed: int = 0, time: int = 0
) -> FaultSchedule:
    """The paper's §11.2 model, injected live: a seeded random ``fraction``
    of links goes down permanently at ``time`` (no matching ``link_up``)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"failure fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    k = int(round(fraction * graph.m))
    edges = graph.edge_array
    events = [
        FaultEvent(time, "link_down", int(edges[i, 0]), int(edges[i, 1]))
        for i in _pick_edges(graph, k, rng)
    ]
    return FaultSchedule(events, graph=graph)


def node_failures(
    graph: Graph, count: int, seed: int = 0, time: int = 0
) -> FaultSchedule:
    """``count`` seeded random routers fail permanently at ``time`` (their
    incident links all become unusable; attached endpoints go dark)."""
    if not 0 <= count <= graph.n:
        raise ValueError(f"cannot fail {count} nodes of {graph.n}")
    rng = np.random.default_rng(seed)
    victims = rng.permutation(graph.n)[:count]
    return FaultSchedule(
        [FaultEvent(time, "node_down", int(v)) for v in victims], graph=graph
    )


def link_flaps(
    graph: Graph,
    num_links: int,
    horizon: int,
    down_time: int = 200,
    up_time: int = 800,
    seed: int = 0,
) -> FaultSchedule:
    """Transient faults: ``num_links`` seeded random links flap — down for
    ``down_time`` cycles, up for ``up_time`` — repeating until ``horizon``.
    Each link's phase is drawn from the same seeded stream, so flaps are
    staggered but reproducible."""
    if down_time <= 0 or up_time <= 0:
        raise ValueError("flap down_time and up_time must be positive")
    if horizon <= 0:
        raise ValueError("flap horizon must be positive")
    rng = np.random.default_rng(seed)
    period = down_time + up_time
    events: list[FaultEvent] = []
    edges = graph.edge_array
    for i in _pick_edges(graph, num_links, rng):
        u, v = int(edges[i, 0]), int(edges[i, 1])
        t = int(rng.integers(0, period))
        while t < horizon:
            events.append(FaultEvent(t, "link_down", u, v))
            if t + down_time >= horizon:
                break
            events.append(FaultEvent(t + down_time, "link_up", u, v))
            t += period
    return FaultSchedule(events, graph=graph)


def degraded_links(
    graph: Graph, fraction: float, factor: float = 2.0, seed: int = 0, time: int = 0
) -> FaultSchedule:
    """Gray failures: a seeded random ``fraction`` of links stays up but
    serializes packets ``factor`` x slower from ``time`` on."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"degraded fraction must be in [0, 1], got {fraction}")
    if not (math.isfinite(factor) and factor >= 1.0):
        raise ValueError(f"degrade factor must be finite and >= 1, got {factor!r}")
    rng = np.random.default_rng(seed)
    k = int(round(fraction * graph.m))
    edges = graph.edge_array
    events = [
        FaultEvent(time, "link_degrade", int(edges[i, 0]), int(edges[i, 1]), factor=factor)
        for i in _pick_edges(graph, k, rng)
    ]
    return FaultSchedule(events, graph=graph)
