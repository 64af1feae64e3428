"""Reference packet engine: the pinned scalar event-heap implementation.

This module is the **semantic specification** of the packet simulator: an
event-driven, object-per-packet heap loop kept deliberately simple.  The
fast loops of :mod:`repro.sim.packet.engine` (the default) must reproduce
its :class:`PacketSimResult` byte-for-byte on seeded runs — the parity
tests, perfbench's packet oracle and CI's ``perf-smoke`` speedup floor
run this engine as the baseline (select it with
``PacketSimulator(..., engine="reference")``).

Models the mechanisms that shape the Fig. 9/10 latency-load curves:

* 4-flit packets serialized over unit-bandwidth links (a packet occupies a
  link for ``packet_size`` cycles);
* per-link input buffers partitioned into **virtual channels by hop count**
  (distance-class VCs — the standard deadlock-free scheme for minimal
  routing on arbitrary graphs; Valiant phases simply continue the count);
* **credit flow control**: a packet advances only when the downstream
  buffer of its next VC has a free slot, and the slot is held until the
  packet leaves that router — so congestion backpressures to the source;
* FIFO arbitration per output link with VC lookahead (a credit-blocked head
  packet does not stall ready packets behind it);
* optional **UGAL** injection decisions using real queue occupancy
  (4 sampled Valiant intermediates, as in §9.3);
* optional **dynamic faults**: a :class:`~repro.faults.FaultSchedule`
  enters the event heap, links/nodes fail (or heal, or degrade) mid-run,
  packets re-route at the blocked router with bounded retries, and
  TTL-based drops guard against livelock (see docs/FAULT_TOLERANCE.md).

The simulator is event-driven at packet granularity, so cost scales with
delivered packets rather than cycles x ports; reduced-scale Table 3
analogues (~100-250 routers) run in seconds per load point.  Warm-up
traffic is excluded from statistics, as in §9.4.

When a fault schedule is supplied, the router is wrapped in a
:class:`~repro.faults.FaultAwareRouter` automatically (unless it already
is one), and ``run()`` resets the shared health mask first so the schedule
is authoritative — repeated runs of one simulator stay deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.faults import (
    FaultAwareRouter,
    FaultSchedule,
    LinkHealth,
    RouteUnavailableError,
    UNREACHABLE,
)
from repro.obs.metrics import MetricsRegistry
from repro.routing.base import Router
from repro.topologies.base import Topology
from repro.traffic.patterns import TrafficPattern

__all__ = [
    "PacketSimConfig",
    "PacketSimResult",
    "ReferencePacketSimulator",
]


@dataclass
class PacketSimConfig:
    packet_size: int = 4  # flits; also cycles of link serialization
    buffer_packets: int = 8  # buffer slots per (link, VC)
    num_vcs: int = 8  # distance classes (>= max hops + 1)
    link_latency: int = 1
    router_latency: int = 1
    warmup_cycles: int = 1000
    measure_cycles: int = 4000
    drain_cycles: int = 4000
    ugal_samples: int = 4
    seed: int = 0
    # -- fault handling (active only when a FaultSchedule / health mask is
    #    attached; fault-free runs never touch these) --------------------
    max_retries: int = 8  # per-packet reroute budget before dropping
    ttl_hops: int = 64  # hop budget (livelock guard under detours)
    escape_timeout: int = 64  # cycles head-of-line blocked before rerouting

    def __post_init__(self) -> None:
        # Negative cycle counts or latencies break the event timeline; a
        # zero-flit packet, zero buffer slots or VCs, or an empty
        # measurement window leave nothing to simulate or report.
        for floor, names in (
            (0, ("warmup_cycles", "drain_cycles", "link_latency", "router_latency")),
            (1, ("packet_size", "buffer_packets", "num_vcs", "measure_cycles")),
        ):
            for name in names:
                value = getattr(self, name)
                if value < floor:
                    raise ValueError(f"{name} must be >= {floor}, got {value!r}")


@dataclass
class PacketSimResult:
    offered_load: float
    avg_latency: float
    p99_latency: float
    throughput: float  # delivered flits / endpoint / cycle over measurement
    delivered: int
    injected: int
    stable: bool
    avg_hops: float = 0.0
    max_link_utilization: float = 0.0  # busiest link's busy fraction
    # -- fault accounting (measurement-window packets) -------------------
    delivered_fraction: float = 1.0  # delivered / injected
    dropped: int = 0
    reroutes: int = 0  # all reroute attempts over the whole run
    drop_causes: dict[str, int] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"PacketSimResult(load={self.offered_load:.2f}, "
            f"lat={self.avg_latency:.1f}, thr={self.throughput:.3f}, "
            f"stable={self.stable})"
        )


class _Packet:
    __slots__ = (
        "src", "dest", "router", "vc", "in_link", "intermediate", "birth",
        "hops", "retries", "enq",
    )

    def __init__(self, src_router: int, dest_router: int, birth: int):
        self.src = src_router
        self.dest = dest_router
        self.router = src_router
        self.vc = 0
        self.in_link = -1  # link whose downstream buffer the packet occupies
        self.intermediate = -1  # Valiant midpoint still to visit, or -1
        self.birth = birth
        self.hops = 0
        self.retries = 0  # reroute attempts (faults only)
        self.enq = birth  # cycle the packet joined its current output queue


class ReferencePacketSimulator:
    """One run of (topology, router policy, traffic pattern) at fixed load,
    executed by the scalar event-heap reference loop."""

    def __init__(
        self,
        topology: Topology,
        router: Router,
        pattern: TrafficPattern,
        config: PacketSimConfig | None = None,
        adaptive: bool = False,
        metrics: MetricsRegistry | None = None,
        faults: FaultSchedule | None = None,
    ):
        self.topology = topology
        self.pattern = pattern
        self.cfg = config or PacketSimConfig()
        self.adaptive = adaptive
        #: Explicit registry, or ``None`` to use the ambient one per run.
        self.metrics = metrics
        #: Fault schedule injected into the event heap (None = fault-free).
        self.faults = faults if faults is not None and len(faults) else None
        if self.faults is not None and not isinstance(router, FaultAwareRouter):
            router = FaultAwareRouter(router, LinkHealth(topology.graph))
        self.router = router
        #: Shared health mask — present iff the router is fault-aware, so a
        #: pre-degraded network (mask mutated, no schedule) also gets the
        #: reroute/TTL machinery.
        self.health = router.health if isinstance(router, FaultAwareRouter) else None

        g = topology.graph
        hg = self.health.graph if self.health is not None else g
        if hg is not g and not (
            np.array_equal(hg.indptr, g.indptr) and np.array_equal(hg.indices, g.indices)
        ):
            raise ValueError("the health mask's graph is not the topology's graph")
        # Link ids are CSR entry positions, so the health mask's per-entry
        # views are per-link vectors.
        self.link_id: dict[tuple[int, int], int] = {}
        ends: list[tuple[int, int]] = []
        for u in range(g.n):
            for v in g.neighbors(u):
                self.link_id[(u, int(v))] = len(ends)
                ends.append((u, int(v)))
        self.ends = ends
        self.num_links = len(ends)
        # Per-(router, target) next-hop memo, bounded by n² entries at the
        # reduced scales this simulator runs at.  Effectiveness is tracked
        # by the plain hit/miss tallies below and published per run as the
        # sim.packet.nexthop_cache counter pair.
        self._nh_cache: dict[tuple[int, int], int] = {}
        self._nh_hits = 0
        self._nh_misses = 0

    @staticmethod
    def _check_load(load: float) -> None:
        """Reject an offered load no injection process can honour."""
        if not (math.isfinite(load) and load >= 0):
            raise ValueError(f"offered load must be finite and >= 0, got {load!r}")

    def _next_hop(self, current: int, target: int) -> int:
        key = (current, target)
        hop = self._nh_cache.get(key)
        if hop is None:
            self._nh_misses += 1
            hop = self.router.next_hop(current, target)
            self._nh_cache[key] = hop
        else:
            self._nh_hits += 1
        return hop

    def _flush_metrics(
        self,
        reg: MetricsRegistry,
        *,
        link_busy: np.ndarray,
        latencies: list[int],
        injected: int,
        delivered: int,
        ugal: tuple[int, int],
        vc_cap_sends: int,
        max_hops: int,
        nh_delta: tuple[int, int],
        horizon: int,
        faults: dict | None = None,
    ) -> None:
        """Publish one run's bulk tallies into the registry (enabled mode).

        The hot loop accumulates plain ints / arrays; this single flush is
        what keeps the instrumented path within a few percent of baseline.
        """
        with obs.span("sim.packet.flush"):
            flits = reg.counter(
                "sim.packet.link_flits",
                help="flits serialized per directed link (busy cycles)",
                labels=("link",),
            )
            for lid in np.nonzero(link_busy)[0]:
                u, v = self.ends[lid]
                flits.labels(link=f"{u}->{v}").inc(int(link_busy[lid]))
            reg.histogram(
                "sim.packet.latency_cycles",
                help="measured packet latency (injection to ejection), cycles",
                bounds=(8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
            ).observe_many(latencies)
            pkts = reg.counter(
                "sim.packet.packets",
                help="measured-window packet counts by lifecycle stage",
                labels=("stage",),
            )
            pkts.labels(stage="injected").inc(injected)
            pkts.labels(stage="delivered").inc(delivered)
            decisions = reg.counter(
                "sim.packet.ugal_decisions",
                help="UGAL-L injection choices (minimal vs Valiant detour)",
                labels=("choice",),
            )
            decisions.labels(choice="minimal").inc(ugal[0])
            decisions.labels(choice="nonminimal").inc(ugal[1])
            cache = reg.counter(
                "sim.packet.nexthop_cache",
                help="per-(router, target) next-hop memo effectiveness",
                labels=("result",),
            )
            cache.labels(result="hit").inc(nh_delta[0])
            cache.labels(result="miss").inc(nh_delta[1])
            reg.counter(
                "sim.packet.deadlock.vc_cap_sends",
                help="deadlock probe: sends by packets in the capped VC class",
            ).inc(vc_cap_sends)
            reg.gauge(
                "sim.packet.deadlock.max_hops",
                help="deadlock probe: longest hop count of any delivered packet",
            ).set_max(max_hops)
            reg.gauge(
                "sim.packet.max_link_utilization",
                help="busiest link's busy fraction over warmup + measurement",
            ).set_max(float(link_busy.max() / max(horizon, 1)) if self.num_links else 0.0)
            if faults is not None:
                reg.gauge(
                    "faults.links_down",
                    help="undirected links unusable at end of run (down, or "
                    "touching a down node)",
                ).set(faults["links_down"])
                reg.gauge(
                    "faults.nodes_down",
                    help="routers down at end of run",
                ).set(faults["nodes_down"])
                ev_ctr = reg.counter(
                    "faults.events",
                    help="fault events applied from the schedule, by kind",
                    labels=("kind",),
                )
                for k, n in sorted(faults["events"].items()):
                    ev_ctr.labels(kind=k).inc(n)
                drops = reg.counter(
                    "sim.packet.drops",
                    help="measured-window packets dropped, by cause",
                    labels=("cause",),
                )
                for cause, n in sorted(faults["drop_causes"].items()):
                    drops.labels(cause=cause).inc(n)
                reg.counter(
                    "sim.packet.faults.reroutes",
                    help="packet reroute attempts at blocked routers",
                ).inc(faults["reroutes"])
                rungs = reg.counter(
                    "faults.route.rungs",
                    help="routing decisions served per fallback-ladder rung",
                    labels=("rung",),
                )
                for rung, n in faults["rungs"].items():
                    if n:
                        rungs.labels(rung=rung).inc(n)
                recompute = reg.counter(
                    "faults.recompute.dests",
                    help="destination distance-vector recomputes (eager at "
                    "fault time vs lazy on first use)",
                    labels=("mode",),
                )
                recompute.labels(mode="eager").inc(faults["recompute_eager"])
                recompute.labels(mode="lazy").inc(faults["recompute_lazy"])
                reg.histogram(
                    "faults.recompute.batch",
                    help="eagerly recomputed destinations per topology change",
                    bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
                ).observe_many(faults["recompute_batches"])

    def run(self, load: float) -> PacketSimResult:
        self._check_load(load)
        cfg = self.cfg
        topo = self.topology
        rng = np.random.default_rng(cfg.seed)
        horizon = cfg.warmup_cycles + cfg.measure_cycles

        # Observability: resolve the registry once per run; when disabled the
        # hot loop pays a single local-bool test per guarded block.
        reg = self.metrics if self.metrics is not None else obs.get_registry()
        obs_on = reg.enabled
        nh_hits0, nh_misses0 = self._nh_hits, self._nh_misses
        ugal_minimal = 0
        ugal_nonminimal = 0
        vc_cap_sends = 0  # deadlock probe: sends in the capped VC class
        max_hops_seen = 0
        if obs_on:
            qdepth = reg.histogram(
                "sim.packet.queue_depth",
                help="output-queue depth observed at each packet enqueue",
                bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128),
            )

        # ---- fault state ---------------------------------------------------
        health = self.health
        faults_on = health is not None
        if faults_on and self.faults is not None:
            # The schedule is authoritative: start from a pristine mask so
            # repeated run() calls on one simulator stay deterministic.
            health.reset()
        reroutes = 0
        dropped_measured = 0
        drop_causes: dict[str, int] = {}
        applied_events: dict[str, int] = {}
        if faults_on:
            self._nh_cache.clear()  # a prior run may have cached fault-era hops
            rungs0 = dict(self.router.rung_counts)
            eager0, lazy0 = self.router.recompute_eager, self.router.recompute_lazy
            batches0 = len(self.router.recompute_batches)

        # ---- pre-generated open-loop injections (Poisson per endpoint) ----
        rate = load / cfg.packet_size  # packets / endpoint / cycle
        events: list[tuple[int, int, int, object]] = []  # (time, kind, seq, payload)
        seq = 0
        injected_measured = 0
        # Fault events outrank arrivals at the same timestamp, so a link that
        # dies at t is already dead for packets arriving at t.
        FAULT, ARRIVE, WAKE = 0, 1, 2
        if self.faults is not None:
            for ev in self.faults:
                heapq.heappush(events, (ev.time, FAULT, seq, ev))
                seq += 1
        if rate > 0:
            with obs.span("sim.packet.inject"):
                for e in range(topo.num_endpoints):
                    src_r = int(topo.endpoint_router[e])
                    t = rng.exponential(1.0 / rate)
                    while t < horizon:
                        dest_e = self.pattern.dest_endpoint(e, rng)
                        birth = int(t)
                        t += rng.exponential(1.0 / rate)
                        if dest_e == e:
                            continue
                        dest_r = int(topo.endpoint_router[dest_e])
                        if dest_r == src_r:
                            continue
                        pkt = _Packet(src_r, dest_r, birth)
                        heapq.heappush(events, (birth, ARRIVE, seq, pkt))
                        seq += 1
                        if cfg.warmup_cycles <= birth < horizon:
                            injected_measured += 1

        link_free = np.zeros(self.num_links, dtype=np.int64)
        link_busy = np.zeros(self.num_links, dtype=np.int64)  # cycles occupied
        link_ok = np.ones(self.num_links, dtype=bool)  # health mask per link
        link_ser = np.full(self.num_links, cfg.packet_size, dtype=np.int64)
        credits = np.full(
            (self.num_links, cfg.num_vcs), cfg.buffer_packets, dtype=np.int32
        )
        waiting: list[list[_Packet]] = [[] for _ in range(self.num_links)]
        wake_scheduled = np.zeros(self.num_links, dtype=bool)
        # Pending escape-check wake per link (dedupes heap pushes).
        escape_at = np.full(self.num_links, -1, dtype=np.int64)

        def refresh_links() -> None:
            """Per-link health mirrors from the mask (link ids are CSR
            entry positions, see ``__init__``)."""
            link_ok[:] = health.entry_up()
            link_ser[:] = np.ceil(cfg.packet_size * health.entry_factor()).astype(np.int64)

        if faults_on:
            # A pre-degraded mask (no schedule) must be visible from cycle 0.
            refresh_links()

        latencies: list[int] = []
        hop_total = 0
        delivered_measured = 0

        def occupancy(u: int, v: int) -> float:
            return float(len(waiting[self.link_id[(u, v)]]))

        def choose_route(pkt: _Packet) -> None:
            """UGAL-L decision at injection (minimal vs sampled Valiant)."""
            nonlocal ugal_minimal, ugal_nonminimal
            n = topo.num_routers
            min_next = self._next_hop(pkt.src, pkt.dest)
            best_cost = self.router.distance(pkt.src, pkt.dest) * (
                1.0 + occupancy(pkt.src, min_next)
            )
            best_mid = -1
            for _ in range(cfg.ugal_samples):
                mid = int(rng.integers(0, n))
                if mid == pkt.src or mid == pkt.dest:
                    continue
                hops = self.router.distance(pkt.src, mid) + self.router.distance(
                    mid, pkt.dest
                )
                if hops >= UNREACHABLE:
                    continue  # intermediate cut off under faults
                cost = hops * (1.0 + occupancy(pkt.src, self._next_hop(pkt.src, mid)))
                if cost < best_cost:
                    best_cost, best_mid = cost, mid
            pkt.intermediate = best_mid
            if best_mid < 0:
                ugal_minimal += 1
            else:
                ugal_nonminimal += 1

        def drop(pkt: _Packet, cause: str, now: int) -> None:
            """Give up on a packet: free its buffer slot, account the loss
            (measurement-window packets only, like delivery stats)."""
            nonlocal dropped_measured
            release(pkt, now)
            if cfg.warmup_cycles <= pkt.birth < horizon:
                dropped_measured += 1
                drop_causes[cause] = drop_causes.get(cause, 0) + 1

        def route_next(pkt: _Packet, exclude: tuple[int, ...] = ()) -> int:
            """Next hop honoring the fault mask.  A cut-off Valiant midpoint
            degrades to direct routing; a cut-off destination raises."""
            target = pkt.intermediate if pkt.intermediate >= 0 else pkt.dest
            try:
                if exclude:
                    return self.router.route_hops(pkt.router, target, exclude)[0][0]
                return self._next_hop(pkt.router, target)
            except RouteUnavailableError:
                if pkt.intermediate < 0:
                    raise
                pkt.intermediate = -1
                return route_next(pkt, exclude)

        def reroute(pkt: _Packet, blocked: int, now: int) -> None:
            """Re-route a displaced packet at its current router, excluding
            the *blocked* neighbor; bounded by the per-packet retry budget."""
            nonlocal reroutes
            if not health.node_up(pkt.router):
                drop(pkt, "node_down", now)
                return
            pkt.retries += 1
            if pkt.retries > cfg.max_retries:
                drop(pkt, "retries", now)
                return
            reroutes += 1
            try:
                nxt = route_next(pkt, exclude=(blocked,))
            except RouteUnavailableError:
                drop(pkt, "unreachable", now)
                return
            lid = self.link_id[(pkt.router, nxt)]
            pkt.enq = now
            waiting[lid].append(pkt)
            if obs_on:
                qdepth.observe(len(waiting[lid]))
            try_dispatch(lid, now + cfg.router_latency)

        def apply_fault(ev, now: int) -> None:
            """Apply one fault event: update the shared mask, invalidate the
            routing caches, and displace packets queued on dead links."""
            health.apply(ev)
            applied_events[ev.kind] = applied_events.get(ev.kind, 0) + 1
            self._nh_cache.clear()
            self.router.sync()  # budgeted eager recompute at event time
            refresh_links()
            for lid in range(self.num_links):
                if link_ok[lid] or not waiting[lid]:
                    continue
                displaced, waiting[lid] = waiting[lid], []
                blocked = self.ends[lid][1]
                for pkt in displaced:
                    reroute(pkt, blocked, now)

        def release(pkt: _Packet, now: int) -> None:
            """Free the buffer slot the packet held (when it leaves a router)."""
            if pkt.in_link >= 0:
                credits[pkt.in_link, pkt.vc] += 1
                schedule_wake(pkt.in_link, now)

        def schedule_wake(lid: int, when: int) -> None:
            nonlocal seq
            if waiting[lid] and not wake_scheduled[lid]:
                wake_scheduled[lid] = True
                heapq.heappush(events, (max(when, int(link_free[lid])), WAKE, seq, lid))
                seq += 1

        def try_dispatch(lid: int, now: int) -> None:
            """Move sendable packets out on link lid (FIFO with VC lookahead)."""
            nonlocal vc_cap_sends, seq
            if faults_on and not link_ok[lid]:
                return  # dead link; apply_fault displaces its queue
            while waiting[lid] and link_free[lid] <= now:
                sent = False
                for i, pkt in enumerate(waiting[lid]):
                    nvc = min(pkt.vc + 1, cfg.num_vcs - 1)
                    if credits[lid, nvc] > 0:
                        waiting[lid].pop(i)
                        credits[lid, nvc] -= 1
                        release(pkt, now)  # leaves the current router
                        ser = int(link_ser[lid])  # degraded links serialize slower
                        link_free[lid] = now + ser
                        link_busy[lid] += ser
                        if obs_on and pkt.vc + 1 > nvc:
                            # Deadlock probe: the packet exhausted its
                            # distance-class VCs and rides the capped class.
                            vc_cap_sends += 1
                        arrive = now + ser + cfg.link_latency
                        _, v = self.ends[lid]
                        pkt.router = v
                        pkt.vc = nvc
                        pkt.in_link = lid
                        pkt.hops += 1
                        nonlocal_push(arrive, pkt)
                        sent = True
                        break
                if not sent:
                    if faults_on and waiting[lid]:
                        # Escape path: a head-of-line packet credit-blocked
                        # past the timeout gets rerouted around this port
                        # (this is how the detour rung becomes reachable).
                        head_wait = now - waiting[lid][0].enq
                        if head_wait >= cfg.escape_timeout:
                            head = waiting[lid].pop(0)
                            reroute(head, self.ends[lid][1], now)
                            continue
                        if escape_at[lid] <= now:
                            when = now + cfg.escape_timeout - head_wait
                            escape_at[lid] = when
                            heapq.heappush(events, (when, WAKE, seq, lid))
                            seq += 1
                    return
            schedule_wake(lid, int(link_free[lid]))

        def nonlocal_push(time: int, pkt: _Packet) -> None:
            nonlocal seq
            heapq.heappush(events, (time, ARRIVE, seq, pkt))
            seq += 1

        # ---- main loop ----
        end_time = horizon + cfg.drain_cycles
        try:
            with obs.span("sim.packet.events"):
                while events:
                    now, kind, _, payload = heapq.heappop(events)
                    if now > end_time:
                        break
                    if kind == FAULT:
                        apply_fault(payload, now)
                        continue
                    if kind == WAKE:
                        lid = payload  # type: ignore[assignment]
                        wake_scheduled[lid] = False
                        try_dispatch(lid, now)
                        continue

                    pkt: _Packet = payload  # type: ignore[assignment]
                    if faults_on and not health.node_up(pkt.router):
                        # The packet was in flight toward a router that died.
                        drop(pkt, "node_down", now)
                        continue
                    if pkt.in_link < 0 and self.adaptive and pkt.router == pkt.src:
                        if faults_on:
                            try:
                                choose_route(pkt)
                            except RouteUnavailableError:
                                drop(pkt, "unreachable", now)
                                continue
                        else:
                            choose_route(pkt)
                    if pkt.intermediate == pkt.router:
                        pkt.intermediate = -1
                    if pkt.router == pkt.dest:
                        release(pkt, now)  # ejection frees the buffer immediately
                        if cfg.warmup_cycles <= pkt.birth < horizon:
                            latencies.append(now - pkt.birth)
                            hop_total += pkt.hops
                            delivered_measured += 1
                        if obs_on and pkt.hops > max_hops_seen:
                            max_hops_seen = pkt.hops
                        continue
                    if faults_on:
                        if pkt.hops >= cfg.ttl_hops:
                            drop(pkt, "ttl", now)  # livelock guard under detours
                            continue
                        try:
                            nxt = route_next(pkt)
                        except RouteUnavailableError:
                            drop(pkt, "unreachable", now)
                            continue
                    else:
                        target = pkt.intermediate if pkt.intermediate >= 0 else pkt.dest
                        nxt = self._next_hop(pkt.router, target)
                    lid = self.link_id[(pkt.router, nxt)]
                    pkt.enq = now
                    waiting[lid].append(pkt)
                    if obs_on:
                        qdepth.observe(len(waiting[lid]))
                    try_dispatch(lid, now + cfg.router_latency)
        finally:
            # route_next calls itself and try_dispatch and reroute call
            # each other; emptying their cells breaks the closure cycles
            # that would keep this run's state alive until the next full
            # collection.
            del route_next, reroute, try_dispatch

        if obs_on:
            faults_bundle = None
            if faults_on:
                faults_bundle = {
                    "links_down": health.links_down_count(),
                    "nodes_down": health.nodes_down_count(),
                    "events": applied_events,
                    "drop_causes": drop_causes,
                    "reroutes": reroutes,
                    "rungs": {
                        r: n - rungs0.get(r, 0)
                        for r, n in self.router.rung_counts.items()
                    },
                    "recompute_eager": self.router.recompute_eager - eager0,
                    "recompute_lazy": self.router.recompute_lazy - lazy0,
                    "recompute_batches": self.router.recompute_batches[batches0:],
                }
            self._flush_metrics(
                reg,
                link_busy=link_busy,
                latencies=latencies,
                injected=injected_measured,
                delivered=delivered_measured,
                ugal=(ugal_minimal, ugal_nonminimal),
                vc_cap_sends=vc_cap_sends,
                max_hops=max_hops_seen,
                nh_delta=(
                    self._nh_hits - nh_hits0,
                    self._nh_misses - nh_misses0,
                ),
                horizon=horizon,
                faults=faults_bundle,
            )

        avg_lat = float(np.mean(latencies)) if latencies else float("inf")
        p99 = float(np.percentile(latencies, 99)) if latencies else float("inf")
        thr = (
            delivered_measured
            * cfg.packet_size
            / max(topo.num_endpoints * cfg.measure_cycles, 1)
        )
        stable = bool(latencies) and delivered_measured >= 0.85 * max(injected_measured, 1)
        return PacketSimResult(
            offered_load=load,
            avg_latency=avg_lat,
            p99_latency=p99,
            throughput=thr,
            delivered=delivered_measured,
            injected=injected_measured,
            stable=stable,
            avg_hops=hop_total / delivered_measured if delivered_measured else 0.0,
            max_link_utilization=float(link_busy.max() / max(horizon, 1))
            if self.num_links
            else 0.0,
            delivered_fraction=(
                delivered_measured / injected_measured if injected_measured else 1.0
            ),
            dropped=dropped_measured,
            reroutes=reroutes,
            drop_causes=dict(sorted(drop_causes.items())),
        )
