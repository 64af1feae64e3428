"""Fast packet engines behind :class:`PacketSimulator`: byte-identical results.

:class:`PacketSimulator` executes the exact discrete-event semantics of the
scalar reference loop (:mod:`repro.sim.packet.reference`, the spec) — same
RNG draw order, same event order, same credit/dispatch interleave — through
one of two loops, picked per run:

* :meth:`PacketSimulator._run_pure` for fault-free minimal routing.  Next
  hops are history-free there, so every packet's whole route is resolved at
  injection in a few table gathers, and the event loop does timing-only
  work over integer route codes;
* :meth:`PacketSimulator._run_soa` for UGAL and fault-aware runs.  Packet
  state lives in NumPy columns (:class:`~.state.PacketArrays`) and each
  arrival is routed when it happens: fault-free UGAL reads dense next-hop,
  distance and link-id tables, and fault-aware runs ask the genuine
  :class:`~repro.faults.FaultAwareRouter` for every decision, clean epochs
  included, so its ladder and recompute tallies are its own.

Both loops replace the reference's global event heap with per-cycle bucket
lists.  Event times are integers and the heap orders by ``(time, kind,
seq)`` with ``FAULT < ARRIVE < WAKE``, so per-cycle append-order lists per
kind replay it exactly: appends happen in ``seq`` order, and the only
same-cycle pushes made while a cycle is processed are wakes, which the
heap also serves after that cycle's arrivals.  Events past ``end_time``
are never consumed, just as the reference stops at the first popped event
beyond it.  Per-link credit/queue state stays in plain Python lists during
the run (cheap to index from the order-sensitive dispatch loop) and is
converted back to arrays for the bulk metrics flush.

**Parity rules the implementation follows** (verified by
``tests/test_packet_soa_parity.py`` and gated in CI):

* one scalar loop (:func:`_draw_injections`) draws the injections —
  inter-arrival and destination draws interleave per endpoint, so
  vectorizing them would consume the RNG stream in a different order;
* UGAL decisions and fault-aware routing decisions are made one arrival at
  a time, in event order, with the reference's next-hop memo semantics
  (the memo's hit/miss tallies feed ``sim.packet.nexthop_cache``);
* measured latencies reach ``np.mean``/``np.percentile`` in event order
  with the reference's integer values, so the final statistics see the
  identical operand array.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import obs
from repro.faults import FaultSchedule, RouteUnavailableError, UNREACHABLE
from repro.obs.metrics import MetricsRegistry
from repro.routing.base import Router
from repro.sim.packet.reference import (
    PacketSimConfig,
    PacketSimResult,
    ReferencePacketSimulator,
)
from repro.sim.packet.state import LinkState, PacketArrays, build_link_id_table
from repro.topologies.base import Topology
from repro.traffic.patterns import TrafficPattern, UniformRandomPattern

__all__ = [
    "PacketSimulator",
    "latency_load_sweep",
]

#: Per-router-object distance-table memo for the fault-free UGAL path
#: (values are exactly ``router.distance(u, t)`` flattened to a list).
_DIST_TABLES: "weakref.WeakKeyDictionary[Router, list[int]]" = (
    weakref.WeakKeyDictionary()
)


def _distance_table(router: Router) -> list[int]:
    # Imported here (not at module level): repro.routing.table pulls in the
    # analysis/topologies/store stack, which circularly imports repro.routing.
    from repro.routing.table import TableRouter

    try:
        cached = _DIST_TABLES.get(router)
    except TypeError:
        cached = None
    if cached is not None:
        return cached
    n = router.graph.n
    if isinstance(router, TableRouter):
        flat = router.dist.astype(np.int64).ravel().tolist()
    else:
        dist = router.distance
        flat = [dist(u, t) for u in range(n) for t in range(n)]
    try:
        _DIST_TABLES[router] = flat
    except TypeError:
        pass
    return flat


def _draw_injections(
    topo: Topology, pattern: TrafficPattern, rng: np.random.Generator,
    rate: float, horizon: int,
) -> tuple[list[int], list[int], list[int]]:
    """Open-loop Poisson injections, in the reference's RNG draw order.

    Per endpoint, inter-arrival and destination draws interleave until the
    horizon; self-addressed draws are consumed and skipped exactly as the
    reference skips them.  Returns the ``(src, dest, birth)`` router and
    cycle lists in injection order, which is the packet id order.
    """
    src_l: list[int] = []
    dest_l: list[int] = []
    birth_l: list[int] = []
    if rate <= 0:
        return src_l, dest_l, birth_l
    with obs.span("sim.packet.inject"):
        er = topo.endpoint_router.tolist()
        exponential = rng.exponential
        scale = 1.0 / rate
        # The uniform pattern's draw is one bounded `rng.integers` call;
        # inlining it skips a Python method call per packet while consuming
        # the identical RNG stream.  Exact-type check so subclass overrides
        # keep the virtual call.
        if type(pattern) is UniformRandomPattern:
            integers = rng.integers
            ne1 = topo.num_endpoints - 1
            # The off-by-one remap never lands on ``e`` itself, so the
            # self-destination check is statically dead here.
            for e in range(topo.num_endpoints):
                src_r = er[e]
                t = exponential(scale)
                while t < horizon:
                    d = int(integers(0, ne1))
                    dest_e = d if d < e else d + 1
                    birth = int(t)
                    t += exponential(scale)
                    dest_r = er[dest_e]
                    if dest_r == src_r:
                        continue
                    src_l.append(src_r)
                    dest_l.append(dest_r)
                    birth_l.append(birth)
        else:
            pattern_dest = pattern.dest_endpoint
            for e in range(topo.num_endpoints):
                src_r = er[e]
                t = exponential(scale)
                while t < horizon:
                    dest_e = pattern_dest(e, rng)
                    birth = int(t)
                    t += exponential(scale)
                    if dest_e == e:
                        continue
                    dest_r = er[dest_e]
                    if dest_r == src_r:
                        continue
                    src_l.append(src_r)
                    dest_l.append(dest_r)
                    birth_l.append(birth)
    return src_l, dest_l, birth_l


def _record_sends(arrays, pids, vcs, lids, ends_v) -> None:
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


class PacketSimulator(ReferencePacketSimulator):
    """One run of (topology, router policy, traffic pattern) at fixed load.

    ``engine`` selects the execution strategy: ``"soa"`` (default) runs the
    fast loops of this module; ``"reference"`` runs the pinned scalar
    event-heap loop.  Both produce byte-identical
    :class:`~repro.sim.packet.reference.PacketSimResult` values on the same
    seeded inputs — the reference engine exists as the parity baseline of
    the tests, perfbench's packet oracle and CI's ``perf-smoke`` floor.
    """

    def __init__(
        self,
        topology: Topology,
        router: Router,
        pattern: TrafficPattern,
        config: PacketSimConfig | None = None,
        adaptive: bool = False,
        metrics: MetricsRegistry | None = None,
        faults: FaultSchedule | None = None,
        engine: str = "soa",
    ):
        if engine not in ("soa", "reference"):
            raise ValueError(f"unknown packet engine {engine!r}")
        super().__init__(topology, router, pattern, config, adaptive, metrics, faults)
        self.engine = engine
        # Reference `_nh_cache` hit/miss parity for the table-backed loops:
        # one byte per flattened (router, target) pair, set on its first
        # lookup.  Persists across fault-free runs like the reference memo;
        # fault-aware runs use a per-run dict memo instead.
        self._pair_seen: bytearray | None = None

    def run(self, load: float) -> PacketSimResult:
        if self.engine == "reference":
            return super().run(load)
        self._check_load(load)
        if self.health is None and not self.adaptive:
            return self._run_pure(load)
        return self._run_soa(load)

    # -- pure mode: fault-free, non-adaptive ------------------------------

    def _run_pure(self, load: float) -> PacketSimResult:
        """Precomputed-route engine for fault-free minimal routing.

        Without faults or UGAL, ``next_hop`` is history-free, so every
        packet's whole path is known at injection time.  The engine
        resolves all routes in a few table gathers up front (one column of
        fancy indexing per hop level) and flattens three per-(packet, hop)
        tables — outgoing link id, credit index ``lid*V + vc``, and the
        ``(router, dest)`` memo key.  A packet in flight is then just an
        integer code ``pid * stride + hop``: the event loop advances codes
        through cycle buckets doing timing-only work (credits, FIFO
        dispatch, wake scheduling) with no routing computation and no
        per-cycle NumPy at all.  Event order, credit interleave, RNG
        stream, and metric tallies are byte-identical to the reference
        (same rules as :meth:`_run_soa`; see the module docstring).
        """
        cfg = self.cfg
        topo = self.topology
        rng = np.random.default_rng(cfg.seed)
        horizon = cfg.warmup_cycles + cfg.measure_cycles
        end_time = horizon + cfg.drain_cycles
        warm = cfg.warmup_cycles
        n = topo.num_routers

        reg = self.metrics if self.metrics is not None else obs.get_registry()
        obs_on = reg.enabled
        vc_cap_sends = 0
        max_hops_seen = 0
        nh_hits = 0
        nh_misses = 0
        depths: list[int] = []
        if obs_on:
            qdepth = reg.histogram(
                "sim.packet.queue_depth",
                help="output-queue depth observed at each packet enqueue",
                bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128),
            )

        from repro.routing.table import next_hop_table

        nh_tab = next_hop_table(self.router)
        lid_tab = build_link_id_table(n, self.link_id)
        # Reference `_nh_cache` hit/miss parity: first touch of a (router,
        # dest) pair is a miss, later touches hits; persists across runs on
        # the same simulator exactly like the reference memo dict.  The
        # tally only feeds the sim.packet.nexthop_cache metric pair, so it
        # is maintained only while observability is on — the routing answers
        # themselves come from the precomputed tables either way.
        if obs_on:
            if self._pair_seen is None:
                self._pair_seen = bytearray(n * n)
            seen = self._pair_seen
        else:
            seen = None

        # ---- open-loop injections (scalar loop: RNG draw-order parity) ----
        src_l, dest_l, birth_l = _draw_injections(
            topo, self.pattern, rng, load / cfg.packet_size, horizon
        )
        npkt = len(birth_l)
        injected_measured = 0
        # Eager empty lists with slack past end_time: every push in the hot
        # loop is then a bare ``buckets[t].append(...)`` with no horizon
        # bound check.  The main loop never consumes the slack slots, which
        # is observably the same as the reference dropping those pushes —
        # except that the parked sends still claimed the wire, so the
        # busy-time reconstruction below counts the slack slots too.
        slack = cfg.router_latency + cfg.packet_size + cfg.link_latency + 1
        arr_buckets: list = [[] for _ in range(end_time + slack + 1)]
        wake_buckets: list = [[] for _ in range(end_time + slack + 1)]

        # ---- whole-route precompute (one gather column per hop level) -----
        V = cfg.num_vcs
        vmax = V - 1
        if npkt:
            srcs = np.asarray(src_l, dtype=np.int64)
            dests = np.asarray(dest_l, dtype=np.int64)
            births = np.asarray(birth_l, dtype=np.int64)
            injected_measured = int(
                np.count_nonzero((births >= warm) & (births < horizon))
            )
            cols_lid = []
            cols_ci = []
            cols_key = []
            cur = srcs
            h = 0
            while True:
                done = cur == dests
                nxt = np.where(done, cur, nh_tab[cur, dests])
                lid_col = np.where(done, -1, lid_tab[cur, nxt]).astype(np.int64)
                nvc = h + 1 if h + 1 < vmax else vmax
                cols_lid.append(lid_col)
                cols_ci.append(lid_col * V + nvc)
                if obs_on:
                    cols_key.append(cur * n + dests)
                if bool(done.all()):
                    break
                cur = nxt
                h += 1
                if h > cfg.ttl_hops:
                    raise RuntimeError(
                        "packet route did not reach its destination within "
                        f"ttl_hops={cfg.ttl_hops}; the next-hop table has an "
                        "unreachable or cyclic pair"
                    )
            # The flat code layout is ``pid * stride + hop`` with
            # ``stride == ncols`` exactly: the loop above always appends a
            # final all-done column (every entry -1), so every route ends
            # with a -1 slot and no padding is needed.  Hop/pid extraction
            # (``% stride`` / ``// stride``) only happens in the deferred
            # vectorized pass and the obs-gated VC-cap tally, so a pow2
            # stride would only inflate the tables.
            ncols = len(cols_lid)
            stride = ncols
            lid_mat = np.stack(cols_lid, axis=1)
            ci_mat = np.stack(cols_ci, axis=1)
            lid_flat = lid_mat.ravel()
            lid_route = lid_flat.tolist()
            ci_route = ci_mat.ravel().tolist()
            # Release tables: the send of hop ``h`` frees the upstream
            # (hop ``h-1``) buffer — in the flat ``pid * stride + hop``
            # layout that is exactly the previous slot, so a one-slot
            # shift of the flat tables bakes "which credit to release"
            # into a single lookup; ``rel_il[code] < 0`` marks hop 0
            # (nothing to release).  The shift is valid at ``hop == 0``
            # too: slot ``code - 1`` is the previous row's last column,
            # which is always -1 (either fill, or the all-done column the
            # gather loop ends on).
            rel_il = [-1]
            rel_il.extend(lid_route[:-1])
            rel_ci = [0]
            rel_ci.extend(ci_route[:-1])
            if obs_on:
                key_flat = np.stack(cols_key, axis=1).ravel()
            else:
                key_flat = None
            # Seed the buckets with hop-0 codes.  The injection loop runs
            # in (endpoint, time) order, so pids ascend within any one
            # birth cycle — a stable argsort of the births therefore
            # reproduces the reference's per-cycle injection order
            # exactly, and the whole fill is one sort + one tolist
            # instead of a per-packet bucket append.
            order = np.argsort(births, kind="stable")
            codes0 = (order * stride).tolist()
            counts = np.bincount(births).tolist()
            o = 0
            for bt, c in enumerate(counts):
                if c:
                    nxt_o = o + c
                    arr_buckets[bt] = codes0[o:nxt_o]
                    o = nxt_o
        else:
            stride = 2
            lid_flat = None
            key_flat = None
            lid_route = []
            ci_route = []
            rel_il = []
            rel_ci = []

        # ---- link state (bare lists; no faults, so serialization is the
        # constant packet size and the LinkState health mirrors are skipped)
        m = len(self.ends)
        RL = cfg.router_latency
        LL = cfg.link_latency
        PS = cfg.packet_size
        link_free = [0] * m
        credits = [cfg.buffer_packets] * (m * V)
        waiting: list[list[int]] = [[] for _ in range(m)]
        wake_scheduled = [False] * m
        # Scan-failure cache.  Every element of queue L needs a credit of
        # link L (ci encodes (L, vc)), and those credits only grow at the
        # release sites below — so once a dispatch scan fails, re-scanning
        # is provably futile until a release clears the flag or an
        # eligible packet joins the queue.  blocked[L] == True guarantees
        # every element currently in waiting[L] is credit-ineligible;
        # False promises nothing (the scan must run to find out).
        blocked = [False] * m

        def try_dispatch_pure(
            lid: int,
            now: int,
            # Hot-loop state bound as defaults: locals beat closure cells.
            waiting=waiting,
            link_free=link_free,
            credits=credits,
            ci_route=ci_route,
            rel_il=rel_il,
            rel_ci=rel_ci,
            blocked=blocked,
            wake_scheduled=wake_scheduled,
            wake_buckets=wake_buckets,
            arr_buckets=arr_buckets,
            PS=PS,
            LL=LL,
            stride=stride,
            vmax=vmax,
            obs_on=obs_on,
        ) -> None:
            """Reference `try_dispatch` clone over route codes (FIFO with
            VC lookahead, wake scheduling; no faults in this mode)."""
            nonlocal vc_cap_sends
            q = waiting[lid]
            while q and link_free[lid] <= now:
                sent = False
                for i, code in enumerate(q):
                    ci = ci_route[code]
                    if credits[ci] > 0:
                        del q[i]
                        credits[ci] -= 1
                        il = rel_il[code]
                        if il >= 0:  # leaves a router: release upstream
                            blocked[il] = False
                            credits[rel_ci[code]] += 1
                            if waiting[il] and not wake_scheduled[il]:
                                wake_scheduled[il] = True
                                t = link_free[il]
                                if t < now:
                                    t = now
                                wake_buckets[t].append(il)
                        nf = now + PS
                        link_free[lid] = nf
                        if obs_on and code % stride >= vmax:
                            vc_cap_sends += 1
                        arr_buckets[nf + LL].append(code + 1)
                        sent = True
                        break
                if not sent:
                    blocked[lid] = True
                    return
            if q and not wake_scheduled[lid]:
                wake_scheduled[lid] = True
                wake_buckets[link_free[lid]].append(lid)

        # ---- main loop: arrivals then wakes, cycle by cycle ---------------
        with obs.span("sim.packet.events"):
            for now in range(end_time + 1):
                al = arr_buckets[now]
                if al:
                    now_rl = now + RL
                    for code in al:
                        lid = lid_route[code]
                        if lid >= 0:
                            # Live hop: send inline or enqueue.  (The memo
                            # tally is recovered from the consumed buckets
                            # after the loop — see below.)
                            q = waiting[lid]
                            if not q and link_free[lid] <= now_rl:
                                ci = ci_route[code]
                                if credits[ci] > 0:
                                    credits[ci] -= 1
                                    il = rel_il[code]
                                    if il >= 0:
                                        blocked[il] = False
                                        credits[rel_ci[code]] += 1
                                        if waiting[il] and not wake_scheduled[il]:
                                            wake_scheduled[il] = True
                                            t = link_free[il]
                                            if t < now_rl:
                                                t = now_rl
                                            wake_buckets[t].append(il)
                                    nf = now_rl + PS
                                    link_free[lid] = nf
                                    if obs_on:
                                        depths.append(1)
                                        if code % stride >= vmax:
                                            vc_cap_sends += 1
                                    arr_buckets[nf + LL].append(code + 1)
                                else:
                                    # Free link but no credit: a sole-element
                                    # dispatch scan would fail (the release
                                    # wake revives it), so just enqueue and
                                    # record the failure.
                                    q.append(code)
                                    blocked[lid] = True
                                    if obs_on:
                                        depths.append(1)
                            else:
                                q.append(code)
                                if obs_on:
                                    depths.append(len(q))
                                lf = link_free[lid]
                                if lf <= now_rl:
                                    if not blocked[lid]:
                                        # Head dispatch inline (the common
                                        # scan outcome); fall back to the
                                        # full VC-lookahead scan otherwise.
                                        head = q[0]
                                        hci = ci_route[head]
                                        if credits[hci] > 0:
                                            del q[0]
                                            credits[hci] -= 1
                                            il = rel_il[head]
                                            if il >= 0:
                                                blocked[il] = False
                                                credits[rel_ci[head]] += 1
                                                if (
                                                    waiting[il]
                                                    and not wake_scheduled[il]
                                                ):
                                                    wake_scheduled[il] = True
                                                    t = link_free[il]
                                                    if t < now_rl:
                                                        t = now_rl
                                                    wake_buckets[t].append(il)
                                            nf = now_rl + PS
                                            link_free[lid] = nf
                                            if (
                                                obs_on
                                                and head % stride >= vmax
                                            ):
                                                vc_cap_sends += 1
                                            arr_buckets[nf + LL].append(head + 1)
                                            if q and not wake_scheduled[lid]:
                                                wake_scheduled[lid] = True
                                                wake_buckets[nf].append(lid)
                                        else:
                                            try_dispatch_pure(lid, now_rl)
                                    elif credits[ci_route[code]] > 0:
                                        # Everything ahead is provably
                                        # credit-blocked, so the reference
                                        # scan would send exactly this new
                                        # tail element.
                                        del q[-1]
                                        credits[ci_route[code]] -= 1
                                        il = rel_il[code]
                                        if il >= 0:
                                            blocked[il] = False
                                            credits[rel_ci[code]] += 1
                                            if (
                                                waiting[il]
                                                and not wake_scheduled[il]
                                            ):
                                                wake_scheduled[il] = True
                                                t = link_free[il]
                                                if t < now_rl:
                                                    t = now_rl
                                                wake_buckets[t].append(il)
                                        nf = now_rl + PS
                                        link_free[lid] = nf
                                        if obs_on and code % stride >= vmax:
                                            vc_cap_sends += 1
                                        arr_buckets[nf + LL].append(code + 1)
                                        if q and not wake_scheduled[lid]:
                                            wake_scheduled[lid] = True
                                            wake_buckets[nf].append(lid)
                                    # else: still blocked — the reference
                                    # scan would fail without arming a wake.
                                else:
                                    if blocked[lid] and credits[ci_route[code]] > 0:
                                        # An eligible packet parked behind
                                        # the blocked set while the link is
                                        # busy: the next scan can succeed.
                                        blocked[lid] = False
                                    if not wake_scheduled[lid]:
                                        wake_scheduled[lid] = True
                                        wake_buckets[lf].append(lid)
                        else:
                            # Delivered: ejection frees the buffer.  A
                            # delivery is always at hop >= 1, so the
                            # release tables are valid unconditionally.
                            # Latency / hop accounting is deferred to the
                            # vectorized pass below — the delivery cycle
                            # is just this code's bucket index.
                            credits[rel_ci[code]] += 1
                            il = rel_il[code]
                            blocked[il] = False
                            if waiting[il] and not wake_scheduled[il]:
                                wake_scheduled[il] = True
                                t = link_free[il]
                                if t < now:
                                    t = now
                                wake_buckets[t].append(il)
                wl = wake_buckets[now]
                if wl:
                    # Same-cycle wake arms append to wl while this loop
                    # runs; the index-based list iterator picks them up in
                    # push order, matching the reference heap.
                    for lid in wl:
                        wake_scheduled[lid] = False
                        # Inline head dispatch: the dominant wake outcome is
                        # "send the queue head" — handle it without the
                        # generic scan, falling back for VC lookahead.
                        q = waiting[lid]
                        if not q:
                            continue
                        lf = link_free[lid]
                        if lf > now:
                            # The link was re-claimed since this wake was
                            # set: re-arm at the new link_free (tail rule).
                            wake_scheduled[lid] = True
                            wake_buckets[lf].append(lid)
                            continue
                        if blocked[lid]:
                            # The scan provably fails (no release since the
                            # last failure): the reference would scan, fail,
                            # and arm nothing — same end state.
                            continue
                        code = q[0]
                        ci = ci_route[code]
                        if credits[ci] > 0:
                            del q[0]
                            credits[ci] -= 1
                            il = rel_il[code]
                            if il >= 0:
                                blocked[il] = False
                                credits[rel_ci[code]] += 1
                                if waiting[il] and not wake_scheduled[il]:
                                    wake_scheduled[il] = True
                                    t = link_free[il]
                                    if t < now:
                                        t = now
                                    wake_buckets[t].append(il)
                            nf = now + PS
                            link_free[lid] = nf
                            if obs_on and code % stride >= vmax:
                                vc_cap_sends += 1
                            arr_buckets[nf + LL].append(code + 1)
                            if q:  # more waiting: re-arm at new link_free
                                wake_scheduled[lid] = True
                                wake_buckets[nf].append(lid)
                            continue
                        try_dispatch_pure(lid, now)

        # ---- deferred accounting (vectorized) -----------------------------
        # The buckets up to end_time hold exactly the codes the loop
        # consumed; the slack slots hold sends the reference would have
        # dropped on push.  Every send pushed one arrival code whose
        # ``rel_il`` is the link it went out on (hop-0 injection codes sit
        # at -1), so per-link busy time is a single bincount over all
        # bucket codes — dropped-push sends included, since they claimed
        # the wire before the horizon cut them off.  Delivery accounting
        # (latency, hops, measured count) is likewise recovered here: a
        # delivered code's ejection cycle is its bucket index, rebuilt
        # with one ``np.repeat`` over per-bucket lengths.
        link_busy_arr = np.zeros(m, dtype=np.int64)
        latencies = np.zeros(0, dtype=np.int64)
        hop_total = 0
        delivered_measured = 0
        if npkt:
            from itertools import chain

            nbuckets = end_time + 1
            lens = np.fromiter(
                map(len, arr_buckets[:nbuckets]), dtype=np.int64, count=nbuckets
            )
            ncodes = int(lens.sum())
            codes = np.fromiter(
                chain.from_iterable(arr_buckets[:nbuckets]),
                dtype=np.int64,
                count=ncodes,
            )
            late = [
                np.asarray(b, dtype=np.int64)
                for b in arr_buckets[nbuckets:]
                if b
            ]
            sent_codes = np.concatenate([codes, *late]) if late else codes
            if sent_codes.size:
                rel_np = np.empty_like(lid_flat)
                rel_np[0] = -1
                rel_np[1:] = lid_flat[:-1]
                out_links = rel_np[sent_codes]
                out_links = out_links[out_links >= 0]
                if out_links.size:
                    link_busy_arr = np.bincount(out_links, minlength=m) * PS
            if codes.size:
                lids = lid_flat[codes]
                dmask = lids < 0
                dcodes = codes[dmask]
                if dcodes.size:
                    times = np.repeat(
                        np.arange(nbuckets, dtype=np.int64), lens
                    )
                    dtimes = times[dmask]
                    bb = births[dcodes // stride]
                    in_win = (bb >= warm) & (bb < horizon)
                    latencies = dtimes[in_win] - bb[in_win]
                    hop_total = int((dcodes[in_win] % stride).sum())
                    delivered_measured = int(np.count_nonzero(in_win))
                # The reference memo counts one miss per first touch of a
                # (router, dest) key and a hit per later touch; the split
                # only depends on which keys were touched, not when, so it
                # is recoverable from the consumed codes after the fact —
                # one concatenate + unique instead of per-arrival
                # bookkeeping.
                if obs_on:
                    live = codes[~dmask]
                    if live.size:
                        keys = key_flat[live]
                        seen_np = np.frombuffer(seen, dtype=np.uint8)
                        uniq = np.unique(keys)
                        new = uniq[seen_np[uniq] == 0]
                        nh_misses += int(new.size)
                        nh_hits += int(keys.size) - int(new.size)
                        seen_np[new] = 1
                    if dcodes.size:
                        mh = int((dcodes % stride).max())
                        if mh > max_hops_seen:
                            max_hops_seen = mh

        # ---- flush + result (identical arithmetic to the reference) -------
        if obs_on:
            qdepth.observe_many(depths)
            self._flush_metrics(
                reg,
                link_busy=link_busy_arr,
                latencies=latencies,
                injected=injected_measured,
                delivered=delivered_measured,
                ugal=(0, 0),
                vc_cap_sends=vc_cap_sends,
                max_hops=max_hops_seen,
                nh_delta=(nh_hits, nh_misses),
                horizon=horizon,
                faults=None,
            )

        return self._result(
            load, latencies, hop_total, delivered_measured, injected_measured,
            link_busy_arr,
        )

    # -- per-arrival mode: UGAL and fault-aware runs ----------------------

    def _run_soa(self, load: float) -> PacketSimResult:
        """Per-arrival engine for UGAL and fault-aware runs.

        Routing here depends on history: UGAL weighs live queue occupancy
        and draws from the run's RNG, and a fault-aware router's answers
        follow the health mask while its ladder tallies every decision.  So
        each arrival is routed when it happens, in the reference's event
        order.  Packet fields are gathered once per cycle from the NumPy
        columns of :class:`~.state.PacketArrays`, link state lives in the
        :class:`~.state.LinkState` list mirrors, and each cycle's send
        effects are scattered back by :func:`_record_sends`.
        """
        cfg = self.cfg
        topo = self.topology
        rng = np.random.default_rng(cfg.seed)
        horizon = cfg.warmup_cycles + cfg.measure_cycles
        end_time = horizon + cfg.drain_cycles
        warm = cfg.warmup_cycles
        n = topo.num_routers

        reg = self.metrics if self.metrics is not None else obs.get_registry()
        obs_on = reg.enabled
        ugal_minimal = 0
        ugal_nonminimal = 0
        vc_cap_sends = 0
        max_hops_seen = 0
        nh_hits = 0
        nh_misses = 0
        depths: list[int] = []
        if obs_on:
            qdepth = reg.histogram(
                "sim.packet.queue_depth",
                help="output-queue depth observed at each packet enqueue",
                bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128),
            )

        # ---- fault state ---------------------------------------------------
        health = self.health
        faults_on = health is not None
        adaptive = self.adaptive
        if faults_on and self.faults is not None:
            health.reset()
        reroutes = 0
        dropped_measured = 0
        drop_causes: dict[str, int] = {}
        applied_events: dict[str, int] = {}
        nh_memo: dict[tuple[int, int], int] = {}
        if faults_on:
            rungs0 = dict(self.router.rung_counts)
            eager0, lazy0 = self.router.recompute_eager, self.router.recompute_lazy
            batches0 = len(self.router.recompute_batches)

        # ---- routing tables (fault-free runs) -----------------------------
        # Fault-free runs read next hops, distances and link ids from dense
        # tables and keep the reference memo's hit/miss accounting in the
        # persistent `_pair_seen` mirror.  Fault-aware runs route every
        # decision through the FaultAwareRouter behind `nh_memo`, a per-run
        # dict cleared per fault event, as the reference does.
        nh_flat: list[int] | None = None
        dist_flat: list[int] | None = None
        lid_flat: list[int] | None = None
        pair_seen: bytearray | None = None
        if not faults_on:
            from repro.routing.table import next_hop_table

            nh_flat = next_hop_table(self.router).ravel().tolist()
            dist_flat = _distance_table(self.router)
            lid_flat = build_link_id_table(n, self.link_id).ravel().tolist()
            if self._pair_seen is None:
                self._pair_seen = bytearray(n * n)
            pair_seen = self._pair_seen

        # ---- pre-generated open-loop injections (scalar: RNG parity) ------
        src_l, dest_l, birth_l = _draw_injections(
            topo, self.pattern, rng, load / cfg.packet_size, horizon
        )
        injected_measured = sum(1 for b in birth_l if warm <= b < horizon)
        # One list per cycle; pushes past end_time are dropped at the push
        # site, as the reference never pops them.
        arr_buckets: list[list[int]] = [[] for _ in range(end_time + 1)]
        wake_buckets: list[list[int]] = [[] for _ in range(end_time + 1)]
        for pid, birth in enumerate(birth_l):
            arr_buckets[birth].append(pid)
        fault_lists: dict[int, list] = {}
        if self.faults is not None:
            for ev in self.faults:
                if ev.time <= end_time:
                    fault_lists.setdefault(ev.time, []).append(ev)
        arrays = PacketArrays(src_l, dest_l, birth_l)

        # ---- link state (hot Python-list mirrors) -------------------------
        links = LinkState(self.ends, cfg.packet_size, cfg.num_vcs, cfg.buffer_packets)
        if faults_on:
            links.refresh_health(cfg.packet_size, health)
        V = cfg.num_vcs
        vmax = V - 1
        RL = cfg.router_latency
        LL = cfg.link_latency
        esc_timeout = cfg.escape_timeout
        ttl_hops = cfg.ttl_hops
        max_retries = cfg.max_retries
        ends = self.ends
        ends_v = links.ends_v
        ends_v_arr = np.asarray(ends_v, dtype=np.int64)
        link_free = links.link_free
        link_busy = links.link_busy
        link_ok = links.link_ok
        link_ser = links.link_ser
        credits = links.credits
        waiting = links.waiting
        wake_scheduled = links.wake_scheduled
        escape_at = links.escape_at
        pkt_router = arrays.router
        pkt_dest = arrays.dest
        pkt_inter = arrays.intermediate
        pkt_birth = arrays.birth
        pkt_vc = arrays.vc
        pkt_in_link = arrays.in_link
        pkt_hops = arrays.hops
        pkt_retries = arrays.retries
        pkt_src = arrays.src

        latencies: list[int] = []
        hop_total = 0
        delivered_measured = 0

        # Buffered send effects, flushed by _record_sends per cycle
        # (fields are disjoint from same-cycle enqueue writes, and a packet
        # sends at most once per cycle, so the scatter is exact).
        w_pid: list[int] = []
        w_vc: list[int] = []
        w_lid: list[int] = []

        # ---- scalar helpers (faults, UGAL, dispatch interleave) -----------

        def next_hop_memo(u: int, t: int) -> int:
            """Reference `_next_hop` clone for fault-aware routing: dict
            memo over the fault-aware router, miss counted even when the
            lookup raises."""
            nonlocal nh_hits, nh_misses
            key = (u, t)
            hop = nh_memo.get(key)
            if hop is None:
                nh_misses += 1
                hop = self.router.next_hop(u, t)
                nh_memo[key] = hop
            else:
                nh_hits += 1
            return hop

        def next_hop_table_scalar(u: int, t: int) -> int:
            """Fault-free lookup: dense-table read with the memo's hit/miss
            accounting semantics."""
            nonlocal nh_hits, nh_misses
            k = u * n + t
            if pair_seen[k]:
                nh_hits += 1
            else:
                nh_misses += 1
                pair_seen[k] = 1
            return nh_flat[k]

        def route_next_scalar(p: int, rr: int, inter: int, dst: int,
                              exclude: tuple[int, ...] = ()) -> tuple[int, int]:
            """Reference `route_next` clone; returns (next_hop, intermediate)
            with the midpoint-degradation retry applied to the arrays."""
            while True:
                target = inter if inter >= 0 else dst
                try:
                    if exclude:
                        return (
                            self.router.route_hops(rr, target, exclude)[0][0],
                            inter,
                        )
                    return next_hop_memo(rr, target), inter
                except RouteUnavailableError:
                    if inter < 0:
                        raise
                    inter = -1
                    pkt_inter[p] = -1

        def drop_entry(p: int, vc: int, il: int, cause: str, now: int) -> None:
            """Reference `drop` clone: free the held slot, account the loss."""
            nonlocal dropped_measured
            if il >= 0:
                credits[il * V + vc] += 1
                if waiting[il] and not wake_scheduled[il]:
                    wake_scheduled[il] = True
                    t = link_free[il]
                    if t < now:
                        t = now
                    if t <= end_time:
                        wake_buckets[t].append(il)
            b = int(pkt_birth[p])
            if warm <= b < horizon:
                dropped_measured += 1
                drop_causes[cause] = drop_causes.get(cause, 0) + 1

        def reroute_entry(entry: tuple[int, int, int, int], blocked: int,
                          now: int) -> None:
            """Reference `reroute` clone for a displaced waiting-queue entry."""
            nonlocal reroutes
            p, vc, il = entry[0], entry[1], entry[2]
            rr = int(pkt_router[p])
            if not health.node_up(rr):
                drop_entry(p, vc, il, "node_down", now)
                return
            retr = int(pkt_retries[p]) + 1
            pkt_retries[p] = retr
            if retr > max_retries:
                drop_entry(p, vc, il, "retries", now)
                return
            reroutes += 1
            try:
                nxt, _ = route_next_scalar(
                    p, rr, int(pkt_inter[p]), int(pkt_dest[p]), exclude=(blocked,)
                )
            except RouteUnavailableError:
                drop_entry(p, vc, il, "unreachable", now)
                return
            lid = self.link_id[(rr, nxt)]
            q = waiting[lid]
            q.append((p, vc, il, now))
            if obs_on:
                depths.append(len(q))
            try_dispatch(lid, now + RL)

        def try_dispatch(lid: int, now: int) -> None:
            """Reference `try_dispatch` clone over the list mirrors (FIFO
            with VC lookahead, escape timeout, wake scheduling)."""
            nonlocal vc_cap_sends
            if faults_on and not link_ok[lid]:
                return
            q = waiting[lid]
            while q and link_free[lid] <= now:
                sent = False
                for i in range(len(q)):
                    entry = q[i]
                    wvc = entry[1]
                    nvc = wvc + 1
                    if nvc > vmax:
                        nvc = vmax
                    ci = lid * V + nvc
                    if credits[ci] > 0:
                        del q[i]
                        credits[ci] -= 1
                        wil = entry[2]
                        if wil >= 0:  # leaves the current router: release
                            credits[wil * V + wvc] += 1
                            if waiting[wil] and not wake_scheduled[wil]:
                                wake_scheduled[wil] = True
                                t = link_free[wil]
                                if t < now:
                                    t = now
                                if t <= end_time:
                                    wake_buckets[t].append(wil)
                        ser = link_ser[lid]
                        link_free[lid] = now + ser
                        link_busy[lid] += ser
                        if obs_on and wvc >= vmax:
                            vc_cap_sends += 1
                        arrive = now + ser + LL
                        p = entry[0]
                        w_pid.append(p)
                        w_vc.append(nvc)
                        w_lid.append(lid)
                        if arrive <= end_time:
                            arr_buckets[arrive].append(p)
                        sent = True
                        break
                if not sent:
                    if faults_on and q:
                        head_wait = now - q[0][3]
                        if head_wait >= esc_timeout:
                            head = q.pop(0)
                            reroute_entry(head, ends_v[lid], now)
                            continue
                        if escape_at[lid] <= now:
                            when = now + esc_timeout - head_wait
                            escape_at[lid] = when
                            if when <= end_time:
                                wake_buckets[when].append(lid)
                    return
            if q and not wake_scheduled[lid]:
                wake_scheduled[lid] = True
                t = link_free[lid]
                if t <= end_time:
                    wake_buckets[t].append(lid)

        def choose_route_scalar(p: int, src: int, dst: int) -> int:
            """Reference `choose_route` clone (UGAL-L at injection); returns
            the chosen intermediate and tallies the decision."""
            nonlocal ugal_minimal, ugal_nonminimal
            if faults_on:
                min_next = next_hop_memo(src, dst)
                d0 = self.router.distance(src, dst)
            else:
                min_next = next_hop_table_scalar(src, dst)
                d0 = dist_flat[src * n + dst]
            if faults_on:
                occ0 = float(len(waiting[self.link_id[(src, min_next)]]))
            else:
                occ0 = float(len(waiting[lid_flat[src * n + min_next]]))
            best_cost = d0 * (1.0 + occ0)
            best_mid = -1
            for _ in range(cfg.ugal_samples):
                mid = int(rng.integers(0, n))
                if mid == src or mid == dst:
                    continue
                if faults_on:
                    hops = self.router.distance(src, mid) + self.router.distance(
                        mid, dst
                    )
                else:
                    hops = dist_flat[src * n + mid] + dist_flat[mid * n + dst]
                if hops >= UNREACHABLE:
                    continue
                if faults_on:
                    occ = float(len(waiting[self.link_id[(src, next_hop_memo(src, mid))]]))
                else:
                    occ = float(
                        len(waiting[lid_flat[src * n + next_hop_table_scalar(src, mid)]])
                    )
                cost = hops * (1.0 + occ)
                if cost < best_cost:
                    best_cost, best_mid = cost, mid
            pkt_inter[p] = best_mid
            if best_mid < 0:
                ugal_minimal += 1
            else:
                ugal_nonminimal += 1
            return best_mid

        def apply_fault(ev, now: int) -> None:
            """Reference `apply_fault` clone: mask update, memo invalidation,
            health mirror refresh, dead-queue displacement."""
            health.apply(ev)
            applied_events[ev.kind] = applied_events.get(ev.kind, 0) + 1
            nh_memo.clear()
            self.router.sync()
            links.refresh_health(cfg.packet_size, health)
            for lid in range(links.num_links):
                if link_ok[lid] or not waiting[lid]:
                    continue
                displaced = waiting[lid]
                waiting[lid] = []
                blocked = ends[lid][1]
                for entry in displaced:
                    reroute_entry(entry, blocked, now)

        # ---- main loop: faults, arrivals, wakes, cycle by cycle -----------
        try:
            with obs.span("sim.packet.events"):
                for now in range(end_time + 1):
                    if fault_lists:
                        evs = fault_lists.pop(now, None)
                        if evs is not None:
                            for ev in evs:
                                apply_fault(ev, now)
                    arr = arr_buckets[now]
                    if arr:
                        now_rl = now + RL
                        ids = np.asarray(arr, dtype=np.int64)
                        r_l = pkt_router[ids].tolist()
                        d_l = pkt_dest[ids].tolist()
                        inter_l = pkt_inter[ids].tolist()
                        vc_l = pkt_vc[ids].tolist()
                        il_l = pkt_in_link[ids].tolist()
                        b_l = pkt_birth[ids].tolist()
                        hops_l = pkt_hops[ids].tolist()
                        s_l = pkt_src[ids].tolist() if adaptive else None
                        for i in range(len(arr)):
                            p = arr[i]
                            rr = r_l[i]
                            il = il_l[i]
                            if faults_on and not health.node_up(rr):
                                drop_entry(p, vc_l[i], il, "node_down", now)
                                continue
                            inter = inter_l[i]
                            if il < 0 and adaptive and rr == s_l[i]:
                                if faults_on:
                                    try:
                                        inter = choose_route_scalar(p, rr, d_l[i])
                                    except RouteUnavailableError:
                                        drop_entry(p, vc_l[i], il, "unreachable", now)
                                        continue
                                else:
                                    inter = choose_route_scalar(p, rr, d_l[i])
                            if inter == rr:
                                inter = -1
                                pkt_inter[p] = -1
                            if rr == d_l[i]:
                                if il >= 0:  # ejection frees the buffer
                                    credits[il * V + vc_l[i]] += 1
                                    if waiting[il] and not wake_scheduled[il]:
                                        wake_scheduled[il] = True
                                        t = link_free[il]
                                        if t < now:
                                            t = now
                                        if t <= end_time:
                                            wake_buckets[t].append(il)
                                b = b_l[i]
                                if warm <= b < horizon:
                                    latencies.append(now - b)
                                    hop_total += hops_l[i]
                                    delivered_measured += 1
                                if obs_on and hops_l[i] > max_hops_seen:
                                    max_hops_seen = hops_l[i]
                                continue
                            if faults_on:
                                if hops_l[i] >= ttl_hops:
                                    drop_entry(p, vc_l[i], il, "ttl", now)
                                    continue
                                try:
                                    nxt, inter = route_next_scalar(
                                        p, rr, inter, d_l[i]
                                    )
                                except RouteUnavailableError:
                                    drop_entry(p, vc_l[i], il, "unreachable", now)
                                    continue
                                lid = self.link_id[(rr, nxt)]
                            else:
                                target = inter if inter >= 0 else d_l[i]
                                nxt = next_hop_table_scalar(rr, target)
                                lid = lid_flat[rr * n + nxt]
                            q = waiting[lid]
                            if (
                                not q
                                and link_free[lid] <= now_rl
                                and (not faults_on or link_ok[lid])
                            ):
                                vc = vc_l[i]
                                nvc = vc + 1
                                if nvc > vmax:
                                    nvc = vmax
                                ci = lid * V + nvc
                                if credits[ci] > 0:
                                    # inline send: empty queue, usable idle
                                    # link, credit in hand — identical to
                                    # enqueue + try_dispatch popping the
                                    # sole entry immediately
                                    credits[ci] -= 1
                                    if il >= 0:
                                        credits[il * V + vc] += 1
                                        if waiting[il] and not wake_scheduled[il]:
                                            wake_scheduled[il] = True
                                            t = link_free[il]
                                            if t < now_rl:
                                                t = now_rl
                                            if t <= end_time:
                                                wake_buckets[t].append(il)
                                    ser = link_ser[lid]
                                    link_free[lid] = now_rl + ser
                                    link_busy[lid] += ser
                                    if obs_on:
                                        depths.append(1)
                                        if vc >= vmax:
                                            vc_cap_sends += 1
                                    arrive = now_rl + ser + LL
                                    w_pid.append(p)
                                    w_vc.append(nvc)
                                    w_lid.append(lid)
                                    if arrive <= end_time:
                                        arr_buckets[arrive].append(p)
                                    continue
                            q.append((p, vc_l[i], il, now))
                            if obs_on:
                                depths.append(len(q))
                            if faults_on and not link_ok[lid]:
                                continue  # dead link: no dispatch, no wake
                            lf = link_free[lid]
                            if lf <= now_rl:
                                try_dispatch(lid, now_rl)
                            elif not wake_scheduled[lid]:
                                wake_scheduled[lid] = True
                                if lf <= end_time:
                                    wake_buckets[lf].append(lid)
                    # Same-cycle wake arms append to this cycle's list while the
                    # loop runs; the index-based list iterator picks them up in
                    # push order, matching the reference heap.
                    for lid in wake_buckets[now]:
                        wake_scheduled[lid] = False
                        try_dispatch(lid, now)
                    if w_pid:
                        _record_sends(arrays, w_pid, w_vc, w_lid, ends_v_arr)
                        w_pid.clear()
                        w_vc.clear()
                        w_lid.clear()
        finally:
            # try_dispatch and reroute_entry call each other; emptying
            # their cells breaks the closure cycle that would keep this
            # run's state alive until the next full collection.
            del try_dispatch, reroute_entry

        # ---- flush + result (identical arithmetic to the reference) -------
        link_busy_arr = links.busy_array()
        if obs_on:
            qdepth.observe_many(depths)
            faults_bundle = None
            if faults_on:
                faults_bundle = {
                    "links_down": health.links_down_count(),
                    "nodes_down": health.nodes_down_count(),
                    "events": applied_events,
                    "drop_causes": drop_causes,
                    "reroutes": reroutes,
                    "rungs": {
                        r: c - rungs0.get(r, 0)
                        for r, c in self.router.rung_counts.items()
                    },
                    "recompute_eager": self.router.recompute_eager - eager0,
                    "recompute_lazy": self.router.recompute_lazy - lazy0,
                    "recompute_batches": self.router.recompute_batches[batches0:],
                }
            self._flush_metrics(
                reg,
                link_busy=link_busy_arr,
                latencies=latencies,
                injected=injected_measured,
                delivered=delivered_measured,
                ugal=(ugal_minimal, ugal_nonminimal),
                vc_cap_sends=vc_cap_sends,
                max_hops=max_hops_seen,
                nh_delta=(nh_hits, nh_misses),
                horizon=horizon,
                faults=faults_bundle,
            )

        return self._result(
            load, latencies, hop_total, delivered_measured, injected_measured,
            link_busy_arr, dropped_measured, reroutes, drop_causes,
        )

    def _result(
        self, load: float, latencies, hop_total: int, delivered: int,
        injected: int, link_busy: np.ndarray, dropped: int = 0,
        reroutes: int = 0, drop_causes: dict[str, int] | None = None,
    ) -> PacketSimResult:
        """One run's statistics, with the reference's arithmetic.

        ``latencies`` holds the measured-window latencies in event order,
        as a list of ints or an ``int64`` array.
        """
        cfg = self.cfg
        horizon = cfg.warmup_cycles + cfg.measure_cycles
        measured = len(latencies) > 0
        return PacketSimResult(
            offered_load=load,
            avg_latency=float(np.mean(latencies)) if measured else float("inf"),
            p99_latency=(
                float(np.percentile(latencies, 99)) if measured else float("inf")
            ),
            throughput=(
                delivered
                * cfg.packet_size
                / max(self.topology.num_endpoints * cfg.measure_cycles, 1)
            ),
            delivered=delivered,
            injected=injected,
            stable=measured and delivered >= 0.85 * max(injected, 1),
            avg_hops=hop_total / delivered if delivered else 0.0,
            max_link_utilization=float(link_busy.max() / max(horizon, 1))
            if self.num_links
            else 0.0,
            delivered_fraction=delivered / injected if injected else 1.0,
            dropped=dropped,
            reroutes=reroutes,
            drop_causes=dict(sorted((drop_causes or {}).items())),
        )


def latency_load_sweep(
    topology: Topology,
    router: Router,
    pattern: TrafficPattern,
    loads,
    config: PacketSimConfig | None = None,
    adaptive: bool = False,
    faults: FaultSchedule | None = None,
    engine: str = "soa",
) -> list[PacketSimResult]:
    """Simulate increasing offered loads, stopping after the first unstable
    point (beyond it the network is saturated and latency diverges, §9.5)."""
    out = []
    for load in loads:
        sim = PacketSimulator(
            topology, router, pattern, config, adaptive, faults=faults, engine=engine
        )
        res = sim.run(float(load))
        out.append(res)
        if not res.stable:
            break
    return out
