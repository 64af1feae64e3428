"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro topology ps --radix 15          # build + report
    python -m repro topology df --a 12 --h 6
    python -m repro design-space 24                 # feasible configs
    python -m repro experiment fig01                # regenerate an artifact
    python -m repro experiment tab03 --metrics-out m.json
    python -m repro route --radix 15 --src 0 --dst 900
    python -m repro route --topology PS-IQ --pair 0 7 --pairs-file pairs.txt
    python -m repro serve start --topology PS-IQ --port 7070
    python -m repro serve chaos --topology PS-IQ --scale reduced --out chaos.json
    python -m repro sim --radix 7 --load 0.3 --adaptive --metrics-out m.json
    python -m repro sim --radix 7 --load 0.3 --fail-links 0.1
    python -m repro faults inject --fail-links 0.1 --fail-nodes 2
    python -m repro faults sweep --topo PS-IQ --out sweep.json
    python -m repro faults crashpoints --out crash-report.json
    python -m repro run fig14_dynamic --jobs 4 --timeout 120
    python -m repro run fig14_dynamic --jobs 4 --resume  # continue a run
    python -m repro run status                      # list run journals
    python -m repro obs summary m.json              # inspect an artifact
    python -m repro store ls                        # on-disk artifacts
    python -m repro store warm --topo DF --dist     # pre-build a topology
    python -m repro store gc --dry-run              # reclaim cache space

``experiment`` accepts any module name from :mod:`repro.experiments`
(fig01, fig04, fig07, fig09, fig10, fig11, fig12, fig13, fig14,
fig14_dynamic, tab01, tab02, tab03, eq12, sec08).  ``run`` executes a
trial-decomposed experiment (see ``repro.runtime.PLANNED_EXPERIMENTS``)
on the crash-safe supervised worker pool: ``--jobs N`` workers,
``--timeout S`` per-trial wall budget, checkpoint journal under the runs
directory (or ``--journal PATH``), and ``--resume`` to skip trials the
journal already has — an interrupted sweep continues where it stopped
and reproduces the uninterrupted artifact byte-for-byte.  ``run status``
lists every journal and its progress.  See ``docs/RUNTIME.md``.
``--metrics-out PATH`` (on ``experiment``, ``sim``, ``run``, and
``faults``) enables the :mod:`repro.obs` subsystem for the run and
writes the metrics + span-profile + manifest JSON artifact; ``obs
summary`` renders such an artifact for humans (see
``docs/OBSERVABILITY.md``).  ``faults`` runs fault-injected simulations
(see ``docs/FAULT_TOLERANCE.md``): ``inject`` for one scenario with
per-kind knobs, ``sweep`` for the fig14_dynamic delivered-fraction sweep
with a byte-deterministic ``--out`` JSON artifact, and ``crashpoints``
to simulate a power cut at every durability-relevant I/O operation of a
store-populate + journaled-sweep workload and verify the recovery
invariants (no corrupt artifact served, byte-identical resume, gc never
deletes live entries — the "Durability contract" in
``docs/ARCHITECTURE.md``).  ``store`` manages the content-addressed
artifact cache every construction flows through
(``docs/ARCHITECTURE.md``): ``ls`` lists on-disk entries, ``warm``
pre-builds topologies (and, with ``--dist``, their BFS distance tables)
so later runs skip construction, ``gc`` reclaims broken or excess
entries and reaps stray ``.tmp-*`` files older than ``--reap-tmp-age``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

__all__ = [
    "EXPERIMENTS",
    "build_parser",
    "main",
]

EXPERIMENTS = [
    "fig01",
    "fig04",
    "fig07",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig14_dynamic",
    "tab01",
    "tab02",
    "tab03",
    "eq12",
    "sec08",
]


def _cmd_topology(args) -> int:
    from repro import store

    if args.kind == "ps":
        topo = store.topology("polarstar", radix=args.radix, p=args.p)
    elif args.kind == "df":
        topo = store.topology("dragonfly", a=args.a, h=args.h, p=args.p)
    elif args.kind == "hx":
        try:
            dims = tuple(int(x) for x in args.dims.split("x"))
        except ValueError:
            raise SystemExit(
                f"invalid --dims {args.dims!r}: expected integers joined by "
                "'x', e.g. 9x9x8"
            )
        if min(dims) < 1:
            raise SystemExit(f"invalid --dims {args.dims!r}: every dimension must be positive")
        topo = store.topology("hyperx", dims=dims, p=args.p)
    else:
        raise SystemExit(f"unknown topology kind {args.kind!r}")

    g = topo.graph
    print(f"{topo.name}: {g.n} routers, {g.m} links, network radix "
          f"{topo.network_radix}, {topo.num_endpoints} endpoints")
    print(f"diameter: {store.diameter(g, sample=min(g.n, 64)):.0f}")
    if topo.groups is not None:
        print(f"groups: {topo.num_groups}")
    return 0


def _cmd_design_space(args) -> int:
    from repro.core.polarstar import design_space

    for cfg in design_space(args.radix):
        marker = " <- largest" if cfg == design_space(args.radix)[0] else ""
        print(f"{cfg.name:36s} {cfg.order:8d} routers{marker}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.common import obs_session

    if args.name not in EXPERIMENTS:
        raise SystemExit(f"unknown experiment {args.name!r}; options: {EXPERIMENTS}")
    mod = importlib.import_module(f"repro.experiments.{args.name}")
    with obs_session(args.metrics_out, experiment=args.name):
        result = mod.run()
    print(mod.format_figure(result))
    if args.metrics_out:
        print(f"\nmetrics written to {args.metrics_out}")
    return 0


def _packet_config(args):
    """The ``PacketSimConfig`` behind ``sim`` and ``faults inject``; a
    value it rejects exits with a one-line message."""
    from repro.sim.packet import PacketSimConfig

    try:
        return PacketSimConfig(
            warmup_cycles=args.warmup_cycles,
            measure_cycles=args.measure_cycles,
            drain_cycles=args.drain_cycles,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid packet-sim input: {exc}")


def _check_load(load: float) -> None:
    """Run the packet simulator's own load check before anything is
    built; a load it rejects exits with a one-line message."""
    from repro.sim.packet import PacketSimulator

    try:
        PacketSimulator._check_load(load)
    except ValueError as exc:
        raise SystemExit(f"invalid packet-sim input: {exc}")


def _cmd_sim(args) -> int:
    """Instrumented packet-sim run on a small PolarStar (smoke/CI workload)."""
    from repro import store
    from repro.experiments.common import obs_session
    from repro.sim.packet import PacketSimulator
    from repro.traffic import RandomPermutationPattern, UniformRandomPattern

    cfg = _packet_config(args)
    _check_load(args.load)
    topo = store.topology("polarstar", radix=args.radix, p=args.p)
    router = store.table_router(topo)
    if args.pattern == "uniform":
        pattern = UniformRandomPattern(topo)
    else:
        pattern = RandomPermutationPattern(topo, seed=args.seed)
    faults = _build_schedule(topo.graph, args)
    if not len(faults):
        faults = None
    with obs_session(
        args.metrics_out,
        seed=args.seed,
        config=cfg,
        topology=topo,
        load=args.load,
        pattern=args.pattern,
        adaptive=args.adaptive,
        faults=faults.summary() if faults is not None else None,
    ):
        sim = PacketSimulator(
            topo, router, pattern, cfg, adaptive=args.adaptive, faults=faults
        )
        res = sim.run(args.load)
    print(
        f"{topo.name}: load={res.offered_load:.2f} avg_lat={res.avg_latency:.1f} "
        f"p99={res.p99_latency:.1f} thr={res.throughput:.3f} "
        f"delivered={res.delivered}/{res.injected} stable={res.stable}"
    )
    if faults is not None:
        print(
            f"faults: {len(faults)} failed links, delivered fraction "
            f"{res.delivered_fraction:.3f}, dropped={res.dropped} "
            f"{res.drop_causes}, reroutes={res.reroutes}"
        )
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _build_schedule(graph, args):
    """Compose a FaultSchedule from a command's fault knobs.

    A knob the command lacks counts as 0.  Every non-zero knob (negative
    and NaN included) goes to its generator, which validates it; a value
    it rejects exits with a one-line message instead of a traceback.
    """
    from repro.faults import (
        FaultSchedule,
        degraded_links,
        link_flaps,
        node_failures,
        permanent_link_failures,
    )

    fault_time = getattr(args, "fault_time", 0)
    sched = FaultSchedule()
    try:
        if args.fail_links != 0:
            sched = sched + permanent_link_failures(
                graph, args.fail_links, seed=args.seed, time=fault_time
            )
        if getattr(args, "fail_nodes", 0) != 0:
            sched = sched + node_failures(
                graph, args.fail_nodes, seed=args.seed + 1, time=fault_time
            )
        if getattr(args, "flap_links", 0) != 0:
            horizon = args.warmup_cycles + args.measure_cycles
            sched = sched + link_flaps(
                graph, args.flap_links, horizon=horizon, seed=args.seed + 2
            )
        if hasattr(args, "degrade_factor"):
            # Also run at fraction 0 (no events), so a bad factor is
            # rejected even when no link is degraded.
            sched = sched + degraded_links(
                graph,
                args.degrade_links,
                factor=args.degrade_factor,
                seed=args.seed + 3,
                time=fault_time,
            )
    except ValueError as exc:
        raise SystemExit(f"invalid fault schedule: {exc}")
    return sched


def _cmd_faults_inject(args) -> int:
    """One fault-injected packet-sim run on a small PolarStar instance."""
    from repro import store
    from repro.experiments.common import obs_session
    from repro.sim.packet import PacketSimulator
    from repro.traffic import UniformRandomPattern

    cfg = _packet_config(args)
    _check_load(args.load)
    topo = store.topology("polarstar", radix=args.radix, p=args.p)
    sched = _build_schedule(topo.graph, args)
    with obs_session(
        args.metrics_out,
        seed=args.seed,
        config=cfg,
        topology=topo,
        load=args.load,
        faults=sched.summary(),
    ):
        sim = PacketSimulator(
            topo, store.table_router(topo), UniformRandomPattern(topo), cfg,
            faults=sched,
        )
        res = sim.run(args.load)
    print(f"{topo.name}: {sched!r}")
    print(
        f"load={res.offered_load:.2f} delivered={res.delivered}/{res.injected} "
        f"delivered_fraction={res.delivered_fraction:.3f} "
        f"avg_lat={res.avg_latency:.1f} thr={res.throughput:.3f}"
    )
    # An empty schedule leaves the router unwrapped: no ladder ran.
    rungs = getattr(sim.router, "rung_counts", {})
    print(
        f"dropped={res.dropped} {res.drop_causes} reroutes={res.reroutes} "
        f"rungs={rungs}"
    )
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_faults_schedule(args) -> int:
    """Generate a deterministic fault-schedule JSON for ``serve start``."""
    from repro import store
    from repro.runtime import atomic_write_text

    topo = store.resolve_topology(args.topology, scale=args.scale)
    sched = _build_schedule(topo.graph, args)
    doc = {
        "schema": "repro.faults.schedule/v1",
        "topology": args.topology,
        "scale": args.scale,
        "label": args.label,
        "events": sched.to_jsonable(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(
            f"schedule with {len(sched)} events written to {args.out} "
            f"(epoch label {args.label})"
        )
    else:
        print(text, end="")
    return 0


def _parse_fractions(text: str) -> tuple[float, ...]:
    """``--fractions``: comma-separated failed-link fractions, each in the
    generator's domain [0, 1]; a bad one exits with a one-line message."""
    try:
        fractions = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise SystemExit(f"invalid fault schedule: --fractions {text!r}: {exc}")
    for frac in fractions:
        if not 0.0 <= frac <= 1.0:
            raise SystemExit(
                f"invalid fault schedule: failure fraction must be in "
                f"[0, 1], got {frac}"
            )
    return fractions


def _check_table3_names(names, scale: str) -> None:
    """Exit in one line on a name that is no Table 3 network at *scale*."""
    from repro.topologies.table3 import REDUCED_BUILDERS, TABLE3_BUILDERS

    options = list(TABLE3_BUILDERS if scale == "full" else REDUCED_BUILDERS)
    for name in names:
        if name not in options:
            raise SystemExit(f"unknown topology {name!r}; options: {', '.join(options)}")


def _cmd_faults_sweep(args) -> int:
    """Delivered-fraction sweep over failed-link fractions (fig14_dynamic)."""
    import json

    from repro.experiments import fig14_dynamic
    from repro.experiments.common import obs_session

    topos = tuple(args.topo) if args.topo else ("PS-IQ",)
    _check_table3_names(topos, "reduced")
    fractions = _parse_fractions(args.fractions)
    _check_load(args.load)
    with obs_session(
        args.metrics_out,
        seed=args.seed,
        load=args.load,
        topologies=list(topos),
        fractions=list(fractions),
    ):
        result = fig14_dynamic.run(
            names=topos, fractions=fractions, load=args.load, seed=args.seed
        )
    print(fig14_dynamic.format_figure(result))
    if args.out:
        from repro.runtime import atomic_write_text

        # sort_keys + no timestamps anywhere => byte-identical across reruns
        # of the same (topo, fractions, load, seed); atomic replace so an
        # interrupt never leaves a half-written artifact behind.
        atomic_write_text(
            args.out, json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nsweep artifact written to {args.out}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_faults_crashpoints(args) -> int:
    """Crash-point exploration over the durability layer (see
    :mod:`repro.runtime.crashpoints`)."""
    import json

    from repro.runtime import atomic_write_text, crashpoints

    report = crashpoints.explore(
        base_dir=args.workdir, max_points=args.max_points, keep=args.keep
    )
    by_op: dict = {}
    for p in report.points:
        by_op[p["op"]] = by_op.get(p["op"], 0) + 1
    ops = ", ".join(f"{k}={v}" for k, v in sorted(by_op.items()))
    print(
        f"explored {report.crash_points} crash points over "
        f"{report.ops} durability ops ({ops})"
    )
    bad = [p for p in report.points if p["violations"]]
    for p in bad:
        print(
            f"  VIOLATION at op #{p['seq']} ({p['op']} {p['path']}, "
            f"mode={p['mode']}): {'; '.join(p['violations'])}",
            file=sys.stderr,
        )
    if args.out:
        atomic_write_text(
            args.out, json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n"
        )
        print(f"report written to {args.out}")
    if report.ok:
        print("every crash point recovered: store clean, resume byte-identical")
        return 0
    print(f"{report.violations} invariant violation(s)", file=sys.stderr)
    return 1


def _parse_run_opts(pairs) -> dict:
    """``--opt key=value`` pairs; values parse as JSON, else stay strings."""
    import json

    opts = {}
    for item in pairs or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"--opt expects key=value, got {item!r}")
        try:
            opts[key] = json.loads(raw)
        except json.JSONDecodeError:
            opts[key] = raw
    return opts


def _cmd_run_status(args) -> int:
    """List run journals and their progress (``repro run status``)."""
    from pathlib import Path

    from repro import runtime

    if args.journal:
        paths = [Path(args.journal)]
    else:
        root = runtime.runs_root()
        paths = sorted(root.glob("*.jsonl")) if root.is_dir() else []
        if not paths:
            print(f"no run journals under {root}")
            return 0
    for path in paths:
        records = runtime.load_records(path)
        headers = runtime.run_headers(records)
        if not headers:
            print(f"{path.name}: empty or unreadable journal")
            continue
        head = headers[-1]
        total = int(head.get("trials", 0))
        done = len(runtime.completed_trials(records))
        quarantined = len(
            {
                r["trial"]
                for r in records
                if r.get("type") == "trial" and r.get("status") == "quarantined"
            }
        )
        last = records[-1].get("type")
        if last == "complete":
            state = "complete"
        elif last == "interrupted":
            state = "interrupted (resumable)"
        else:
            state = "incomplete (resumable)"
        line = (
            f"{path.name}: {head.get('experiment')} gen {head.get('generation')} "
            f"{done}/{total} done"
        )
        if quarantined:
            line += f", {quarantined} quarantined"
        print(f"{line} — {state}")
    return 0


def _cmd_run(args) -> int:
    """Supervised, journaled, resumable experiment execution."""
    import json
    from pathlib import Path

    from repro import runtime
    from repro.experiments.common import obs_session

    if args.experiment == "status":
        return _cmd_run_status(args)
    if args.experiment not in runtime.PLANNED_EXPERIMENTS:
        raise SystemExit(
            f"unknown runnable experiment {args.experiment!r}; options: "
            f"{list(runtime.PLANNED_EXPERIMENTS)} (or 'status')"
        )
    plan = runtime.build_plan(args.experiment, _parse_run_opts(args.opt))
    if args.journal:
        journal_path = Path(args.journal)
    else:
        journal_path = (
            runtime.runs_root() / f"{args.experiment}-{plan.digest[:12]}.jsonl"
        )
    journal_path.parent.mkdir(parents=True, exist_ok=True)
    config = runtime.PoolConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        degrade_after=args.degrade_after,
        watchdog_grace=args.watchdog_grace,
        seed=args.seed,
    )
    runtime_manifest: dict = {}
    with obs_session(
        args.metrics_out, experiment=args.experiment, runtime=runtime_manifest
    ):
        try:
            report = runtime.run_plan(
                plan, journal_path, config, resume=args.resume
            )
        except runtime.RunInterruptedWithReport as exc:
            report = exc.report
        runtime_manifest.update(report.manifest_info())

    counts = report.counts()
    if report.interrupted:
        print(
            f"interrupted: {counts['done']}/{counts['total']} trials "
            f"checkpointed in {journal_path}",
            file=sys.stderr,
        )
        print(
            f"resume with: python -m repro run {args.experiment} --resume "
            + (f"--journal {journal_path}" if args.journal else ""),
            file=sys.stderr,
        )
        return 130

    mod = runtime.experiment_module(args.experiment)
    merged = mod.merge_trials(plan.opts, report.merge_outcomes())
    print(mod.format_figure(merged))
    if report.journal_degraded:
        print(
            f"warning: journal {journal_path} hit an I/O error mid-run; the "
            "run finished memory-only and cannot be resumed",
            file=sys.stderr,
        )
    quarantined = [o for o in report.outcomes if o.status == "quarantined"]
    print(
        f"\n{counts['done']}/{counts['total']} trials done "
        f"({counts['skipped']} resumed from journal, {counts['degraded']} "
        f"degraded, {len(quarantined)} quarantined); journal: {journal_path}"
    )
    for o in quarantined:
        print(
            f"  quarantined {o.digest[:12]} after {o.attempts} attempts: "
            f"{o.error}",
            file=sys.stderr,
        )
    if args.out:
        # Deterministic payload only: params/results, no timings or attempt
        # counts, so interrupted-then-resumed == uninterrupted, byte for byte.
        payload = {
            "experiment": plan.experiment,
            "opts": plan.opts,
            "plan": plan.digest,
            "result": merged,
            "quarantined": sorted(o.digest for o in quarantined),
        }
        runtime.atomic_write_text(
            args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"result artifact written to {args.out}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 1 if quarantined else 0


def _cmd_store(args) -> int:
    """Inspect and manage the content-addressed artifact store."""
    from repro import store

    s = store.get_store()
    if args.action == "ls":
        if s.root is None:
            print("disk tier disabled (REPRO_STORE_DISABLE is set)")
            return 0
        entries = s.entries()
        print(f"store root: {s.root}")
        for e in entries:
            kind = e.meta.get("kind", "?")
            builder = e.meta.get("builder", "?")
            print(f"  {e.digest[:16]}  {kind:<16} {builder:<16} {e.size_bytes:>10} B")
        print(f"{len(entries)} entries, {s.total_bytes()} bytes")
        return 0
    if args.action == "gc":
        report = s.gc(
            max_bytes=args.max_bytes,
            clear=args.clear,
            dry_run=args.dry_run,
            reap_tmp_age=args.reap_tmp_age,
        )
        verb = "would remove" if report["dry_run"] else "removed"
        line = (
            f"{verb} {len(report['removed'])} entries "
            f"({report['freed_bytes']} bytes), kept {len(report['kept'])}"
        )
        if report["reaped_tmp"]:
            line += f", reaped {len(report['reaped_tmp'])} stray temp file(s)"
        print(line)
        return 0
    if args.action == "warm":
        from repro.experiments.common import obs_session

        names = list(args.topo) if args.topo else ["PS-IQ"]
        _check_table3_names(names, args.scale)
        with obs_session(args.metrics_out, warm=names, scale=args.scale):
            for name in names:
                topo = store.table3_topology(name, scale=args.scale)
                line = f"{name}: {topo.graph.n} routers, {topo.graph.m} links"
                if args.dist:
                    dist = store.distance_table(topo)
                    line += f", distance table {dist.nbytes} bytes"
                print(line)
        for rec in s.resolved():
            print(f"  {rec['tier']:<6} {rec['kind']:<12} {rec['digest'][:16]}")
        if args.metrics_out:
            print(f"metrics written to {args.metrics_out}")
        return 0
    raise SystemExit(f"unknown store action {args.action!r}")


def _cmd_obs(args) -> int:
    from repro.obs import console_summary, load_json

    if args.action != "summary":
        raise SystemExit(f"unknown obs action {args.action!r}")
    print(console_summary(load_json(args.path)))
    return 0


def _collect_route_pairs(args) -> list[list[int]]:
    """Merge ``--src/--dst``, repeated ``--pair`` and ``--pairs-file``."""
    pairs: list[list[int]] = []
    if args.src is not None or args.dst is not None:
        if args.src is None or args.dst is None:
            raise SystemExit("--src and --dst must be given together")
        pairs.append([args.src, args.dst])
    for s, d in args.pair or []:
        pairs.append([int(s), int(d)])
    if args.pairs_file:
        from pathlib import Path

        try:
            text = Path(args.pairs_file).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise SystemExit(f"cannot read --pairs-file: {exc}")
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                src, dst = map(int, line.replace(",", " ").split())
            except ValueError:
                raise SystemExit(
                    f"{args.pairs_file}:{lineno}: expected 'src dst', "
                    f"got {line!r}"
                )
            pairs.append([src, dst])
    if not pairs:
        raise SystemExit(
            "no pairs given; use --src/--dst, --pair, or --pairs-file"
        )
    return pairs


def _cmd_route(args) -> int:
    """Batched route queries through the serve engine (any topology)."""
    from repro.runtime import atomic_write_text
    from repro.serve import BadBatchError, QueryEngine, ShardRegistry

    spec = args.topology
    if spec is None:
        # Legacy invocation: the largest PolarStar at --radix.
        spec = f"polarstar:radix={args.radix}"
    pairs = _collect_route_pairs(args)
    registry = ShardRegistry()
    try:
        shard = registry.load(spec, scale=args.scale)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"cannot resolve topology {spec!r}: {exc}")
    engine = QueryEngine(registry)
    try:
        dists = engine.distances(spec, pairs)
        paths = engine.paths(spec, pairs) if args.op == "path" else None
    except BadBatchError as exc:
        raise SystemExit(str(exc))
    if args.out:
        doc = {
            "schema": "repro.route/v1",
            "topology": spec,
            "scale": args.scale,
            "op": args.op,
            "pairs": [[int(s), int(d)] for s, d in pairs],
            "distances": [int(x) for x in dists],
        }
        if paths is not None:
            doc["paths"] = paths
        atomic_write_text(
            args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"route artifact written to {args.out}")
        return 0
    star = shard.topology.meta.get("star") if shard.topology else None
    for i, ((s, d), dist) in enumerate(zip(pairs, dists)):
        if dist < 0:
            print(f"{shard.name}: {s} -> {d} unreachable")
            continue
        print(f"{shard.name}: {s} -> {d} in {dist} hops")
        if paths is not None:
            for v in paths[i] or []:
                if star is not None:
                    x, xp = star.split(v)
                    print(f"  router {v} = (supernode {x}, local {xp})")
                else:
                    print(f"  router {v}")
    return 0


def _cmd_serve(args) -> int:
    """Serve subcommands: start the query server / run the chaos harness."""
    if args.action == "start":
        from repro.serve import ServerConfig, run_server

        return run_server(
            ServerConfig(
                topologies=tuple(args.topology),
                scale=args.scale,
                host=args.host,
                port=args.port,
                max_batch=args.max_batch,
                max_delay=args.max_delay,
                max_inflight=args.max_inflight,
                metrics_out=args.metrics_out,
                fault_schedule=args.fault_schedule,
            )
        )
    if args.action == "chaos":
        from repro.runtime import atomic_write_text
        from repro.serve import ChaosConfig, format_chaos, run_chaos

        doc = run_chaos(
            ChaosConfig(
                topology=args.topology[0],
                scale=args.scale,
                batches=args.batches,
                batch_size=args.batch_size,
                epochs=args.epochs,
                kills=args.kills,
                fail_fraction=args.fail_fraction,
                fail_nodes=args.fail_nodes,
                seed=args.seed,
                deadline_ms=args.deadline_ms,
            )
        )
        print(format_chaos(doc))
        if args.out:
            atomic_write_text(
                args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
            print(f"chaos report written to {args.out}")
        return 0 if doc["ok"] else 1
    raise SystemExit(f"unknown serve action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("topology", help="build a topology and report basics")
    t.add_argument("kind", choices=["ps", "df", "hx"])
    t.add_argument("--radix", type=int, default=15)
    t.add_argument("--p", type=int, default=None, help="endpoints per router")
    t.add_argument("--a", type=int, default=12, help="dragonfly group size")
    t.add_argument("--h", type=int, default=6, help="dragonfly global links")
    t.add_argument("--dims", default="9x9x8", help="hyperx dims, e.g. 9x9x8")
    t.set_defaults(fn=_cmd_topology)

    d = sub.add_parser("design-space", help="list feasible PolarStar configs")
    d.add_argument("radix", type=int)
    d.set_defaults(fn=_cmd_design_space)

    e = sub.add_parser("experiment", help="regenerate a paper table/figure")
    e.add_argument("name", help=f"one of {EXPERIMENTS}")
    e.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs for the run and export the JSON artifact here",
    )
    e.set_defaults(fn=_cmd_experiment)

    r = sub.add_parser(
        "route", help="batched route queries on any store-resolvable topology"
    )
    r.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help="topology spec: a Table 3 label (PS-IQ, DF, ...) or "
        "builder:key=value,... (default: polarstar:radix=RADIX)",
    )
    r.add_argument(
        "--scale", choices=["full", "reduced"], default="full",
        help="Table 3 instance scale",
    )
    r.add_argument("--radix", type=int, default=15,
                   help="legacy shorthand for --topology polarstar:radix=N")
    r.add_argument("--src", type=int, default=None)
    r.add_argument("--dst", type=int, default=None)
    r.add_argument(
        "--pair", nargs=2, type=int, action="append", metavar=("SRC", "DST"),
        help="query pair (repeatable)",
    )
    r.add_argument(
        "--pairs-file", default=None, metavar="PATH",
        help="file of 'src dst' lines (comments with #)",
    )
    r.add_argument("--op", choices=["distance", "path"], default="path")
    r.add_argument(
        "--out", default=None, metavar="PATH",
        help="write a byte-deterministic JSON artifact instead of text",
    )
    r.set_defaults(fn=_cmd_route)

    sv = sub.add_parser(
        "serve", help="batched route-query service over shared tables"
    )
    svsub = sv.add_subparsers(dest="action", required=True)

    svs = svsub.add_parser("start", help="start the NDJSON query server")
    svs.add_argument(
        "--topology", action="append", required=True, metavar="SPEC",
        help="topology spec to serve (repeatable)",
    )
    svs.add_argument("--scale", choices=["full", "reduced"], default="full")
    svs.add_argument("--host", default="127.0.0.1")
    svs.add_argument("--port", type=int, default=0,
                     help="TCP port (0 = ephemeral, printed in the ready banner)")
    svs.add_argument("--max-batch", type=int, default=4096,
                     help="coalescing window flushes at this many pairs")
    svs.add_argument("--max-delay", type=float, default=0.002,
                     help="coalescing window flushes after this many seconds")
    svs.add_argument("--max-inflight", type=int, default=65536,
                     help="admitted-pair cap before 429 rejection")
    svs.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable repro.obs for the server lifetime, export JSON here",
    )
    svs.add_argument(
        "--fault-schedule", default=None, metavar="PATH",
        help="apply this fault-schedule JSON (repro faults schedule) as the "
        "initial epoch before accepting queries",
    )
    svs.set_defaults(fn=_cmd_serve)

    svc = svsub.add_parser(
        "chaos",
        help="chaos harness: query burst vs fault epochs + SIGKILL/restart",
    )
    svc.add_argument(
        "--topology", action="append", required=True, metavar="SPEC",
        help="topology spec to serve and verify against the offline oracle",
    )
    svc.add_argument("--scale", choices=["full", "reduced"], default="full")
    svc.add_argument("--batches", type=int, default=40,
                     help="query batches in the burst")
    svc.add_argument("--batch-size", type=int, default=64,
                     help="pairs per batch")
    svc.add_argument("--epochs", type=int, default=2,
                     help="fault epochs applied mid-burst")
    svc.add_argument("--kills", type=int, default=1,
                     help="SIGKILL/restart cycles injected mid-burst")
    svc.add_argument("--fail-fraction", type=float, default=0.02,
                     help="links failed per epoch (seeded)")
    svc.add_argument("--fail-nodes", type=int, default=1,
                     help="routers downed in the first epoch")
    svc.add_argument("--seed", type=int, default=0)
    svc.add_argument("--deadline-ms", type=float, default=5000.0,
                     help="per-request deadline propagated to the server")
    svc.add_argument("--out", default=None, metavar="PATH",
                     help="write the chaos report JSON here")
    svc.set_defaults(fn=_cmd_serve)

    s = sub.add_parser(
        "sim", help="run the packet simulator on a small PolarStar instance"
    )
    s.add_argument("--radix", type=int, default=7, help="PolarStar network radix")
    s.add_argument("--p", type=int, default=2, help="endpoints per router")
    s.add_argument("--load", type=float, default=0.3, help="offered load in [0, 1]")
    s.add_argument("--pattern", choices=["uniform", "permutation"], default="uniform")
    s.add_argument("--adaptive", action="store_true", help="UGAL-L injection choice")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--warmup-cycles", type=int, default=300)
    s.add_argument("--measure-cycles", type=int, default=1500)
    s.add_argument("--drain-cycles", type=int, default=1500)
    s.add_argument(
        "--fail-links",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="fail this fraction of links at t=0 (seeded by --seed)",
    )
    s.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs for the run and export the JSON artifact here",
    )
    s.set_defaults(fn=_cmd_sim)

    f = sub.add_parser("faults", help="fault-injection runs and sweeps")
    fsub = f.add_subparsers(dest="action", required=True)

    fi = fsub.add_parser(
        "inject", help="one fault-injected packet-sim run on a small PolarStar"
    )
    fi.add_argument("--radix", type=int, default=7, help="PolarStar network radix")
    fi.add_argument("--p", type=int, default=2, help="endpoints per router")
    fi.add_argument("--load", type=float, default=0.3)
    fi.add_argument("--seed", type=int, default=0)
    fi.add_argument("--warmup-cycles", type=int, default=300)
    fi.add_argument("--measure-cycles", type=int, default=1500)
    fi.add_argument("--drain-cycles", type=int, default=1500)
    fi.add_argument(
        "--fail-links", type=float, default=0.0, metavar="FRAC",
        help="fraction of links failed permanently at --fault-time",
    )
    fi.add_argument(
        "--fail-nodes", type=int, default=0, metavar="N",
        help="routers failed permanently at --fault-time",
    )
    fi.add_argument(
        "--flap-links", type=int, default=0, metavar="N",
        help="links flapping (down 200 / up 800 cycles) until measurement ends",
    )
    fi.add_argument(
        "--degrade-links", type=float, default=0.0, metavar="FRAC",
        help="fraction of links serializing --degrade-factor x slower",
    )
    fi.add_argument("--degrade-factor", type=float, default=2.0)
    fi.add_argument(
        "--fault-time", type=int, default=0,
        help="injection cycle for permanent failures and degrades",
    )
    fi.add_argument("--metrics-out", default=None, metavar="PATH")
    fi.set_defaults(fn=_cmd_faults_inject)

    fg = fsub.add_parser(
        "schedule",
        help="generate a deterministic fault-schedule JSON for serve start",
    )
    fg.add_argument(
        "--topology", default="PS-IQ", metavar="SPEC",
        help="topology spec the schedule is validated against",
    )
    fg.add_argument("--scale", choices=["full", "reduced"], default="full")
    fg.add_argument(
        "--fail-links", type=float, default=0.05, metavar="FRAC",
        help="fraction of links failed (seeded)",
    )
    fg.add_argument(
        "--fail-nodes", type=int, default=0, metavar="N",
        help="routers failed (seeded with --seed + 1)",
    )
    fg.add_argument("--seed", type=int, default=0)
    fg.add_argument(
        "--label", type=int, default=1,
        help="epoch label the server installs the schedule under",
    )
    fg.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the schedule JSON here (default: stdout)",
    )
    fg.set_defaults(fn=_cmd_faults_schedule)

    fs = fsub.add_parser(
        "sweep",
        help="delivered fraction vs failed-link fraction (fig14_dynamic)",
    )
    fs.add_argument(
        "--topo", action="append", default=None,
        help="Table 3 topology name (repeatable; default PS-IQ)",
    )
    fs.add_argument(
        "--fractions", default="0,0.05,0.1,0.15,0.2,0.3",
        help="comma-separated failed-link fractions",
    )
    fs.add_argument("--load", type=float, default=0.3)
    fs.add_argument("--seed", type=int, default=0)
    fs.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the deterministic JSON sweep artifact here",
    )
    fs.add_argument("--metrics-out", default=None, metavar="PATH")
    fs.set_defaults(fn=_cmd_faults_sweep)

    fc = fsub.add_parser(
        "crashpoints",
        help="simulate a power cut at every durability op (store populate + "
        "journaled sweep) and verify recovery invariants",
    )
    fc.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the deterministic crash-point report JSON here",
    )
    fc.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="explore only the first N crash points (smoke mode)",
    )
    fc.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="sandbox directory (default: a fresh temp dir, removed on exit)",
    )
    fc.add_argument(
        "--keep", action="store_true",
        help="keep every crash sandbox on disk for post-mortems",
    )
    fc.set_defaults(fn=_cmd_faults_crashpoints)

    ru = sub.add_parser(
        "run",
        help="run a trial-decomposed experiment on the supervised worker "
        "pool with checkpoint/resume (or 'status' to list journals)",
    )
    ru.add_argument(
        "experiment",
        help="experiment to run (fig09, fig10, fig14_dynamic, tab03, chaos) "
        "or 'status'",
    )
    ru.add_argument("--jobs", type=int, default=1, help="worker processes")
    ru.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-trial wall-clock budget in seconds (0 disables)",
    )
    ru.add_argument(
        "--retries", type=int, default=3,
        help="extra attempts per trial before quarantine",
    )
    ru.add_argument(
        "--resume", action="store_true",
        help="skip trials already checkpointed in the journal",
    )
    ru.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint journal (default: runs dir, keyed by plan digest)",
    )
    ru.add_argument(
        "--opt", action="append", default=None, metavar="KEY=VALUE",
        help="experiment option (value parsed as JSON; repeatable), e.g. "
        "--opt names='[\"PS-IQ\"]' --opt cycles='[30,80,80]'",
    )
    ru.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the deterministic merged-result JSON artifact here",
    )
    ru.add_argument("--backoff-base", type=float, default=0.5)
    ru.add_argument("--backoff-cap", type=float, default=30.0)
    ru.add_argument(
        "--degrade-after", type=int, default=2,
        help="timeout-class failures before degrading trial fidelity",
    )
    ru.add_argument(
        "--watchdog-grace", type=float, default=15.0,
        help="stale-heartbeat seconds before a worker counts as hung",
    )
    ru.add_argument("--seed", type=int, default=0, help="retry-jitter seed")
    ru.add_argument("--metrics-out", default=None, metavar="PATH")
    ru.set_defaults(fn=_cmd_run)

    st = sub.add_parser("store", help="inspect/manage the artifact store")
    stsub = st.add_subparsers(dest="action", required=True)

    sls = stsub.add_parser("ls", help="list complete on-disk artifacts")
    sls.set_defaults(fn=_cmd_store)

    sgc = stsub.add_parser("gc", help="reclaim broken or excess entries")
    sgc.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="evict least-recently-used entries until the store fits N bytes",
    )
    sgc.add_argument("--clear", action="store_true", help="remove every entry")
    sgc.add_argument(
        "--dry-run", action="store_true", help="report only; delete nothing"
    )
    sgc.add_argument(
        "--reap-tmp-age", type=float, default=3600.0, metavar="SECONDS",
        help="also reap stray .tmp-* files older than this (crashed writers; "
        "default 1 hour — old enough to never race a live writer)",
    )
    sgc.set_defaults(fn=_cmd_store)

    sw = stsub.add_parser(
        "warm", help="pre-build Table 3 artifacts so later runs start warm"
    )
    sw.add_argument(
        "--topo", action="append", default=None,
        help="Table 3 topology name (repeatable; default PS-IQ)",
    )
    sw.add_argument("--scale", choices=["full", "reduced"], default="full")
    sw.add_argument(
        "--dist", action="store_true",
        help="also build (and persist) the BFS distance table",
    )
    sw.add_argument("--metrics-out", default=None, metavar="PATH")
    sw.set_defaults(fn=_cmd_store)

    o = sub.add_parser("obs", help="inspect an exported observability artifact")
    o.add_argument("action", choices=["summary"], help="summary: render for humans")
    o.add_argument("path", help="JSON artifact written by --metrics-out")
    o.set_defaults(fn=_cmd_obs)

    return p


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Commands that manage their own signal policy (repro run) never get
        # here; everything else exits with the conventional SIGINT code.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
