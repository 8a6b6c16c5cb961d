"""Command-line interface: run the reproduction's algorithms from a shell.

    python -m repro sssp  --generator rmat --scale 8 --ranks 4 --delta 3.0
    python -m repro cc    --generator erdos_renyi --n 400 --m 600
    python -m repro bfs   --generator watts_strogatz --n 300 --k 6
    python -m repro pagerank --generator barabasi_albert --n 200 --m-attach 3
    python -m repro mutate --generator rmat --scale 9 --ops 8
    python -m repro plan  --pattern sssp           # print a compiled plan
    python -m repro serve-metrics --port 9464      # live /metrics endpoint
    python -m repro flight /tmp/repro-flight/*.jsonl   # merge crash dumps

Every run prints the result summary and the machine's message statistics
(the paper's cost model).  Deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import Machine
from .runtime.machine import DEFAULT_FAST_PATH, FAST_PATHS
from .analysis import collect_report, format_table
from .graph import (
    barabasi_albert,
    build_graph,
    erdos_renyi,
    grid_2d,
    rmat,
    uniform_weights,
    watts_strogatz,
)


def _make_graph(args, *, directed: bool):
    gen = args.generator
    seed = args.seed
    if gen == "erdos_renyi":
        n = args.n
        src, trg = erdos_renyi(n, args.m, seed=seed)
    elif gen == "rmat":
        n = 1 << args.scale
        src, trg = rmat(args.scale, edge_factor=args.edge_factor, seed=seed)
    elif gen == "watts_strogatz":
        n = args.n
        src, trg = watts_strogatz(n, args.k, args.beta, seed=seed)
    elif gen == "barabasi_albert":
        n = args.n
        src, trg = barabasi_albert(n, args.m_attach, seed=seed)
    elif gen == "grid":
        n = args.rows * args.cols
        src, trg = grid_2d(args.rows, args.cols)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(gen)
    weights = uniform_weights(len(src), args.w_min, args.w_max, seed=seed + 1)
    return build_graph(
        n,
        np.column_stack((src, trg)),
        weights=weights,
        directed=directed,
        n_ranks=args.ranks,
        partition=args.partition,
    )


def _telemetry_level(args) -> str:
    """The effective telemetry level: explicit flag, auto-upgraded when an
    output file needs more than the flag provides."""
    level = getattr(args, "telemetry", "off")
    if getattr(args, "trace_out", None) and level != "spans":
        level = "spans"  # a Perfetto trace needs full spans
    elif getattr(args, "metrics_out", None) and level == "off":
        level = "counters"  # Prometheus output needs at least counters
    return level


def _parse_crash(spec: str):
    """``RANK:TICK`` -> ChaosConfig scheduling that crash."""
    from .runtime import ChaosConfig

    try:
        rank_s, tick_s = spec.split(":")
        return ChaosConfig(crash_rank=int(rank_s), crash_tick=int(tick_s))
    except ValueError as exc:
        raise SystemExit(f"--crash expects RANK:TICK, got {spec!r} ({exc})")


def _machine(args) -> Machine:
    crash = getattr(args, "crash", None)
    chaos = _parse_crash(crash) if crash else None
    checkpoint = None
    every = getattr(args, "checkpoint_every", None)
    ckpt_dir = getattr(args, "checkpoint_dir", None)
    restore_from = getattr(args, "restore_from", None)
    if every or ckpt_dir or crash or restore_from:
        from .runtime import CheckpointConfig

        checkpoint = CheckpointConfig(every=every or 1, path=ckpt_dir)
    machine = Machine(
        n_ranks=args.ranks,
        transport=getattr(args, "transport", "sim"),
        fast_path=getattr(args, "fast_path", DEFAULT_FAST_PATH),
        schedule=args.schedule,
        seed=args.seed,
        detector=args.detector,
        routing=args.routing,
        telemetry=_telemetry_level(args),
        chaos=chaos,
        checkpoint=checkpoint,
    )
    if restore_from:
        machine.checkpoints.load(restore_from)
        machine.checkpoints.restore()
        latest = machine.checkpoints.latest()
        print(
            f"restore: resumed from checkpoint #{latest.index} "
            f"(epoch {latest.epoch}) in {restore_from}"
        )
    return machine


def _run_maybe_recovering(args, machine: Machine, fn):
    """Run ``fn``; with a scheduled --crash, recover through it."""
    if getattr(args, "crash", None):
        from .runtime import run_with_recovery

        return run_with_recovery(machine, fn)
    return fn()


def _print_checkpoint_report(machine: Machine) -> None:
    if machine.checkpoints is not None and machine.stats.checkpoint.snapshots:
        print()
        print(machine.stats.checkpoint_report())


def _write_outputs(args, machine: Machine) -> int:
    """Honour --trace-out / --metrics-out after a command ran.

    Every written artifact is run back through its validator
    (``validate_chrome_trace`` / ``parse_prometheus``); violations are
    printed to stderr and counted so commands can exit non-zero instead
    of silently shipping malformed traces or metrics to CI."""
    violations = 0
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from .analysis import validate_chrome_trace, write_chrome_trace

        obj = write_chrome_trace(machine, trace_out)
        errors = validate_chrome_trace(obj)
        for err in errors:
            print(f"trace: VIOLATION: {err}", file=sys.stderr)
        violations += len(errors)
        print(f"trace: wrote {len(obj['traceEvents'])} events to {trace_out}")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from .analysis import parse_prometheus, write_prometheus

        text = write_prometheus(machine, metrics_out)
        _samples, errors = parse_prometheus(text)
        for err in errors:
            print(f"metrics: VIOLATION: {err}", file=sys.stderr)
        violations += len(errors)
        print(f"metrics: wrote {len(text.splitlines())} lines to {metrics_out}")
    return violations


def _print_report(name: str, machine: Machine, graph, **extra) -> None:
    rep = collect_report(name, machine, graph, **extra)
    print()
    print(format_table([rep.row()]))


def cmd_sssp(args) -> int:
    graph, weights = _make_graph(args, directed=True)
    machine = _machine(args)
    source = args.source
    if args.auto_source:
        source = int(
            np.argmax([graph.out_degree(v) for v in range(graph.n_vertices)])
        )
    if args.delta is not None:
        from .algorithms import sssp_delta_stepping

        def run():
            return sssp_delta_stepping(machine, graph, weights, source, args.delta)

        algo = f"sssp-delta({args.delta})"
    else:
        from .algorithms import sssp_fixed_point

        def run():
            return sssp_fixed_point(machine, graph, weights, source)

        algo = "sssp-fixed-point"
    dist = _run_maybe_recovering(args, machine, run)
    reachable = int(np.isfinite(dist).sum())
    print(
        f"{algo}: source {source}, reachable {reachable}/{graph.n_vertices}, "
        f"max distance {np.nanmax(np.where(np.isfinite(dist), dist, np.nan)):.3f}"
    )
    _print_report(algo, machine, graph, reachable=reachable)
    _print_checkpoint_report(machine)
    return 1 if _write_outputs(args, machine) else 0


def cmd_bfs(args) -> int:
    from .algorithms import bfs_fixed_point

    graph, _ = _make_graph(args, directed=True)
    machine = _machine(args)
    depth = bfs_fixed_point(machine, graph, args.source)
    reachable = int(np.isfinite(depth).sum())
    print(f"bfs: reachable {reachable}/{graph.n_vertices}")
    _print_report("bfs", machine, graph, reachable=reachable)
    return 1 if _write_outputs(args, machine) else 0


def cmd_cc(args) -> int:
    from .algorithms import connected_components

    graph, _ = _make_graph(args, directed=False)
    machine = _machine(args)
    comp, details = connected_components(
        machine, graph, flush_budget=args.flush_budget, return_details=True
    )
    n_comp = len(set(comp.tolist()))
    print(
        f"cc: {n_comp} components; searches {details['searches_started']}, "
        f"collisions {details['collisions']}, jump rounds {details['jump_rounds']}"
    )
    _print_report("cc", machine, graph, components=n_comp)
    return 1 if _write_outputs(args, machine) else 0


def cmd_pagerank(args) -> int:
    from .algorithms import pagerank

    graph, _ = _make_graph(args, directed=True)
    machine = _machine(args)
    pr = pagerank(machine, graph, iterations=args.iterations)
    top = np.argsort(pr)[::-1][:5]
    print("pagerank top-5:", [(int(v), round(float(pr[v]), 5)) for v in top])
    _print_report("pagerank", machine, graph)
    return 1 if _write_outputs(args, machine) else 0


def cmd_trace(args) -> int:
    """Run one algorithm with full span telemetry and report causality."""
    from .analysis import critical_paths, render_critical_paths

    args.telemetry = "spans"  # this subcommand exists to record spans
    algo = args.algorithm
    if algo == "sssp":
        graph, weights = _make_graph(args, directed=True)
        machine = _machine(args)
        from .algorithms import sssp_fixed_point

        sssp_fixed_point(machine, graph, weights, args.source)
    elif algo == "bfs":
        graph, _ = _make_graph(args, directed=True)
        machine = _machine(args)
        from .algorithms import bfs_fixed_point

        bfs_fixed_point(machine, graph, args.source)
    elif algo == "cc":
        graph, _ = _make_graph(args, directed=False)
        machine = _machine(args)
        from .algorithms import connected_components

        connected_components(machine, graph)
    else:  # pagerank
        graph, _ = _make_graph(args, directed=True)
        machine = _machine(args)
        from .algorithms import pagerank

        pagerank(machine, graph, iterations=args.iterations)

    tel = machine.telemetry
    summ = tel.summary()
    print(
        f"trace[{algo}]: {summ['spans_recorded']} spans recorded "
        f"({summ['spans_evicted']} evicted, "
        f"{summ['traces_sampled_out']} traces sampled out)"
    )
    for kind in sorted(summ["by_kind"]):
        print(f"  {kind:<8} {summ['by_kind'][kind]}")
    print()
    print(render_critical_paths(critical_paths(tel.snapshot_spans())))
    return 1 if _write_outputs(args, machine) else 0


def cmd_checkpoint(args) -> int:
    """Inspect a persisted checkpoint directory."""
    from .runtime.checkpoint import describe_checkpoint_dir

    info = describe_checkpoint_dir(args.dir)
    print(f"checkpoint dir: {info['path']}")
    print(f"blobs: {info['blobs']} ({info['blob_bytes']} bytes)")
    rows = info["checkpoints"]
    print(f"checkpoints: {len(rows)}")
    for row in rows:
        kind = "full" if row["full"] else "incr"
        print(
            f"  #{row['index']:<3} epoch {row['epoch']:<4} {kind} "
            f"maps={row['maps']} states={row['states']} chunks={row['chunks']}"
        )
    return 0


def cmd_mutate(args) -> int:
    """Converge SSSP, apply a seeded random mutation batch at the epoch
    boundary, delta-restart incrementally, and (by default) verify the
    result bit-identical against from-scratch on the mutated graph."""
    import random

    from .algorithms.sssp import bind_sssp, sssp_fixed_point
    from .graph import MutationBatch
    from .props.property_map import weight_map_from_array
    from .strategies import sssp_delta_restart

    machine = _machine(args)

    def run():
        # The whole sequence is the recovery driver: a crash replay
        # rebuilds the (seeded, deterministic) graph and re-applies the
        # mutation, so the checkpointed post-mutation state becomes
        # applicable once graph.version catches up.
        graph, weights = _make_graph(args, directed=True)
        wm = weight_map_from_array(graph, weights)
        source = args.source
        if args.auto_source:
            source = int(
                np.argmax(
                    [graph.out_degree(v) for v in range(graph.n_vertices)]
                )
            )
        machine.attach_graph(graph)
        bound = bind_sssp(machine, graph, wm)
        sssp_fixed_point(machine, graph, wm, source, bound=bound)

        rnd = random.Random(args.mutation_seed)
        arc_src, arc_trg = graph.edge_arrays()
        arcs = list(zip(arc_src.tolist(), arc_trg.tolist()))
        batch, used, k = MutationBatch(), set(), 0
        while arcs and k < args.ops // 2:
            arc = rnd.choice(arcs)
            if arc in used:
                continue
            used.add(arc)
            batch.delete_edge(*arc)
            k += 1
        while k < args.ops:
            u = rnd.randrange(graph.n_vertices)
            v = rnd.randrange(graph.n_vertices)
            if u != v and (u, v) not in used:
                used.add((u, v))
                batch.insert_edge(
                    u, v, weight=float(rnd.uniform(args.w_min, args.w_max))
                )
                k += 1
        delta = machine.apply_mutations(batch, weight_map=wm)
        rep = sssp_delta_restart(machine, bound, delta, source)
        return graph, wm, source, delta, rep

    graph, wm, source, delta, rep = _run_maybe_recovering(args, machine, run)
    print(
        f"mutation: graph v{delta.version}, "
        f"-{len(delta.removed)} arcs, +{len(delta.inserted)} arcs "
        f"(seed {args.mutation_seed})"
    )
    reachable = int(np.isfinite(rep.values).sum())
    print(
        f"delta-restart: invalidated {rep.invalidated}, "
        f"re-seeded {rep.seeds}, reachable {reachable}/{graph.n_vertices}"
    )
    status = 0
    if not args.no_verify:
        oracle = Machine(args.ranks, fast_path=args.fast_path)
        scratch = sssp_fixed_point(
            oracle, graph, wm, source, bound=bind_sssp(oracle, graph, wm)
        )
        if np.array_equal(rep.values, scratch):
            print("verify: incremental == from-scratch (bit-identical)")
        else:
            bad = int((np.asarray(rep.values) != np.asarray(scratch)).sum())
            print(f"verify: MISMATCH on {bad} vertices")
            status = 1
    _print_report("mutate", machine, graph, reachable=reachable)
    _print_checkpoint_report(machine)
    if _write_outputs(args, machine):
        status = status or 1
    return status


def cmd_flight(args) -> int:
    """Merge flight-recorder dumps into one causally-ordered timeline."""
    import json

    from .runtime import (
        load_flight_dump,
        merge_flight_events,
        render_flight_timeline,
    )

    try:
        dumps = [load_flight_dump(p) for p in args.dumps]
    except (OSError, ValueError) as exc:
        print(f"flight: {exc}", file=sys.stderr)
        return 1
    events = merge_flight_events(dumps)
    if args.kind:
        wanted = set(args.kind)
        events = [ev for ev in events if ev.get("kind") in wanted]
    if args.tail:
        events = events[-args.tail:]
    print(
        f"flight: {len(events)} events from {len(dumps)} dump(s), "
        f"{len({ev.get('rank') for ev in events})} rank(s)"
    )
    print(render_flight_timeline(events))
    if args.out:
        with open(args.out, "w") as fh:
            for ev in events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")
        print(f"flight: wrote merged timeline to {args.out}")
    return 0


def cmd_serve_metrics(args) -> int:
    """Loop a workload with the live observability endpoint attached.

    Binds the graph and SSSP handlers once, then re-runs the algorithm
    --loops times (0 = until interrupted), pausing --pause seconds
    between runs so /metrics, /healthz and /status stay scrape-able
    mid-run — the shape CI uses to probe a live machine."""
    import time

    from .algorithms.sssp import bind_sssp, sssp_fixed_point
    from .props.property_map import weight_map_from_array

    level = getattr(args, "telemetry", "off")
    machine = Machine(
        n_ranks=args.ranks,
        transport=args.transport,
        fast_path=args.fast_path,
        schedule=args.schedule,
        seed=args.seed,
        detector=args.detector,
        routing=args.routing,
        telemetry="counters" if level == "off" else level,
        observe=args.port,
    )
    graph, weights = _make_graph(args, directed=True)
    wm = weight_map_from_array(graph, weights)
    machine.attach_graph(graph)
    bound = bind_sssp(machine, graph, wm)
    obs = machine.observer
    loops = "until interrupted" if args.loops == 0 else f"{args.loops} loop(s)"
    print(
        f"serve-metrics: listening on {obs.url} "
        f"(/metrics /healthz /status), running sssp {loops}"
    )
    sys.stdout.flush()
    done = 0
    try:
        while args.loops == 0 or done < args.loops:
            sssp_fixed_point(machine, graph, wm, args.source, bound=bound)
            done += 1
            if args.pause:
                time.sleep(args.pause)
    except KeyboardInterrupt:
        pass
    print(f"serve-metrics: completed {done} loop(s)")
    machine.shutdown()
    return 0


def cmd_serve(args) -> int:
    """Run the persistent graph service (docs/SERVICE.md).

    Loads the graph once, starts a :class:`~repro.service.GraphEngine`
    (FIFO job queue, versioned result cache) and its HTTP
    API, then blocks until interrupted.  The bound port is printed at
    startup (``--port 0`` binds an ephemeral port)."""
    import time

    from .service import GraphEngine, ServiceServer

    machine = Machine(
        n_ranks=args.ranks,
        transport=args.transport,
        fast_path=args.fast_path,
        schedule=args.schedule,
        seed=args.seed,
        detector=args.detector,
        routing=args.routing,
        telemetry=(
            "counters"
            if _telemetry_level(args) == "off"
            else _telemetry_level(args)
        ),
    )
    graph, weights = _make_graph(args, directed=True)
    engine = GraphEngine(
        machine,
        graph,
        weights,
        max_pending=args.max_pending,
        owns_machine=True,
    )
    server = ServiceServer(engine, host=args.host, port=args.port).start()
    print(
        f"serve: graph service on {server.url} "
        f"(POST /jobs, /stats, /metrics, /healthz); "
        f"n={graph.n_vertices} ranks={args.ranks}"
    )
    sys.stdout.flush()
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    server.stop()
    engine.close()
    snap = machine.stats.service
    print(
        f"serve: shut down after {snap.jobs_completed} job(s), "
        f"{snap.batches_executed} run(s), "
        f"{snap.cache_hits} cache hit(s)"
    )
    return 0


def cmd_plan(args) -> int:
    from .patterns import compile_action
    from .patterns.fastpath import lowering_verdicts

    if args.pattern == "sssp":
        from .algorithms import sssp_pattern

        pattern = sssp_pattern()
    elif args.pattern == "cc":
        from .algorithms import cc_pattern

        pattern = cc_pattern()
    elif args.pattern == "bfs":
        from .algorithms import bfs_pattern

        pattern = bfs_pattern()
    else:
        from .algorithms import pagerank_pattern

        pattern = pagerank_pattern()
    print(pattern.describe())
    print()
    for action in pattern.actions.values():
        plan = compile_action(action, args.mode)
        print(plan.describe([f"vector: {v}" for v in lowering_verdicts(plan)]))
        m = plan.confluence
        print(f"  confluence: {m.kind}" if m else f"  confluence: none ({plan.confluence_reason})")
        print()
    return 0


def cmd_partition(args) -> int:
    """Partition-quality report: edge cut, replication, load balance.

    Builds the requested graph once and measures how each partitioner
    would place it — without running anything — so operators can pick a
    placement before paying for a run (docs/PARTITION.md)."""
    from .graph import PARTITIONS, make_partition, partition_quality

    graph, _weights = _make_graph(args, directed=True)
    src, trg = graph.edge_arrays()
    n = graph.n_vertices
    kinds = list(PARTITIONS) if args.compare else [args.partition]
    degrees = np.bincount(src, minlength=n)
    print(
        f"partition: n={n} arcs={len(src)} ranks={args.ranks} "
        f"generator={args.generator}"
    )
    print(
        f"{'partition':>10} {'edge_cut':>9} {'replication':>12} "
        f"{'v_gini':>7} {'e_gini':>7} {'max_share':>10}"
    )
    rows = []
    for kind in kinds:
        part = make_partition(kind, n, args.ranks, degrees=degrees)
        q = partition_quality(part, src, trg, kind=kind)
        rows.append(q.as_dict())
        print(
            f"{kind:>10} {q.edge_cut:>9.4f} {q.replication:>12.3f} "
            f"{q.vertex_gini:>7.3f} {q.edge_gini:>7.3f} "
            f"{q.max_edge_share:>10.3f}"
        )
        if args.loads:
            print(f"{'':>10} arcs/rank: {q.edges_by_rank}")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"partition: wrote {len(rows)} row(s) to {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative patterns for distributed graph algorithms "
        "(IPDPS-W 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ranks", type=int, default=4)
        p.add_argument(
            "--transport",
            choices=["sim", "threads", "process"],
            default="sim",
            help="execution backend: deterministic simulation, real "
            "threads, or one OS process per rank with shared-memory "
            "property maps and the binary wire codec (docs/RUNTIME.md)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--schedule",
            choices=["round_robin", "random", "fifo", "lifo"],
            default="round_robin",
        )
        p.add_argument(
            "--detector",
            choices=["oracle", "safra", "four_counter"],
            default="oracle",
        )
        p.add_argument("--routing", choices=["direct", "hypercube"], default="direct")
        p.add_argument(
            "--fast-path",
            choices=list(FAST_PATHS),
            default=DEFAULT_FAST_PATH,
            help="execution tier: interpreted walk (the oracle), bind-time "
            "compiled closures, or numpy batch kernels with proven fusion "
            "of rank-local rounds (default: %(default)s)",
        )
        p.add_argument(
            "--partition",
            "--partitioner",
            dest="partition",
            choices=["block", "cyclic", "hash", "degree", "grid2d"],
            default="block",
            help="vertex placement: contiguous blocks, round-robin, "
            "multiplicative hash, degree-aware balanced-edge bin-pack, "
            "or 2D grid edge partitioning (docs/PARTITION.md)",
        )
        p.add_argument(
            "--generator",
            choices=[
                "erdos_renyi",
                "rmat",
                "watts_strogatz",
                "barabasi_albert",
                "grid",
            ],
            default="erdos_renyi",
        )
        p.add_argument("--n", type=int, default=200)
        p.add_argument("--m", type=int, default=800)
        p.add_argument("--scale", type=int, default=8)
        p.add_argument("--edge-factor", type=int, default=8)
        p.add_argument("--k", type=int, default=6)
        p.add_argument("--beta", type=float, default=0.1)
        p.add_argument("--m-attach", type=int, default=3)
        p.add_argument("--rows", type=int, default=16)
        p.add_argument("--cols", type=int, default=16)
        p.add_argument("--w-min", type=float, default=1.0)
        p.add_argument("--w-max", type=float, default=10.0)
        p.add_argument(
            "--telemetry",
            choices=["off", "counters", "spans"],
            default="off",
            help="telemetry level (auto-upgraded when --trace-out / "
            "--metrics-out need more)",
        )
        p.add_argument(
            "--trace-out",
            default=None,
            metavar="FILE",
            help="write a Chrome-trace/Perfetto JSON of the run",
        )
        p.add_argument(
            "--metrics-out",
            default=None,
            metavar="FILE",
            help="write Prometheus text metrics of the run",
        )
        p.add_argument(
            "--checkpoint-every",
            type=int,
            default=None,
            metavar="N",
            help="snapshot every N epochs (enables checkpointing)",
        )
        p.add_argument(
            "--checkpoint-dir",
            default=None,
            metavar="DIR",
            help="persist checkpoints to DIR (enables checkpointing)",
        )
        p.add_argument(
            "--crash",
            default=None,
            metavar="RANK:TICK",
            help="inject a rank crash at the given transport tick and "
            "recover from the latest checkpoint",
        )

    p_sssp = sub.add_parser("sssp", help="single-source shortest paths")
    add_common(p_sssp)
    p_sssp.add_argument("--source", type=int, default=0)
    p_sssp.add_argument(
        "--auto-source", action="store_true", help="use the max-degree vertex"
    )
    p_sssp.add_argument("--delta", type=float, default=None)
    p_sssp.add_argument(
        "--restore-from",
        default=None,
        metavar="DIR",
        help="resume from the latest checkpoint persisted in DIR",
    )
    p_sssp.set_defaults(fn=cmd_sssp)

    p_bfs = sub.add_parser("bfs", help="breadth-first search")
    add_common(p_bfs)
    p_bfs.add_argument("--source", type=int, default=0)
    p_bfs.set_defaults(fn=cmd_bfs)

    p_cc = sub.add_parser("cc", help="connected components (parallel search)")
    add_common(p_cc)
    p_cc.add_argument("--flush-budget", type=int, default=None)
    p_cc.set_defaults(fn=cmd_cc)

    p_pr = sub.add_parser("pagerank", help="PageRank")
    add_common(p_pr)
    p_pr.add_argument("--iterations", type=int, default=20)
    p_pr.set_defaults(fn=cmd_pagerank)

    p_trace = sub.add_parser(
        "trace", help="run an algorithm with span telemetry; report causality"
    )
    add_common(p_trace)
    p_trace.add_argument(
        "--algorithm", choices=["sssp", "bfs", "cc", "pagerank"], default="sssp"
    )
    p_trace.add_argument("--source", type=int, default=0)
    p_trace.add_argument("--iterations", type=int, default=5)
    p_trace.set_defaults(fn=cmd_trace)

    p_ckpt = sub.add_parser(
        "checkpoint", help="inspect a persisted checkpoint directory"
    )
    p_ckpt.add_argument("dir", help="checkpoint directory to describe")
    p_ckpt.set_defaults(fn=cmd_checkpoint)

    p_mut = sub.add_parser(
        "mutate",
        help="apply a random mutation batch and delta-restart SSSP "
        "incrementally, verifying against from-scratch (docs/DYNAMIC.md)",
    )
    add_common(p_mut)
    p_mut.add_argument("--source", type=int, default=0)
    p_mut.add_argument(
        "--auto-source", action="store_true", help="use the max-degree vertex"
    )
    p_mut.add_argument(
        "--ops", type=int, default=8, help="mutation batch size (ops)"
    )
    p_mut.add_argument(
        "--mutation-seed", type=int, default=0, help="batch generator seed"
    )
    p_mut.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the from-scratch bit-identity check",
    )
    p_mut.set_defaults(fn=cmd_mutate)

    p_flight = sub.add_parser(
        "flight",
        help="merge flight-recorder dumps into one causal timeline "
        "(docs/OBSERVABILITY.md)",
    )
    p_flight.add_argument(
        "dumps", nargs="+", metavar="DUMP.jsonl",
        help="flight dump files (e.g. from $REPRO_FLIGHT_DIR)",
    )
    p_flight.add_argument(
        "--kind", action="append", default=None, metavar="KIND",
        help="only show events of this kind (repeatable)",
    )
    p_flight.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="only the newest N merged events",
    )
    p_flight.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the merged timeline as JSONL",
    )
    p_flight.set_defaults(fn=cmd_flight)

    p_serve = sub.add_parser(
        "serve-metrics",
        help="loop SSSP with the live /metrics /healthz /status endpoint",
    )
    add_common(p_serve)
    p_serve.add_argument("--source", type=int, default=0)
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="HTTP port (0: ephemeral; printed at startup)",
    )
    p_serve.add_argument(
        "--loops", type=int, default=3,
        help="workload repetitions (0: loop until interrupted)",
    )
    p_serve.add_argument(
        "--pause", type=float, default=0.2,
        help="seconds to sleep between repetitions",
    )
    p_serve.set_defaults(fn=cmd_serve_metrics)

    p_svc = sub.add_parser(
        "serve",
        help="persistent graph service: FIFO job queue, one run per job, "
        "versioned result cache (docs/SERVICE.md)",
    )
    add_common(p_svc)
    p_svc.add_argument("--host", default="127.0.0.1")
    p_svc.add_argument(
        "--port", type=int, default=0,
        help="HTTP port (0: ephemeral; printed at startup)",
    )
    p_svc.add_argument(
        "--max-pending", type=int, default=256,
        help="admission control: queued jobs beyond this are rejected (429)",
    )
    p_svc.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for a fixed time then exit (default: until interrupted)",
    )
    p_svc.set_defaults(fn=cmd_serve)

    p_part = sub.add_parser(
        "partition",
        help="partition-quality report (edge cut, replication, load gini)",
    )
    add_common(p_part)
    p_part.add_argument(
        "--compare",
        action="store_true",
        help="report every partitioner, not just --partition",
    )
    p_part.add_argument(
        "--loads", action="store_true", help="print per-rank arc loads"
    )
    p_part.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the report rows as JSON",
    )
    p_part.set_defaults(fn=cmd_partition)

    p_plan = sub.add_parser("plan", help="print a pattern's compiled plan")
    p_plan.add_argument(
        "--pattern", choices=["sssp", "cc", "bfs", "pagerank"], default="sssp"
    )
    p_plan.add_argument("--mode", choices=["optimized", "naive"], default="optimized")
    p_plan.set_defaults(fn=cmd_plan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
