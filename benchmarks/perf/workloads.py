"""The three batch workloads: ``sssp_sim``, ``sssp_process``, ``analytics_sim``.

Every workload builds its graph from the seed, times passes that each go
from a fresh ``Machine`` to a result array, and checks every result against
a sequential oracle.  The program under test only ever sees generated
arrays.  README.md explains why each workload exists and why it has the
size it has.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from unittest import mock

import numpy as np

from repro.algorithms.bfs import bfs_level_synchronous, bfs_reference
from repro.algorithms.cc import connected_components
from repro.algorithms.pagerank import pagerank, pagerank_reference
from repro.algorithms.sssp import bind_sssp, dijkstra_reference, sssp_delta_stepping
from repro.graph import build_graph, graph_quality, rmat, uniform_weights
from repro.runtime.machine import FAST_PATHS, Machine
from repro.runtime.message import Envelope
from repro.runtime.wire import WireCodec

import measure

EDGE_FACTOR = 8
DELTA = 3.0
COALESCE = {"coalescing": 64}
PAGERANK_ITERATIONS = 2
#: Timed passes per run: never fewer, and never more however fast the host.
MIN_PASSES, MAX_PASSES = 3, 24
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Scale of the throw-away pass that pays for imports and lazy set-up.
WARMUP_SCALE = 8
QUICK_SCALE = 8
#: Scale of the one-pass-per-tier probe (traced ``analytics_sim`` only).
TIER_SCALE = 14


@dataclass
class Result:
    """What one run of one workload hands back to ``run.py``."""

    end_to_end: dict
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Sample counts and other context printed beside the metrics.
    notes: dict = field(default_factory=dict)
    #: Written to ``out/trace_<workload>.json`` when tracing.
    trace: dict | None = None


def machine_counts(machine) -> dict:
    """Exact counters of one finished machine (read before shutdown)."""
    stats = machine.stats
    total = stats.total
    types = stats.by_type.values()
    counts = {
        "fast_path": machine.fast_path,
        "epochs": len(stats.epochs),
        "work_items": total.work_items,
        "control_messages": total.control_messages,
        "messages": total.handler_calls,
        "sent_local": total.sent_local,
        "sent_remote": total.sent_remote,
        "coalesced_items": sum(t.coalesced_items for t in types),
        "coalesced_flushes": total.coalesced_flushes,
        "vector_items": sum(t.vector_items for t in types),
        "handler_seconds": sum(t.handler_seconds for t in types),
    }
    wire_summary = getattr(machine.transport, "wire_summary", None)
    if wire_summary is not None:
        wire = wire_summary()
        counts["wire_frames"] = wire["frames_out"]
        counts["wire_bytes_per_msg"] = wire["bytes_per_logical"]
    return counts


def _sum_counts(per_machine: list) -> dict:
    out: dict = {}
    for counts in per_machine:
        for key, value in counts.items():
            if isinstance(value, str):
                out[key] = value
            else:
                out[key] = out.get(key, 0) + value
    return out


class Sssp:
    """Delta-stepping SSSP from the max-out-degree vertex of an R-MAT graph."""

    def __init__(self, scale: int, ranks: int, transport: str, tier: str = "vector"):
        self.scale, self.ranks, self.transport, self.tier = scale, ranks, transport, tier

    def resized(self, scale: int) -> "Sssp":
        return Sssp(scale, self.ranks, self.transport, self.tier)

    def generate(self, seed: int) -> dict:
        src, trg = rmat(self.scale, edge_factor=EDGE_FACTOR, seed=seed)
        weights = uniform_weights(len(src), 1.0, 10.0, seed=seed + 1)
        return {"n": 1 << self.scale, "src": src, "trg": trg, "w": weights}

    def build(self, fx: dict, ranks: int | None = None) -> None:
        fx["graph"], fx["weights"] = build_graph(
            fx["n"],
            zip(fx["src"].tolist(), fx["trg"].tolist()),
            weights=fx["w"],
            n_ranks=ranks or self.ranks,
            partition="cyclic",
        )
        fx["out_degree"] = np.bincount(fx["src"], minlength=fx["n"])
        fx["root"] = int(np.argmax(fx["out_degree"]))
        fx["quality"] = graph_quality(fx["graph"])

    def first_bind(self, fx: dict) -> None:
        with Machine(self.ranks, transport=self.transport, fast_path=self.tier) as machine:
            bind_sssp(machine, fx["graph"], fx["weights"], layers={"relax": COALESCE})

    def solve(self, fx: dict, machines: list, span, *, ranks=None, tier=None, **machine_kw):
        machine = Machine(
            ranks or self.ranks,
            transport=self.transport,
            fast_path=tier or self.tier,
            **machine_kw,
        )
        machines.append(machine)
        bound = bind_sssp(machine, fx["graph"], fx["weights"], layers={"relax": COALESCE})
        with span("algorithms.sssp"):
            return sssp_delta_stepping(
                machine, fx["graph"], fx["weights"], fx["root"], DELTA, bound=bound
            )

    def oracle(self, fx: dict):
        return dijkstra_reference(fx["n"], fx["src"], fx["trg"], fx["w"], fx["root"])

    def matches(self, expected, dist) -> bool:
        return bool(np.array_equal(expected, dist))

    def traversed_edges(self, fx: dict, dist) -> int:
        return int(fx["out_degree"][np.isfinite(dist)].sum())


class Analytics:
    """BFS, then the paper's CC, then two PageRank iterations, on the
    machine's default tier."""

    transport = "sim"

    def __init__(self, scale: int, ranks: int = 4):
        self.scale, self.ranks = scale, ranks

    def resized(self, scale: int) -> "Analytics":
        return Analytics(scale, self.ranks)

    def generate(self, seed: int) -> dict:
        src, trg = rmat(self.scale, edge_factor=EDGE_FACTOR, seed=seed)
        return {"n": 1 << self.scale, "src": src, "trg": trg}

    def build(self, fx: dict, ranks: int | None = None) -> None:
        edges = list(zip(fx["src"].tolist(), fx["trg"].tolist()))
        kw = {"n_ranks": ranks or self.ranks, "partition": "cyclic"}
        fx["graph"], _ = build_graph(fx["n"], edges, **kw)
        fx["ugraph"], _ = build_graph(fx["n"], edges, directed=False, **kw)
        fx["out_degree"] = np.bincount(fx["src"], minlength=fx["n"])
        fx["root"] = int(np.argmax(fx["out_degree"]))
        fx["quality"] = graph_quality(fx["graph"])

    def first_bind(self, fx: dict) -> None:
        from repro.algorithms.bfs import bfs_pattern
        from repro.patterns import bind

        with Machine(self.ranks) as machine:
            bind(bfs_pattern(), machine, fx["graph"], layers={"hop": COALESCE})

    def solve(self, fx: dict, machines: list, span, **_):
        def machine():
            machines.append(Machine(self.ranks, transport="sim"))
            return machines[-1]

        with span("algorithms.bfs"):
            depth = bfs_level_synchronous(
                machine(), fx["graph"], fx["root"], layers={"hop": COALESCE}
            )
        with span("algorithms.cc"):
            comp = connected_components(
                machine(), fx["ugraph"], layers={"cc_search": COALESCE, "cc_jump": COALESCE}
            )
        with span("algorithms.pagerank"):
            rank = pagerank(
                machine(),
                fx["graph"],
                iterations=PAGERANK_ITERATIONS,
                tol=None,
                layers={"scatter": COALESCE},
            )
        return depth, comp, rank

    def oracle(self, fx: dict):
        n, src, trg = fx["n"], fx["src"], fx["trg"]
        return (
            bfs_reference(n, src, trg, fx["root"]),
            _canonical(_union_find(n, src.tolist(), trg.tolist())),
            pagerank_reference(n, src, trg, iterations=PAGERANK_ITERATIONS),
        )

    def matches(self, expected, got) -> bool:
        depth, comp, rank = got
        return bool(
            np.array_equal(expected[0], depth)
            and np.array_equal(expected[1], _canonical(comp))
            and np.abs(expected[2] - rank).max() <= 1e-9
        )

    def traversed_edges(self, fx: dict, got) -> int:
        bfs_edges = int(fx["out_degree"][np.isfinite(got[0])].sum())
        return bfs_edges + fx["ugraph"].n_edges + PAGERANK_ITERATIONS * len(fx["src"])


def _union_find(n: int, src: list, trg: list) -> np.ndarray:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(src, trg):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return np.array([find(v) for v in range(n)], dtype=np.int64)


def _canonical(labels) -> np.ndarray:
    """Relabel every component by its smallest vertex id, so two labelings
    compare equal exactly when they are the same partition."""
    _, inverse = np.unique(np.asarray(labels), return_inverse=True)
    smallest = np.full(inverse.max() + 1, len(inverse), dtype=np.int64)
    np.minimum.at(smallest, inverse, np.arange(len(inverse)))
    return smallest[inverse]


WORKLOADS = {
    "sssp_sim": Sssp(scale=14, ranks=4, transport="sim"),
    "sssp_process": Sssp(scale=14, ranks=2, transport="process"),
    "analytics_sim": Analytics(scale=12),
}


# -- running passes -----------------------------------------------------------


def set_up(workload, seed: int) -> tuple[dict, dict]:
    """Generate, build, make the first machine and bind once; timed (the
    stages on the raw clock, ``setup_s`` on the corrected one)."""
    with measure.corrected() as clock:
        t0 = perf_counter()
        fx = workload.generate(seed)
        t1 = perf_counter()
        workload.build(fx)
        t2 = perf_counter()
        workload.first_bind(fx)
        t3 = perf_counter()
    return fx, {
        "generate_s": t1 - t0,
        "build_s": t2 - t1,
        "bind_s": t3 - t2,
        "setup_s": clock.seconds,
    }


def run_pass(workload, fx: dict, tracer=None, **solve_kw) -> dict:
    """One pass, fresh machine to result array; traced when given a tracer.
    ``solve_s`` is on the corrected clock (end-to-end), ``raw_s`` is wall."""
    machines: list = []
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    if tracer is not None:
        tracer.reset()
        tracer.install()
    with measure.corrected() as clock:
        try:
            with span("solve"):
                output = workload.solve(fx, machines, span, **solve_kw)
            clock.stop()
            per_machine = [machine_counts(m) for m in machines]
        finally:
            if tracer is not None:
                tracer.uninstall()
            # Rank workers idle-poll until they are told to stop: they must
            # be gone before the clock's closing probes.
            for m in machines:
                m.shutdown()
    return {
        "output": output,
        "solve_s": clock.seconds,
        "raw_s": clock.raw_s,
        "counts": _sum_counts(per_machine),
        "per_machine": per_machine,
    }


def warm_up(workload, seed: int) -> None:
    small = workload.resized(WARMUP_SCALE)
    fx = small.generate(seed)
    small.build(fx)
    run_pass(small, fx)


def run_batch(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Result:
    workload = WORKLOADS[name]
    if quick:
        workload = workload.resized(QUICK_SCALE)
    if trace:
        return _run_traced(name, workload, seed, quick)
    return _run_untraced(workload, seed, seconds, quick)


def _run_untraced(workload, seed: int, seconds: float, quick: bool) -> Result:
    setups = []
    for _ in range(1 if quick else SETUPS):
        fx, timing = set_up(workload, seed)
        setups.append(timing["setup_s"])
    expected = workload.oracle(fx)
    if not quick:
        warm_up(workload, seed)
    min_passes, max_passes = (1, 1) if quick else (MIN_PASSES, MAX_PASSES)
    passes, failed, spent = [], 0, 0.0
    while len(passes) < max_passes:
        # Stop once another pass of average length would overrun the budget.
        if len(passes) >= min_passes and spent + spent / len(passes) > seconds:
            break
        done = run_pass(workload, fx)
        spent += done["raw_s"]
        if not workload.matches(expected, done["output"]):
            failed += 1
        done["edges"] = workload.traversed_edges(fx, done["output"])
        passes.append(done)
    return Result(
        end_to_end={
            "setup_s": measure.median(setups),
            "solve_s": measure.median(p["solve_s"] for p in passes),
            "edges_per_s": measure.median(p["edges"] / p["solve_s"] for p in passes),
            "peak_rss_mb": measure.peak_rss_mb(children=workload.transport == "process"),
        },
        attempted=len(passes),
        failed=failed,
        notes={
            "passes": len(passes),
            "setups": len(setups),
            "scale": workload.scale,
            "fast_path": passes[0]["counts"]["fast_path"],
            "traversed_edges": passes[0]["edges"],
            "messages": passes[0]["counts"]["messages"],
            # Wall-clock readings beside the corrected ones.
            "raw_solve_s": measure.median(p["raw_s"] for p in passes),
            "raw_edges_per_s": measure.median(p["edges"] / p["raw_s"] for p in passes),
            "host_speed_factor": measure.median(p["solve_s"] / p["raw_s"] for p in passes),
        },
    )


# -- the traced run ---------------------------------------------------------------


def _run_traced(name: str, workload, seed: int, quick: bool) -> Result:
    from tracer import Tracer

    fx, timing = set_up(workload, seed)
    expected = workload.oracle(fx)
    if not quick:
        warm_up(workload, seed)
    plain = run_pass(workload, fx)
    tracer = Tracer()
    traced = run_pass(workload, fx, tracer)
    failed = sum(
        not workload.matches(expected, p["output"]) for p in (plain, traced)
    )
    totals = tracer.totals()
    counts = traced["counts"]

    def self_s(*names: str) -> float:
        """Self time of the named layers in the traced pass."""
        return sum(totals[n]["self_ns"] for n in names if n in totals) / 1e9

    def count(n: str) -> int:
        return totals[n]["count"] if n in totals else 0

    self_sum_s = sum(row["self_ns"] for row in totals.values()) / 1e9
    messages = counts["messages"]
    sent = counts["sent_local"] + counts["sent_remote"]
    layers = {
        "graph.generate_s": timing["generate_s"],
        "graph.build_s": timing["build_s"],
        "graph.edge_cut": fx["quality"].edge_cut,
        "graph.max_edge_share": fx["quality"].max_edge_share,
        "patterns.bind_s": timing["bind_s"],
        "patterns.invoke_s": self_s("patterns.invoke"),
        "patterns.invoke_count": count("patterns.invoke"),
        "patterns.handler_s": self_s("patterns.handler"),
        "patterns.vector_item_ratio": counts["vector_items"] / messages if messages else 0.0,
        # Driver-side time: the algorithm and strategy functions and the
        # bodies of their epochs (buckets, frontier lists, label rewrite).
        "strategies.driver_s": self_s(
            *(n for n in totals if n.startswith(("algorithms.", "strategies."))),
            "runtime.epoch",
        ),
        "strategies.epochs": counts["epochs"],
        "strategies.work_items": counts["work_items"],
        "runtime.messages": messages,
        "runtime.remote_ratio": counts["sent_remote"] / sent if sent else 0.0,
        "runtime.avg_batch": (
            counts["coalesced_items"] / counts["coalesced_flushes"]
            if counts["coalesced_flushes"]
            else 0.0
        ),
        "runtime.send_s": self_s("runtime.send"),
        "runtime.send_count": count("runtime.send"),
        "runtime.resolve_s": self_s("runtime.resolve"),
        "runtime.coalesce_s": self_s("runtime.coalesce"),
        "runtime.wire_s": self_s("runtime.wire"),
        "runtime.drain_s": self_s("runtime.drain"),
        "runtime.probe_s": self_s("runtime.probe"),
        "runtime.probes": count("runtime.probe"),
        "runtime.control_messages": counts["control_messages"],
        "runtime.epoch_overhead_s": self_s("runtime.epoch_overhead"),
        "runtime.ns_per_message": 1e9 * plain["raw_s"] / messages if messages else 0.0,
        "trace.overhead_ratio": traced["raw_s"] / plain["raw_s"],
        "trace.self_sum_ratio": self_sum_s / traced["raw_s"],
    }
    notes = {
        "scale": workload.scale,
        "fast_path": counts["fast_path"],
        "untraced_solve_s": plain["raw_s"],
        "traced_solve_s": traced["raw_s"],
    }
    phases = _phases(tracer, traced)
    attempted = 2
    if workload.transport == "process":
        layers.update(_process_layers(workload, seed, plain, traced, totals))
    if name == "analytics_sim":
        tiers, tier_failed = _tier_probe(seed, TIER_SCALE if not quick else QUICK_SCALE)
        layers.update(tiers)
        failed += tier_failed
        attempted += len(tiers)
        notes["phases"] = phases
    return Result(
        end_to_end={},
        per_layer=layers,
        attempted=attempted,
        failed=failed,
        notes=notes,
        trace={
            "traced_wall_s": traced["raw_s"],
            "self_sum_s": self_sum_s,
            "totals": totals,
            "phases": phases,
            "counts": counts,
            "spans": tracer.span_records(),
        },
    )


def _phases(tracer, traced: dict) -> list:
    """One row per ``algorithms.*`` span, paired with its machine's counts
    (every algorithm phase runs on a machine of its own)."""
    spans = [s for s in tracer.span_records() if s["name"].startswith("algorithms.")]
    rows = []
    for span, counts in zip(spans, traced["per_machine"]):
        messages = counts["messages"]
        rows.append(
            {
                "phase": span["name"].split(".", 1)[1],
                "seconds": (span["end_ns"] - span["start_ns"]) / 1e9,
                "messages": messages,
                "epochs": counts["epochs"],
                "vector_item_ratio": counts["vector_items"] / messages if messages else 0.0,
            }
        )
    return rows


def _process_layers(workload, seed, plain, traced, totals) -> dict:
    counts = traced["counts"]
    # Strong scaling: the same graph and root on one rank.
    one = workload.generate(seed)
    workload.build(one, ranks=1)
    single = run_pass(workload, one, ranks=1)
    encode_us, decode_us = _codec_probe(seed)
    return {
        "wire.bytes_per_msg": counts["wire_bytes_per_msg"],
        "wire.frames": counts["wire_frames"],
        "wire.encode_us_per_msg": encode_us,
        "wire.decode_us_per_msg": decode_us,
        # The parent's first wire call forks the rank workers and moves the
        # bound property maps into shared memory.
        "process.spawn_s": totals["runtime.wire"]["first_ns"] / 1e9,
        "process.worker_handler_s": counts["handler_seconds"],
        "process.parent_wait_s": totals["runtime.drain"]["self_ns"] / 1e9,
        "process.scaling_1v2": single["raw_s"] / plain["raw_s"],
    }


def _codec_probe(seed: int, rows: int = 64, repeats: int = 2000) -> tuple[float, float]:
    """Microseconds per logical message to encode and to decode one full
    coalesced ``relax`` envelope, captured from a small simulated run."""
    small = Sssp(WARMUP_SCALE, 2, "sim")
    fx = small.generate(seed)
    small.build(fx)
    captured: list = []

    def observe(mtype, src, dest, payload, batch) -> None:
        if batch and len(payload) == rows and src != dest and not captured:
            captured.append((mtype, src, dest, payload))

    machine = Machine(2, transport="sim", fast_path="vector")
    machine.telemetry.add_wire_observer(observe)
    try:
        bound = bind_sssp(machine, fx["graph"], fx["weights"], layers={"relax": COALESCE})
        sssp_delta_stepping(machine, fx["graph"], fx["weights"], fx["root"], DELTA, bound=bound)
    finally:
        machine.shutdown()
    if not captured:
        raise RuntimeError(f"no full {rows}-row remote envelope seen at scale {WARMUP_SCALE}")
    mtype, src, dest, payload = captured[0]
    codec = WireCodec()
    codec.register(mtype)
    env = Envelope(dest=dest, type_id=mtype.type_id, payload=payload, src=src, trace=None)
    t0 = perf_counter()
    for _ in range(repeats):
        frame = codec.encode(env, True)
    t1 = perf_counter()
    for _ in range(repeats):
        codec.decode(frame)
    t2 = perf_counter()
    per_message = 1e6 / (repeats * rows)
    return (t1 - t0) * per_message, (t2 - t1) * per_message


def _tier_probe(seed: int, scale: int) -> tuple[dict, int]:
    """One SSSP pass per execution tier on one graph: evidence for which
    tiers earn their keep.  The native tier runs its generated kernels on
    the numpy back end with a throw-away kernel cache inside ``out/``."""
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    probe = Sssp(scale, 4, "sim")
    fx = probe.generate(seed)
    probe.build(fx)
    expected = probe.oracle(fx)
    layers, failed = {}, 0
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="kernels-") as cache, mock.patch.dict(
        os.environ, {"REPRO_KERNEL_CACHE": cache}
    ):
        for tier in ("compiled", "vector", "native"):
            key = f"patterns.tier_{tier}_s"
            if tier not in FAST_PATHS:
                layers[key] = 0.0
                continue
            kw = {"native_backend": "interp"} if tier == "native" else {}
            done = run_pass(probe, fx, tier=tier, **kw)
            failed += not probe.matches(expected, done["output"])
            layers[key] = done["raw_s"]
    return layers, failed
