"""Schedule × fault exploration harness with trace shrinking.

The paper's pattern-built algorithms must be **schedule-independent**
(Sec. III-D gives no ordering guarantees beyond epochs) and the chaos +
reliable-delivery stack must make them **fault-independent**: for any
(schedule policy, routing, fast_path, chaos seed) combination, the final
property maps must be bit-identical to a fault-free run of the same
configuration.  This module provides:

* a registry of small, deterministic :data:`WORKLOADS` (monotone
  fixed-point algorithms *and* an accumulation workload whose sums are
  sensitive to duplicated or lost deliveries — monotone min-updates are
  idempotent and would mask at-least-once bugs);
* :func:`sweep` / :func:`explore` — enumerate configuration combos, run
  each under chaos, and diff against its fault-free oracle;
* :func:`shrink_trace` — delta-debugging (ddmin) over the recorded
  :class:`~repro.runtime.chaos.FaultEvent` trace of a failing run,
  producing a minimal scripted fault sequence that still reproduces the
  failure (replayable with ``ChaosConfig(script=...)``);
* a CLI (``python -m tests.harness.schedule_explorer --chaos-seed N``)
  used by the CI chaos job with a rotating seed; on failure it prints
  the exact config and the shrunk trace for offline reproduction.

Everything here is deterministic given the seeds involved; a failure
report is a complete reproduction recipe.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.algorithms.bfs import bfs_fixed_point, bfs_pattern
from repro.algorithms.cc import cc_label_pattern, cc_label_propagation, connected_components
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import (
    bind_sssp,
    sssp_delta_stepping,
    sssp_fixed_point,
)
from repro.graph import MutationBatch, build_graph, erdos_renyi, uniform_weights
from repro.patterns import bind
from repro.props.property_map import weight_map_from_array
from repro.runtime.chaos import ChaosConfig, FaultEvent
from repro.runtime.machine import FAST_PATHS, Machine
from repro.runtime.recovery import run_with_recovery
from repro.runtime.reliable import ReliableConfig
from repro.runtime.sim import ROUTINGS, SCHEDULES
from repro.strategies import (
    IncrementalPageRank,
    bfs_delta_restart,
    cc_delta_restart,
    fixed_point,
    sssp_delta_restart,
)

N_RANKS = 4  # power of two: every routing mode is available


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _graph(seed: int, n: int = 48, m: int = 130, directed: bool = True):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1.0, 8.0, seed=seed + 1)
    g, wbg = build_graph(
        n,
        list(zip(s, t)),
        weights=w,
        directed=directed,
        n_ranks=N_RANKS,
        partition="cyclic",
    )
    return g, wbg


def wl_sssp(machine: Machine, graph_seed: int) -> dict[str, np.ndarray]:
    g, wbg = _graph(graph_seed)
    bp = bind_sssp(machine, g, wbg, layers={"relax": {"coalescing": 16}})
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[0] = 0.0
    relax = bp["relax"]
    relax.work = lambda ctx, w: relax.invoke_from(ctx, w)
    with machine.epoch() as ep:
        relax.invoke(ep, 0)
    return {"dist": dist.to_array()}


def wl_bfs(machine: Machine, graph_seed: int) -> dict[str, np.ndarray]:
    g, _ = _graph(graph_seed)
    bp = bind(bfs_pattern(), machine, g, layers={"hop": {"coalescing": 16}})
    depth = bp.map("depth")
    depth[0] = 0.0
    hop = bp["hop"]
    hop.work = lambda ctx, w: hop.invoke_from(ctx, w)
    with machine.epoch() as ep:
        hop.invoke(ep, 0)
    return {"depth": depth.to_array()}


def wl_cc(machine: Machine, graph_seed: int) -> dict[str, np.ndarray]:
    g, _ = _graph(graph_seed, n=40, m=70, directed=False)
    bp = bind(cc_label_pattern(), machine, g, layers={"spread": {"coalescing": 16}})
    comp = bp.map("comp")
    for v in g.vertices():
        comp[v] = v
    spread = bp["spread"]
    spread.work = lambda ctx, w: spread.invoke_from(ctx, w)
    with machine.epoch() as ep:
        for v in g.vertices():
            spread.invoke(ep, v)
    return {"comp": comp.to_array()}


def wl_cc_search(machine: Machine, graph_seed: int) -> dict[str, np.ndarray]:
    """The paper's CC (Sec. II-B) with a flush budget of 1: searches start
    while others are still in flight, so they collide and record
    conflicts (on the vector tier, rows of the in-order lowering that
    resume the row walk).  ``prnt`` and ``chg`` depend on the schedule;
    the components do not, so each vertex reports its component's
    smallest vertex."""
    g, _ = _graph(graph_seed, n=40, m=60, directed=False)
    layers = {"cc_search": {"coalescing": 8}, "cc_jump": {"coalescing": 8}}
    comp = connected_components(machine, g, flush_budget=1, layers=layers)
    smallest = np.full(g.n_vertices, g.n_vertices)
    np.minimum.at(smallest, comp, np.arange(g.n_vertices))
    return {"comp": smallest[comp]}


def wl_accumulate(machine: Machine, graph_seed: int, n: int = 64) -> dict[str, np.ndarray]:
    """Duplication/loss-sensitive workload: message-count accumulation.

    Every handler adds its payload into a per-vertex sum and forwards a
    decremented token deterministically, so the *multiset* of logical
    messages (hence the final sums) is schedule-independent — but any
    duplicated delivery inflates a sum and any lost one deflates it.
    The monotone fixed-point workloads above cannot see such bugs
    (re-relaxing an idempotent min-update is invisible); this one exists
    precisely to catch at-least-once / at-most-once violations.
    """
    acc = np.zeros(n)

    def bump(ctx, p):
        v, hops, x = p
        acc[v] += x
        if hops > 0:
            ctx.send("bump", ((v * 5 + x) % n, hops - 1, x + 1))

    machine.register("bump", bump, dest_rank_of=lambda p: p[0] % N_RANKS, coalescing=8)
    with machine.epoch() as ep:
        for v in range(0, n, 3):
            ep.invoke("bump", (v, 12, (v + graph_seed) % 7))
    return {"acc": acc}


def wl_sssp_delta(machine: Machine, graph_seed: int) -> dict[str, np.ndarray]:
    """Multi-epoch Delta-stepping SSSP: the recovery sweep's workload.

    Re-runnable on the same machine: recovery re-enters this function
    after a rollback, re-binding the pattern (unique message-type names)
    and resuming the bucket loop via the checkpointed strategy state.
    """
    g, wbg = _graph(graph_seed)
    dist = sssp_delta_stepping(machine, g, wbg, 0, 4.0)
    return {"dist": np.asarray(dist)}


def _dyadic_edges(seed: int, n: int = 16) -> list:
    """Out-degrees 1, 2 or 4 and no self-loops: with damping 0.5 every
    PageRank intermediate is exactly representable, so float sums are
    the same in any order (see test_chaos_differential.dyadic_graph)."""
    rnd = random.Random(seed)
    edges = []
    for v in range(n):
        deg = rnd.choice((1, 2, 4))
        edges += [(v, u) for u in rnd.sample([u for u in range(n) if u != v], deg)]
    return edges


def wl_pagerank(machine: Machine, graph_seed: int) -> dict[str, np.ndarray]:
    """PageRank's ``+=`` scatter, the vector tier's sum path, on a dyadic
    graph: every delivery order gives the same bits, while a duplicated
    or lost row changes them."""
    g, _ = build_graph(
        16, _dyadic_edges(graph_seed), n_ranks=N_RANKS, partition="cyclic"
    )
    rank = pagerank(
        machine,
        g,
        damping=0.5,
        iterations=10,
        tol=None,
        layers={"scatter": {"coalescing": 4}},
    )
    return {"rank": rank}


Workload = Callable[[Machine, int], dict[str, np.ndarray]]

WORKLOADS: dict[str, Workload] = {
    "sssp": wl_sssp,
    "bfs": wl_bfs,
    "cc": wl_cc,
    "cc_search": wl_cc_search,
    "accumulate": wl_accumulate,
    "sssp_delta": wl_sssp_delta,
    "pagerank": wl_pagerank,
}


# ---------------------------------------------------------------------------
# configurations and execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One point of the (workload × schedule × routing × fast_path) space."""

    workload: str = "sssp"
    schedule: str = "round_robin"
    routing: str = "direct"
    fast_path: str = "compiled"
    detector: str = "oracle"
    machine_seed: int = 0
    graph_seed: int = 3

    def describe(self) -> str:
        return (
            f"{self.workload} schedule={self.schedule} routing={self.routing} "
            f"fast_path={self.fast_path} detector={self.detector} "
            f"seed={self.machine_seed} graph_seed={self.graph_seed}"
        )


def run_config(
    cfg: RunConfig,
    chaos: Optional[ChaosConfig] = None,
    reliable=None,
) -> dict[str, np.ndarray]:
    """Execute one configuration; returns the workload's final arrays."""
    machine = Machine(
        n_ranks=N_RANKS,
        schedule=cfg.schedule,
        seed=cfg.machine_seed,
        routing=cfg.routing,
        fast_path=cfg.fast_path,
        detector=cfg.detector,
        chaos=chaos,
        reliable=reliable,
    )
    out = WORKLOADS[cfg.workload](machine, cfg.graph_seed)
    assert machine.transport.quiescent(), "workload returned before quiescence"
    return out


def compare(oracle: dict, candidate: dict) -> list[str]:
    """Bit-identical array comparison; returns human-readable mismatches."""
    mismatches = []
    for key in oracle:
        a, b = oracle[key], candidate.get(key)
        if b is None:
            mismatches.append(f"{key}: missing from candidate run")
        elif not np.array_equal(a, b):
            bad = np.flatnonzero(~np.isclose(a, b, equal_nan=True))
            head = ", ".join(
                f"[{i}] {a[i]} != {b[i]}" for i in bad[:4]
            ) or "bit-level difference"
            mismatches.append(f"{key}: {len(bad)} cells differ ({head})")
    return mismatches


@dataclass
class Failure:
    """A chaos run that diverged from its fault-free oracle (or crashed)."""

    config: RunConfig
    chaos: ChaosConfig
    mismatches: list[str]
    trace: tuple[FaultEvent, ...]
    error: Optional[str] = None

    def describe(self) -> str:
        what = self.error or "; ".join(self.mismatches)
        return (
            f"{self.config.describe()} chaos_seed={self.chaos.seed}\n"
            f"  -> {what}\n"
            f"  trace ({len(self.trace)} events): {list(self.trace)}"
        )


def default_chaos(seed: int) -> ChaosConfig:
    """The harness's standard adversary: a bit of everything."""
    return ChaosConfig(
        seed=seed,
        drop=0.12,
        duplicate=0.08,
        delay=0.05,
        delay_hops=6,
        reorder=0.10,
        reorder_window=4,
        split=0.05,
    )


def crash_chaos(seed: int) -> ChaosConfig:
    """The standard adversary plus one scheduled rank crash.

    Crash placement is derived from the seed so a seed sweep explores
    different (rank, tick) combinations; the tick range covers baseline
    capture, mid-first-epoch, and deep-in-the-bucket-loop crashes.
    """
    return replace(
        default_chaos(seed),
        crash_rank=seed % N_RANKS,
        crash_tick=5 + (seed * 7) % 60,
    )


def uncrashed(chaos: ChaosConfig) -> ChaosConfig:
    """The same adversary with the crash disabled (the recovery oracle)."""
    return replace(chaos, crash_rank=-1, crash_tick=-1)


def run_config_recover(
    cfg: RunConfig,
    chaos: Optional[ChaosConfig] = None,
    reliable=None,
) -> tuple[dict[str, np.ndarray], Machine]:
    """Execute one configuration with checkpointing + crash recovery.

    Returns the workload result *and* the machine so callers can assert
    on recovery accounting (``machine.stats.checkpoint``).
    """
    machine = Machine(
        n_ranks=N_RANKS,
        schedule=cfg.schedule,
        seed=cfg.machine_seed,
        routing=cfg.routing,
        fast_path=cfg.fast_path,
        detector=cfg.detector,
        chaos=chaos,
        reliable=reliable,
        checkpoint=True,
    )
    out = run_with_recovery(
        machine, lambda: WORKLOADS[cfg.workload](machine, cfg.graph_seed)
    )
    assert machine.transport.quiescent(), "workload returned before quiescence"
    return out, machine


def explore_recovery(
    combos: Sequence[tuple[RunConfig, ChaosConfig]],
    reliable=None,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> tuple[list[Failure], int]:
    """Run crash+recover combos and diff against the crash-free oracle.

    The oracle is the same configuration under the *same* chaos config
    with only the crash removed: checkpoint/rollback/replay must be
    observably free, exactly like the fault-injection layers.  Returns
    the failures plus the number of combos in which a crash actually
    fired (a sweep whose crashes never fire proves nothing).
    """
    failures: list[Failure] = []
    oracles: dict[tuple, dict] = {}
    crashed = 0
    for i, (cfg, chaos) in enumerate(combos):
        okey = (cfg, uncrashed(chaos))
        if okey not in oracles:
            oracles[okey] = run_config(cfg, chaos=uncrashed(chaos), reliable=reliable)
        trace: tuple[FaultEvent, ...] = ()
        try:
            result, machine = run_config_recover(cfg, chaos, reliable)
            trace = tuple(machine.chaos.trace)
            if machine.stats.chaos.crashes:
                crashed += 1
            mismatches = compare(oracles[okey], result)
            if mismatches:
                failures.append(Failure(cfg, chaos, mismatches, trace))
        except Exception as exc:  # noqa: BLE001 - harness records, not hides
            failures.append(Failure(cfg, chaos, [], trace, error=repr(exc)))
        if on_progress is not None:
            on_progress(i + 1, len(combos))
    return failures, crashed


def sweep_recovery(
    chaos_seeds: Iterable[int] = tuple(range(8)),
    workloads: Sequence[str] = ("sssp_delta",),
    schedules: Sequence[str] = ("round_robin", "random"),
    fast_paths: Sequence[str] = FAST_PATHS,
) -> list[tuple[RunConfig, ChaosConfig]]:
    """Enumerate crash+recover combos (smaller grid, more chaos seeds)."""
    combos: list[tuple[RunConfig, ChaosConfig]] = []
    for wl in workloads:
        for schedule in schedules:
            for fp in fast_paths:
                for cs in chaos_seeds:
                    cfg = RunConfig(workload=wl, schedule=schedule, fast_path=fp)
                    combos.append((cfg, crash_chaos(cs)))
    return combos


def sweep(
    chaos_seeds: Iterable[int] = (0, 1),
    workloads: Sequence[str] = ("sssp", "accumulate"),
    schedules: Sequence[str] = SCHEDULES,
    routings: Sequence[str] = ROUTINGS,
    fast_paths: Sequence[str] = FAST_PATHS,
    chaos_maker: Callable[[int], ChaosConfig] = default_chaos,
) -> list[tuple[RunConfig, ChaosConfig]]:
    """Enumerate (schedule × routing × fast_path × chaos seed) combos."""
    combos: list[tuple[RunConfig, ChaosConfig]] = []
    for wl in workloads:
        for schedule in schedules:
            for routing in routings:
                for fp in fast_paths:
                    for cs in chaos_seeds:
                        cfg = RunConfig(
                            workload=wl,
                            schedule=schedule,
                            routing=routing,
                            fast_path=fp,
                        )
                        combos.append((cfg, chaos_maker(cs)))
    return combos


def explore(
    combos: Sequence[tuple[RunConfig, ChaosConfig]],
    reliable=None,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> list[Failure]:
    """Run every combo under chaos and diff against its fault-free oracle.

    The oracle is the *same* RunConfig without chaos: chaos (and the
    reliability machinery riding on it) must be observably free.
    """
    failures: list[Failure] = []
    oracles: dict[RunConfig, dict] = {}
    for i, (cfg, chaos) in enumerate(combos):
        if cfg not in oracles:
            oracles[cfg] = run_config(cfg)
        trace: tuple[FaultEvent, ...] = ()
        try:
            machine_trace: list = []
            result = _run_traced(cfg, chaos, reliable, machine_trace)
            trace = tuple(machine_trace)
            mismatches = compare(oracles[cfg], result)
            if mismatches:
                failures.append(Failure(cfg, chaos, mismatches, trace))
        except Exception as exc:  # noqa: BLE001 - harness records, not hides
            failures.append(Failure(cfg, chaos, [], trace, error=repr(exc)))
        if on_progress is not None:
            on_progress(i + 1, len(combos))
    return failures


def _run_traced(cfg, chaos, reliable, sink: list) -> dict:
    """run_config, but capture the chaos trace even if the run fails."""
    machine = Machine(
        n_ranks=N_RANKS,
        schedule=cfg.schedule,
        seed=cfg.machine_seed,
        routing=cfg.routing,
        fast_path=cfg.fast_path,
        detector=cfg.detector,
        chaos=chaos,
        reliable=reliable,
    )
    try:
        return WORKLOADS[cfg.workload](machine, cfg.graph_seed)
    finally:
        if machine.chaos is not None:
            sink.extend(machine.chaos.trace)


# ---------------------------------------------------------------------------
# shrinking (ddmin over the fault trace)
# ---------------------------------------------------------------------------


def _ddmin(items: Sequence, fails: Callable[[Sequence], bool]) -> tuple:
    """Classic ddmin over ``items`` under the ``fails`` predicate, followed
    by a single-element elimination polish.  ``items`` must already fail."""
    current = list(items)
    n = 2
    while len(current) >= 2:
        chunk = math.ceil(len(current) / n)
        reduced = False
        for i in range(n):
            complement = current[: i * chunk] + current[(i + 1) * chunk :]
            if complement and fails(complement):
                current = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), 2 * n)
    # 1-minimality polish: drop any single event that is not needed.
    for i in range(len(current) - 1, -1, -1):
        if len(current) == 1:
            break
        candidate = current[:i] + current[i + 1 :]
        if fails(candidate):
            current = candidate
    return tuple(current)


@dataclass
class Shrinker:
    """Delta-debugging minimizer for failing fault traces.

    Given a configuration and the recorded trace of a failing chaos run,
    finds a (locally) minimal subset of fault events that still makes
    the scripted replay diverge from the fault-free oracle.  Replays are
    fully deterministic, so "still fails" is a pure predicate — though
    removing events shifts later decision indices, which is fine: ddmin
    only ever keeps subsets it has *observed* failing.
    """

    config: RunConfig
    reliable: object = None  # ReliableConfig | bool | None, as Machine takes
    tests_run: int = field(default=0)
    _oracle: Optional[dict] = field(default=None, repr=False)

    def fails(self, events: Sequence[FaultEvent]) -> bool:
        """Does replaying exactly these scripted faults still misbehave?"""
        self.tests_run += 1
        if self._oracle is None:
            self._oracle = run_config(self.config)
        try:
            result = run_config(
                self.config,
                chaos=ChaosConfig(script=tuple(events)),
                reliable=self.reliable,
            )
        except Exception:  # noqa: BLE001 - a crash is a reproduction too
            return True
        return bool(compare(self._oracle, result))

    def shrink(self, events: Sequence[FaultEvent]) -> tuple[FaultEvent, ...]:
        """Classic ddmin, then a final single-event elimination pass."""
        if not self.fails(list(events)):
            raise ValueError("shrink called with a non-failing trace")
        return _ddmin(events, self.fails)


def shrink_trace(
    config: RunConfig,
    trace: Sequence[FaultEvent],
    reliable=None,
) -> tuple[FaultEvent, ...]:
    """Convenience wrapper: minimize ``trace`` for ``config``."""
    return Shrinker(config, reliable).shrink(trace)


# ---------------------------------------------------------------------------
# mutation sweep (dynamic graphs): incremental recompute == from-scratch
# ---------------------------------------------------------------------------
#
# Ops are plain tuples so ddmin can shrink a failing batch:
#   ("insert", u, v[, w])        add an arc (weight only for sssp)
#   ("delete", u, v)             remove an arc (strict=False: subset-safe)
#   ("update", u, v, w)          change an arc weight (sssp only)
#   ("grow", k)                  add k isolated vertices (subset-safe: no op
#                                ever references a vertex another op created)
#   ("swap", u1, v1, u2, v2)     degree-preserving target swap (pagerank:
#                                one op so any subset stays degree-preserving)
# The generator never emits two ops touching the same arc, so *every*
# subset of an op list is a valid batch — the shrinker's predicate is pure.

MUTATION_ALGOS = ("sssp", "bfs", "cc", "pagerank")


@dataclass(frozen=True)
class MutationConfig:
    """One point of the (algorithm × fast_path × transport × seed) space."""

    algorithm: str = "sssp"
    fast_path: str = "compiled"
    transport: str = "sim"
    mutation_seed: int = 0
    graph_seed: int = 3
    n_ops: int = 8
    chaos_seed: int = -1  # >= 0: run the incremental side under chaos
    partition: str = "cyclic"

    def describe(self) -> str:
        extra = f" chaos_seed={self.chaos_seed}" if self.chaos_seed >= 0 else ""
        return (
            f"{self.algorithm} fast_path={self.fast_path} "
            f"transport={self.transport} mutation_seed={self.mutation_seed} "
            f"graph_seed={self.graph_seed} partition={self.partition}{extra}"
        )


def _mutation_base(cfg: MutationConfig):
    """The algorithm's base graph: (n, edges, weights, undirected)."""
    if cfg.algorithm == "pagerank":
        # dyadic, so incremental replay is bit-identical
        return 16, _dyadic_edges(cfg.graph_seed), None, False
    if cfg.algorithm == "cc":
        s, t = erdos_renyi(36, 70, seed=cfg.graph_seed)
        pairs = sorted(
            {(min(a, b), max(a, b)) for a, b in zip(s.tolist(), t.tolist())}
        )
        return 36, pairs, None, True
    s, t = erdos_renyi(48, 130, seed=cfg.graph_seed)
    edges = list(dict.fromkeys(zip(s.tolist(), t.tolist())))
    weights = None
    if cfg.algorithm == "sssp":
        rng = np.random.default_rng(cfg.graph_seed + 1)
        weights = rng.integers(1, 9, size=len(edges)).astype(np.float64)
    return 48, edges, weights, False


def random_mutation_ops(cfg: MutationConfig, n_ops: Optional[int] = None) -> tuple:
    """Seeded random mutation ops for ``cfg`` (every subset stays valid)."""
    n, edges, _w, undirected = _mutation_base(cfg)
    rnd = random.Random(cfg.mutation_seed * 9176 + cfg.graph_seed)
    n_ops = cfg.n_ops if n_ops is None else n_ops
    present = set(edges)
    touched: set = set()
    ops: list[tuple] = []

    if cfg.algorithm == "pagerank":
        arcs = list(edges)
        for _ in range(n_ops):
            for _attempt in range(200):
                (u1, v1), (u2, v2) = rnd.sample(arcs, 2)
                if {(u1, v1), (u2, v2)} & touched:
                    continue
                if u1 == v2 or u2 == v1:  # swap would create a self-loop
                    continue
                if (u1, v2) in present or (u2, v1) in present:
                    continue
                ops.append(("swap", u1, v1, u2, v2))
                touched |= {(u1, v1), (u2, v2), (u1, v2), (u2, v1)}
                present -= {(u1, v1), (u2, v2)}
                present |= {(u1, v2), (u2, v1)}
                break
        return tuple(ops)

    weighted = cfg.algorithm == "sssp"
    kinds = ["delete"] * 4 + ["insert"] * 4 + (["update"] * 3 if weighted else []) + ["grow"]

    def fresh_pair():
        for _attempt in range(200):
            u, v = rnd.randrange(n), rnd.randrange(n)
            if u == v:
                continue
            if undirected:
                u, v = min(u, v), max(u, v)
            if (u, v) in present or (u, v) in touched:
                continue
            return u, v
        return None

    for _ in range(n_ops):
        kind = rnd.choice(kinds)
        if kind == "grow":
            ops.append(("grow", rnd.randrange(1, 4)))
            continue
        if kind == "insert":
            pair = fresh_pair()
            if pair is None:
                continue
            u, v = pair
            op = ("insert", u, v, float(rnd.randrange(1, 9))) if weighted else ("insert", u, v)
            ops.append(op)
            touched.add((u, v))
            present.add((u, v))
            continue
        candidates = [p for p in present if p not in touched]
        if not candidates:
            continue
        u, v = candidates[rnd.randrange(len(candidates))]
        touched.add((u, v))
        if kind == "delete":
            ops.append(("delete", u, v))
            present.discard((u, v))
        else:  # update
            ops.append(("update", u, v, float(rnd.randrange(1, 9))))
    return tuple(ops)


def ops_to_batch(ops: Sequence[tuple], *, undirected: bool = False) -> MutationBatch:
    """Materialize an op list as a MutationBatch (deletes are strict=False
    so shrunk subsets never trip the missing-arc check)."""
    batch = MutationBatch(undirected=undirected)
    for op in ops:
        kind = op[0]
        if kind == "insert":
            batch.insert_edge(op[1], op[2], weight=op[3] if len(op) > 3 else None)
        elif kind == "delete":
            batch.delete_edge(op[1], op[2], strict=False)
        elif kind == "update":
            batch.update_weight(op[1], op[2], op[3])
        elif kind == "grow":
            batch.add_vertices(op[1])
        elif kind == "swap":
            _, u1, v1, u2, v2 = op
            batch.delete_edge(u1, v1, strict=False)
            batch.delete_edge(u2, v2, strict=False)
            batch.insert_edge(u1, v2)
            batch.insert_edge(u2, v1)
        else:
            raise ValueError(f"unknown mutation op {op!r}")
    return batch


def run_mutation_config(
    cfg: MutationConfig, ops: Optional[Sequence[tuple]] = None
) -> list[str]:
    """Run base algorithm -> mutate -> incremental recompute, diff against
    a from-scratch run on the (same, now mutated) graph.  Returns the
    mismatch list (empty = bit-identical)."""
    n, edges, weights, _und = _mutation_base(cfg)
    if ops is None:
        ops = random_mutation_ops(cfg)
    chaos = reliable = None
    if cfg.chaos_seed >= 0:
        chaos = ChaosConfig(
            seed=cfg.chaos_seed, drop=0.12, duplicate=0.08,
            reorder=0.10, reorder_window=4,
        )
        reliable = True
    machine = Machine(
        N_RANKS,
        transport=cfg.transport,
        fast_path=cfg.fast_path,
        chaos=chaos,
        reliable=reliable,
    )
    try:
        if cfg.algorithm == "sssp":
            g, wbg = build_graph(
                n, edges, weights=weights, n_ranks=N_RANKS, partition=cfg.partition
            )
            wm = weight_map_from_array(g, wbg)
            machine.attach_graph(g)
            bp = bind_sssp(machine, g, wm)
            sssp_fixed_point(machine, g, wm, 0, bound=bp)
            delta = machine.apply_mutations(ops_to_batch(ops), weight_map=wm)
            rep = sssp_delta_restart(machine, bp, delta, 0)
            inc = {"dist": rep.values}
            m2 = Machine(N_RANKS, fast_path=cfg.fast_path)
            scratch = {"dist": sssp_fixed_point(m2, g, wm, 0)}
        elif cfg.algorithm == "bfs":
            g, _ = build_graph(n, edges, n_ranks=N_RANKS, partition=cfg.partition)
            machine.attach_graph(g)
            bp = bind(bfs_pattern(), machine, g)
            bp.map("depth")[0] = 0.0
            fixed_point(machine, bp["hop"], [0])
            delta = machine.apply_mutations(ops_to_batch(ops))
            rep = bfs_delta_restart(machine, bp, delta, 0)
            inc = {"depth": rep.values}
            m2 = Machine(N_RANKS, fast_path=cfg.fast_path)
            scratch = {"depth": bfs_fixed_point(m2, g, 0)}
        elif cfg.algorithm == "cc":
            g, _ = build_graph(
                n, edges, directed=False, n_ranks=N_RANKS, partition=cfg.partition
            )
            machine.attach_graph(g)
            bp = bind(cc_label_pattern(), machine, g)
            comp = bp.map("comp")
            for v in g.vertices():
                comp[v] = v
            fixed_point(machine, bp["spread"], list(g.vertices()))
            delta = machine.apply_mutations(ops_to_batch(ops, undirected=True))
            rep = cc_delta_restart(machine, bp, delta)
            inc = {"comp": rep.values}
            m2 = Machine(N_RANKS, fast_path=cfg.fast_path)
            scratch = {"comp": cc_label_propagation(m2, g)}
        elif cfg.algorithm == "pagerank":
            g, _ = build_graph(n, edges, n_ranks=N_RANKS, partition=cfg.partition)
            machine.attach_graph(g)
            ipr = IncrementalPageRank(machine, g, damping=0.5, iterations=10)
            ipr.run()
            delta = machine.apply_mutations(ops_to_batch(ops))
            rep = ipr.recompute(delta)
            inc = {"rank": rep.values}
            m2 = Machine(N_RANKS, fast_path=cfg.fast_path)
            scratch = {
                "rank": pagerank(m2, g, damping=0.5, iterations=10, tol=None)
            }
        else:
            raise ValueError(f"unknown mutation algorithm {cfg.algorithm!r}")
    finally:
        shutdown = getattr(machine, "shutdown", None)
        if shutdown is not None:
            shutdown()
    return compare(scratch, inc)


@dataclass
class MutationFailure:
    """An incremental recompute that diverged from from-scratch (or crashed)."""

    config: MutationConfig
    ops: tuple
    mismatches: list[str]
    error: Optional[str] = None

    def describe(self) -> str:
        what = self.error or "; ".join(self.mismatches)
        return (
            f"{self.config.describe()}\n  ops: {list(self.ops)}\n  -> {what}"
        )


def sweep_mutations(
    mutation_seeds: Iterable[int] = tuple(range(4)),
    algorithms: Sequence[str] = MUTATION_ALGOS,
    fast_paths: Sequence[str] = FAST_PATHS,
    transports: Sequence[str] = ("sim",),
    chaos_seeds: Sequence[int] = (-1,),
) -> list[MutationConfig]:
    """Enumerate (algorithm × fast_path × transport × seed) mutation combos."""
    cfgs: list[MutationConfig] = []
    for algo in algorithms:
        for fp in fast_paths:
            for tp in transports:
                for cs in chaos_seeds:
                    for ms in mutation_seeds:
                        cfgs.append(
                            MutationConfig(
                                algorithm=algo,
                                fast_path=fp,
                                transport=tp,
                                mutation_seed=ms,
                                chaos_seed=cs,
                            )
                        )
    return cfgs


def explore_mutations(
    cfgs: Sequence[MutationConfig],
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> list[MutationFailure]:
    """Run every mutation combo and diff incremental against from-scratch."""
    failures: list[MutationFailure] = []
    for i, cfg in enumerate(cfgs):
        ops = random_mutation_ops(cfg)
        try:
            mismatches = run_mutation_config(cfg, ops)
            if mismatches:
                failures.append(MutationFailure(cfg, ops, mismatches))
        except Exception as exc:  # noqa: BLE001 - harness records, not hides
            failures.append(MutationFailure(cfg, ops, [], error=repr(exc)))
        if on_progress is not None:
            on_progress(i + 1, len(cfgs))
    return failures


@dataclass
class MutationShrinker:
    """ddmin over a failing mutation-op list.

    Because the generator never emits two ops on the same arc (and grown
    vertices are isolated), every subset of an op list is a valid batch,
    so "still fails" is a pure predicate over deterministic replays.
    """

    config: MutationConfig
    tests_run: int = field(default=0)

    def fails(self, ops: Sequence[tuple]) -> bool:
        self.tests_run += 1
        try:
            return bool(run_mutation_config(self.config, tuple(ops)))
        except Exception:  # noqa: BLE001 - a crash is a reproduction too
            return True

    def shrink(self, ops: Sequence[tuple]) -> tuple:
        if not self.fails(list(ops)):
            raise ValueError("shrink called with a non-failing op list")
        return _ddmin(ops, self.fails)


# ---------------------------------------------------------------------------
# CLI (used by the CI chaos job)
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep schedule × routing × fast_path × chaos seed and "
        "diff every run against its fault-free oracle."
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="base chaos seed (CI rotates this); seeds used are base and base+1",
    )
    parser.add_argument(
        "--workloads",
        default="sssp,accumulate",
        help="comma-separated workloads (%s)" % ",".join(sorted(WORKLOADS)),
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="on failure, also shrink the first failing trace before exiting",
    )
    parser.add_argument(
        "--recovery",
        action="store_true",
        help="run the crash+checkpoint/restore sweep instead of the "
        "plain chaos sweep (diffs recovered runs against crash-free "
        "oracles under the same adversary)",
    )
    parser.add_argument(
        "--mutations",
        action="store_true",
        help="run the dynamic-graph sweep instead: random mutation batches "
        "per algorithm, incremental recompute diffed bit-identically "
        "against from-scratch on the mutated graph (ddmin-shrinks the op "
        "list on failure with --shrink)",
    )
    args = parser.parse_args(argv)
    if args.mutations:
        cfgs = sweep_mutations(
            mutation_seeds=tuple(args.chaos_seed + k for k in range(3))
        )
        print(
            f"mutation explorer: {len(cfgs)} (algorithm × fast_path × seed) "
            f"combos (base seed {args.chaos_seed})"
        )
        failures = explore_mutations(cfgs)
        if not failures:
            print(
                f"OK: all {len(cfgs)} incremental recomputes bit-identical "
                "to from-scratch on the mutated graph"
            )
            return 0
        print(f"FAIL: {len(failures)}/{len(cfgs)} combos diverged", file=sys.stderr)
        for f in failures:
            print(f.describe(), file=sys.stderr)
        if args.shrink and failures[0].ops:
            shrinker = MutationShrinker(failures[0].config)
            minimal = shrinker.shrink(failures[0].ops)
            print(
                f"shrunk first failure to {len(minimal)} ops: {list(minimal)}",
                file=sys.stderr,
            )
            print(
                "replay with: run_mutation_config(%r, ops=%r)"
                % (failures[0].config, tuple(minimal)),
                file=sys.stderr,
            )
        return 1
    workloads = tuple(w for w in args.workloads.split(",") if w)
    for w in workloads:
        if w not in WORKLOADS:
            parser.error(f"unknown workload {w!r}")
    if args.recovery:
        combos = sweep_recovery(
            chaos_seeds=tuple(args.chaos_seed + k for k in range(8))
        )
        print(f"recovery explorer: {len(combos)} crash+recover combos")
        failures, crashed = explore_recovery(combos)
        print(f"crashes fired in {crashed}/{len(combos)} combos")
        if not failures and crashed >= len(combos) // 2:
            print(
                f"OK: all {len(combos)} recovered runs bit-identical to "
                "their crash-free oracles"
            )
            return 0
        if crashed < len(combos) // 2:
            print(
                f"FAIL: only {crashed}/{len(combos)} combos crashed; "
                "sweep proves nothing",
                file=sys.stderr,
            )
        for f in failures:
            print(f.describe(), file=sys.stderr)
        return 1
    combos = sweep(
        chaos_seeds=(args.chaos_seed, args.chaos_seed + 1), workloads=workloads
    )
    print(
        f"schedule explorer: {len(combos)} combos "
        f"(chaos seeds {args.chaos_seed}, {args.chaos_seed + 1})"
    )
    failures = explore(combos)
    if not failures:
        print(f"OK: all {len(combos)} combos bit-identical to the fault-free oracle")
        return 0
    print(f"FAIL: {len(failures)}/{len(combos)} combos diverged", file=sys.stderr)
    for f in failures:
        print(f.describe(), file=sys.stderr)
    if args.shrink and failures[0].trace:
        first = failures[0]
        minimal = shrink_trace(first.config, first.trace)
        print(
            f"shrunk first failure to {len(minimal)} events: {list(minimal)}",
            file=sys.stderr,
        )
        print(
            "replay with: run_config(%r, chaos=ChaosConfig(script=%r))"
            % (first.config, tuple(minimal)),
            file=sys.stderr,
        )
    return 1


if __name__ == "__main__":  # pragma: no cover - CI entry point
    raise SystemExit(main())


# re-export for tests
__all__ = [
    "ChaosConfig",
    "Failure",
    "MUTATION_ALGOS",
    "MutationConfig",
    "MutationFailure",
    "MutationShrinker",
    "N_RANKS",
    "ReliableConfig",
    "RunConfig",
    "Shrinker",
    "WORKLOADS",
    "compare",
    "crash_chaos",
    "default_chaos",
    "explore",
    "explore_mutations",
    "explore_recovery",
    "main",
    "ops_to_batch",
    "random_mutation_ops",
    "replace",
    "run_config",
    "run_config_recover",
    "run_mutation_config",
    "shrink_trace",
    "sweep",
    "sweep_mutations",
    "sweep_recovery",
    "uncrashed",
]
