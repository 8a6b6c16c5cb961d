"""Differential tests for the execution fast paths.

The interpreted walk (``fast_path="off"``) is the correctness oracle; the
compiled walk and the vectorized batch path must produce **bit-identical
property maps** and the **same dependent-vertex sets** on every workload,
graph family, transport, and layer configuration tried here (paper
Sec. IV-A: merging gives single-vertex consistency, which batching must
preserve).

Counters that describe *how* work happened (change/assign counts, number
of work-hook firings) are allowed to differ between paths; outputs and
dependent sets are not.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.bfs import bfs_pattern, bfs_reference
from repro.algorithms.cc import (
    cc_label_pattern,
    connected_components,
)
from repro.algorithms.sssp import (
    bind_sssp,
    dijkstra_reference,
    sssp_delta_stepping,
)
from repro.graph import build_graph, erdos_renyi, rmat, uniform_weights
from repro.patterns import bind
from repro.runtime import ChaosConfig
from repro.runtime import transport as transport_mod
from repro.runtime.machine import FAST_PATHS, Machine
from repro.runtime.wire import WireBatch

from ..tiers import CELLS, FUSED, cell_seed, tier

MODES = list(FAST_PATHS)


# ---------------------------------------------------------------------------
# graph fixtures
# ---------------------------------------------------------------------------


def er_instance(n=120, avg_deg=5, seed=3, n_ranks=4, partition="block"):
    m = n * avg_deg
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1.0, 10.0, seed=seed + 1)
    g, wbg = build_graph(
        n, list(zip(s, t)), weights=w, n_ranks=n_ranks, partition=partition
    )
    return g, wbg, s, t


def rmat_instance(scale=7, edge_factor=6, seed=5, n_ranks=4):
    s, t = rmat(scale, edge_factor=edge_factor, seed=seed)
    w = uniform_weights(len(s), 1.0, 10.0, seed=seed + 1)
    g, wbg = build_graph(
        1 << scale, list(zip(s, t)), weights=w, n_ranks=n_ranks, partition="cyclic"
    )
    return g, wbg, s, t


GRAPHS = {"er": er_instance, "rmat": rmat_instance}


# ---------------------------------------------------------------------------
# drivers that record the dependent-vertex set
# ---------------------------------------------------------------------------


def _chase(machine, action, starts):
    """fixed_point with a recording work hook; returns the dependent set."""
    seen: set[int] = set()

    def hook(ctx, w):
        seen.add(int(w))
        action.invoke_from(ctx, w)

    action.work = hook
    with machine.epoch() as ep:
        for v in starts:
            action.invoke(ep, v)
    return seen


def run_sssp(machine, graph, wbg, source, layers=None):
    bp = bind_sssp(machine, graph, wbg, layers=layers)
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[source] = 0.0
    deps = _chase(machine, bp["relax"], [source])
    return dist.to_array(), deps


def run_bfs(machine, graph, layers=None):
    bp = bind(bfs_pattern(), machine, graph, layers=layers)
    depth = bp.map("depth")
    depth[0] = 0.0
    deps = _chase(machine, bp["hop"], [0])
    return depth.to_array(), deps


def run_cc_labelprop(machine, graph, layers=None):
    bp = bind(cc_label_pattern(), machine, graph, layers=layers)
    comp = bp.map("comp")
    for v in graph.vertices():
        comp[v] = v
    deps = _chase(machine, bp["spread"], list(graph.vertices()))
    return comp.to_array(), deps


def make_machine(fast_path, transport="sim"):
    return Machine(n_ranks=4, transport=transport, fast_path=tier(fast_path))


def vector_items(machine):
    return sum(ts.vector_items for ts in machine.stats.by_type.values())


# ---------------------------------------------------------------------------
# sim transport: all graphs x modes x layer configs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("coalescing", [None, 32])
def test_sssp_differential_sim(graph_name, coalescing):
    g, wbg, s, t = GRAPHS[graph_name]()
    layers = {"relax": {"coalescing": coalescing}} if coalescing else None
    results = {}
    for fp in MODES:
        m = make_machine(fp)
        results[fp] = run_sssp(m, g, wbg, 0, layers=layers)
        if fp == "vector" and coalescing:
            assert vector_items(m) > 0, "vector batch kernel never fired"
    dist0, deps0 = results["off"]
    ref = dijkstra_reference(g.n_vertices, s, t, wbg_to_input(g, wbg, s, t), 0)
    assert np.allclose(dist0[np.isfinite(dist0)], ref[np.isfinite(dist0)])
    for fp in MODES[1:]:
        dist, deps = results[fp]
        assert np.array_equal(dist0, dist), f"dist mismatch off vs {fp}"
        assert deps0 == deps, f"dependent set mismatch off vs {fp}"


def wbg_to_input(graph, wbg, s, t):
    """Per-input-arc weights for the sequential oracle."""
    # dijkstra_reference signature: (n, sources, targets, weights, source)
    # weights must align with the input edge list; recover them by walking
    # the graph's stored arcs (gid order) back to input order is overkill —
    # the oracle only needs *some* consistent weighting, so rebuild from
    # the property map via matching arcs.
    w_in = np.empty(len(s))
    from collections import defaultdict

    pool = defaultdict(list)
    for gid, ss, tt in graph.edges():
        pool[(ss, tt)].append(wbg[gid])
    for i, (ss, tt) in enumerate(zip(s.tolist(), t.tolist())):
        w_in[i] = pool[(ss, tt)].pop()
    return w_in


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("coalescing", [None, 16])
def test_bfs_differential_sim(graph_name, coalescing):
    g, _, s, t = GRAPHS[graph_name]()
    layers = {"hop": {"coalescing": coalescing}} if coalescing else None
    results = {fp: run_bfs(make_machine(fp), g, layers=layers) for fp in MODES}
    depth0, deps0 = results["off"]
    assert np.array_equal(depth0, bfs_reference(g.n_vertices, s, t, 0))
    for fp in MODES[1:]:
        depth, deps = results[fp]
        assert np.array_equal(depth0, depth), f"depth mismatch off vs {fp}"
        assert deps0 == deps, f"dependent set mismatch off vs {fp}"


@pytest.mark.parametrize("coalescing", [None, 16])
def test_cc_labelprop_differential_sim(coalescing):
    s, t = erdos_renyi(150, 220, seed=9)
    g, _ = build_graph(150, list(zip(s, t)), directed=False, n_ranks=4)
    layers = {"spread": {"coalescing": coalescing}} if coalescing else None
    results = {}
    for fp in MODES:
        m = make_machine(fp)
        results[fp] = run_cc_labelprop(m, g, layers=layers)
        if fp == "vector" and coalescing:
            assert vector_items(m) > 0
    comp0, deps0 = results["off"]
    for fp in MODES[1:]:
        comp, deps = results[fp]
        assert np.array_equal(comp0, comp), f"comp mismatch off vs {fp}"
        assert deps0 == deps, f"dependent set mismatch off vs {fp}"


def test_full_cc_falls_back_and_matches():
    """The paper's full CC pattern is NOT vectorizable; under
    fast_path="vector" it must fall back to the scalar path and still
    match the oracle exactly."""
    s, t = erdos_renyi(120, 150, seed=11)
    g, _ = build_graph(120, list(zip(s, t)), directed=False, n_ranks=4)
    labels = {}
    for fp in MODES:
        m = make_machine(fp)
        labels[fp] = connected_components(m, g)
        if fp == "vector":
            # cc_search / cc_jump have multi-condition plans: no batch
            # kernels may have been installed for them
            for name, mt in ((n, m.registry.by_name(n)) for n in m.stats.by_type):
                if "cc_" in name:
                    assert mt.batch_handler is None
    assert np.array_equal(labels["off"], labels["compiled"])
    assert np.array_equal(labels["off"], labels["vector"])


def test_delta_stepping_differential_sim():
    g, wbg, s, t = rmat_instance(scale=7, edge_factor=6, seed=13)
    dists = {}
    for fp in MODES:
        m = make_machine(fp)
        dists[fp] = sssp_delta_stepping(
            m, g, wbg, 0, 3.0, layers={"relax": {"coalescing": 64}}
        )
        if fp == "vector":
            assert vector_items(m) > 0
    assert np.array_equal(dists["off"], dists["compiled"])
    assert np.array_equal(dists["off"], dists["vector"])


# ---------------------------------------------------------------------------
# threads transport
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fast_path", CELLS)
def test_sssp_differential_threads(fast_path):
    g, wbg, s, t = er_instance(n=80, avg_deg=4, seed=21)
    ref_m = make_machine("off")
    dist0, deps0 = run_sssp(ref_m, g, wbg, 0)
    m = make_machine(fast_path, transport="threads")
    try:
        dist, deps = run_sssp(m, g, wbg, 0, layers={"relax": {"coalescing": 16}})
    finally:
        m.shutdown()
    assert np.array_equal(dist0, dist)
    assert deps0 == deps


@pytest.mark.parametrize("fast_path", CELLS)
def test_bfs_differential_threads(fast_path):
    g, _, s, t = er_instance(n=80, avg_deg=4, seed=22)
    dist0, deps0 = run_bfs(make_machine("off"), g)
    m = make_machine(fast_path, transport="threads")
    try:
        depth, deps = run_bfs(m, g, layers={"hop": {"coalescing": 16}})
    finally:
        m.shutdown()
    assert np.array_equal(dist0, depth)
    assert deps0 == deps


# ---------------------------------------------------------------------------
# process transport: one OS process per rank, shared-memory maps, binary wire
# ---------------------------------------------------------------------------
#
# The process backend runs handlers in forked worker processes; payloads
# cross rank boundaries through the binary wire codec and results land in
# shared-memory property-map segments.  The OS scheduler owns the
# interleaving, so *counters* (handler calls, sends) are schedule-dependent
# — but property maps and dependent-vertex sets must still be bit-identical
# to the deterministic sim oracle.


@pytest.mark.parametrize("fast_path", CELLS)
def test_sssp_differential_process(fast_path):
    g, wbg, s, t = er_instance(n=80, avg_deg=4, seed=21)
    dist0, deps0 = run_sssp(make_machine("off"), g, wbg, 0)
    m = make_machine(fast_path, transport="process")
    try:
        dist, deps = run_sssp(m, g, wbg, 0, layers={"relax": {"coalescing": 16}})
    finally:
        m.shutdown()
    assert np.array_equal(dist0, dist), f"dist mismatch sim-off vs process-{fast_path}"
    assert deps0 == deps, f"dependent set mismatch sim-off vs process-{fast_path}"


@pytest.mark.parametrize("fast_path", CELLS)
def test_bfs_differential_process(fast_path):
    g, _, s, t = er_instance(n=80, avg_deg=4, seed=22)
    depth0, deps0 = run_bfs(make_machine("off"), g)
    m = make_machine(fast_path, transport="process")
    try:
        depth, deps = run_bfs(m, g, layers={"hop": {"coalescing": 16}})
    finally:
        m.shutdown()
    assert np.array_equal(depth0, depth)
    assert deps0 == deps


@pytest.mark.parametrize("fast_path", ["off", "vector"])
def test_cc_labelprop_differential_process(fast_path):
    s, t = erdos_renyi(100, 150, seed=9)
    g, _ = build_graph(100, list(zip(s, t)), directed=False, n_ranks=4)
    comp0, deps0 = run_cc_labelprop(make_machine("off"), g)
    m = make_machine(fast_path, transport="process")
    try:
        comp, deps = run_cc_labelprop(
            m, g, layers={"spread": {"coalescing": 16}}
        )
    finally:
        m.shutdown()
    assert np.array_equal(comp0, comp)
    assert deps0 == deps


def test_delta_stepping_differential_process():
    g, wbg, s, t = rmat_instance(scale=7, edge_factor=6, seed=13)
    layers = {"relax": {"coalescing": 64}}
    ref = sssp_delta_stepping(make_machine("off"), g, wbg, 0, 3.0, layers=layers)
    m = make_machine("vector", transport="process")
    try:
        dist = sssp_delta_stepping(m, g, wbg, 0, 3.0, layers=layers)
        assert vector_items(m) > 0, "vector batch kernel never fired on process"
    finally:
        m.shutdown()
    assert np.array_equal(ref, dist)


@pytest.mark.parametrize("fast_path", ["vector", FUSED])
def test_batch_work_hook_differential_process(fast_path):
    """The batch form of the dependency hook closes over driver state, so
    on the process transport it must run parent-side like the per-vertex
    one: workers record each envelope's dependents, the parent replays
    them through ``work_many`` with the owner's rank.  A hook the workers
    called themselves would fill a forked copy of ``seen`` and re-invoke
    nothing the parent knows of — a silently wrong fixed point."""
    g, wbg, s, t = er_instance(n=80, avg_deg=4, seed=21)
    dist0, deps0 = run_sssp(make_machine("off"), g, wbg, 0)
    m = make_machine(fast_path, transport="process")
    try:
        bp = bind_sssp(m, g, wbg, layers={"relax": {"coalescing": 16}})
        relax, dist = bp["relax"], bp.map("dist")
        dist.fill(math.inf)
        dist[0] = 0.0
        batches: list = []

        def hook_many(ctx, ws):
            batches.append((ctx.rank, ws.tolist()))
            relax.invoke_many_from(ctx, ws)

        relax.work = lambda ctx, w: pytest.fail("per-vertex hook used")
        relax.work_many = hook_many
        with m.epoch() as ep:
            relax.invoke_many(ep, [0])
        result = dist.to_array()
    finally:
        m.shutdown()
    assert np.array_equal(dist0, result)
    assert {w for _r, ws in batches for w in ws} == deps0
    assert all(g.owner(w) == r for r, ws in batches for w in ws)
    assert max(len(ws) for _r, ws in batches) > 1, "no envelope had >1 dependent"


def test_logical_accounting_process_matches_sim():
    """On a single-shot fan-out (no handler re-sends), logical counts are
    schedule-independent, so the merged worker stats must agree exactly
    with the sim transport: one handler call and one coalesced item per
    payload, identical coalesced flush counts per destination."""
    n_msgs = 64

    def run(transport):
        m = Machine(n_ranks=4, transport=transport)
        try:
            m.register(
                "fan",
                lambda ctx, p: None,
                dest_rank_of=lambda p: p[0] % 4,
                coalescing=8,
            )
            with m.epoch() as ep:
                for i in range(n_msgs):
                    ep.invoke("fan", (i,))
            ts = m.stats.by_type["fan"]
            return ts.handler_calls, ts.coalesced_items, ts.coalesced_flushes
        finally:
            m.shutdown()

    assert run("process") == run("sim")


CHAOS_SEEDS_PROCESS = [0, 1, 2, 3, 4]


@pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS_PROCESS)
def test_sssp_chaos_on_process(chaos_seed):
    """Chaos faults injected inside worker processes (and on the parent's
    driver sends) must be fully absorbed by reliable delivery: maps and
    dependent sets stay bit-identical to the fault-free sim oracle.  Only
    the aggregate fault counter is asserted — per-kind counts depend on
    the OS interleaving."""
    g, wbg, s, t = er_instance(n=80, avg_deg=4, seed=21)
    dist0, deps0 = run_sssp(make_machine("off"), g, wbg, 0)
    m = Machine(
        n_ranks=4,
        transport="process",
        fast_path="vector",
        chaos=ChaosConfig(seed=chaos_seed, drop=0.12, duplicate=0.10, reorder=0.10),
        reliable=True,
    )
    try:
        dist, deps = run_sssp(m, g, wbg, 0, layers={"relax": {"coalescing": 16}})
        faults = m.stats.chaos.faults_injected
    finally:
        m.shutdown()
    assert np.array_equal(dist0, dist), f"dist mismatch under chaos seed {chaos_seed}"
    assert deps0 == deps, f"dependent set mismatch under chaos seed {chaos_seed}"
    assert faults > 0, "chaos config injected no faults"


# ---------------------------------------------------------------------------
# chaos: faults on the batch wire must not leak through the fast paths
# ---------------------------------------------------------------------------
#
# The vector batch path consumes whole coalesced envelopes at once; under
# chaos an envelope may arrive split in half, duplicated, or late.  Each
# fast path must still produce the exact property maps and dependent sets
# of the fault-free interpreted oracle — the reliable layer re-registers
# split halves under fresh sequence numbers and suppresses duplicates
# before the batch kernel ever sees them.

CHAOS_SEEDS = [0, 1, 2, 3]


def make_chaos_machine(fast_path, seed):
    return Machine(
        n_ranks=4,
        fast_path=tier(fast_path),
        chaos=ChaosConfig(
            seed=cell_seed(fast_path, seed),
            drop=0.08, duplicate=0.10, reorder=0.08, split=0.20,
        ),
        reliable=True,
    )


@pytest.mark.parametrize("fast_path", CELLS)
@pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
def test_sssp_differential_chaos(fast_path, chaos_seed):
    g, wbg, s, t = er_instance()
    layers = {"relax": {"coalescing": 32}}
    dist0, deps0 = run_sssp(make_machine("off"), g, wbg, 0, layers=layers)
    m = make_chaos_machine(fast_path, chaos_seed)
    dist, deps = run_sssp(m, g, wbg, 0, layers=layers)
    assert np.array_equal(dist0, dist), f"dist mismatch under chaos ({fast_path})"
    assert deps0 == deps, f"dependent set mismatch under chaos ({fast_path})"
    # the split fault must actually have exercised envelope splitting
    assert m.stats.chaos.split_envelopes > 0, "no coalesced envelope was split"
    assert m.stats.chaos.duplicates_suppressed > 0
    if tier(fast_path) == "vector":
        assert vector_items(m) > 0, "vector batch kernel never fired under chaos"


@pytest.mark.parametrize("fast_path", CELLS)
@pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
def test_bfs_differential_chaos(fast_path, chaos_seed):
    g, _, s, t = er_instance(seed=4)
    layers = {"hop": {"coalescing": 16}}
    depth0, deps0 = run_bfs(make_machine("off"), g, layers=layers)
    m = make_chaos_machine(fast_path, chaos_seed)
    depth, deps = run_bfs(m, g, layers=layers)
    assert np.array_equal(depth0, depth)
    assert deps0 == deps
    assert m.stats.chaos.faults_injected > 0


@pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
def test_delta_stepping_vector_chaos(chaos_seed):
    g, wbg, s, t = rmat_instance(scale=6, edge_factor=5, seed=17)
    layers = {"relax": {"coalescing": 64}}
    ref = sssp_delta_stepping(make_machine("off"), g, wbg, 0, 3.0, layers=layers)
    m = make_chaos_machine("vector", chaos_seed)
    dist = sssp_delta_stepping(m, g, wbg, 0, 3.0, layers=layers)
    assert np.array_equal(ref, dist)
    assert vector_items(m) > 0
    assert m.stats.chaos.split_envelopes > 0


def count_column_deliveries(action):
    """Wrap ``action``'s batch handler; returns the list its column-batch
    row counts are appended to."""
    seen: list[int] = []
    inner = action.mtype.batch_handler

    def counting(ctx, payloads):
        if isinstance(payloads, WireBatch):
            seen.append(len(payloads))
        inner(ctx, payloads)

    action.mtype.batch_handler = counting
    return seen


@pytest.mark.parametrize(
    "fault", [{"drop": 0.15}, {"duplicate": 0.25}, {"split": 0.5}], ids=lambda f: next(iter(f))
)
@pytest.mark.parametrize("chaos_seed", [0, 1])
def test_column_batches_survive_chaos(fault, chaos_seed):
    """Each fault kind alone, on envelopes that are column batches: a
    dropped one is retransmitted, a duplicated one shares its (read-only)
    columns between deliveries, a split one yields two column halves."""
    g, wbg, s, t = er_instance()
    layers = {"relax": {"coalescing": 32}}
    dist0, deps0 = run_sssp(make_machine("off"), g, wbg, 0, layers=layers)
    m = Machine(
        n_ranks=4,
        fast_path="vector",
        chaos=ChaosConfig(seed=chaos_seed, **fault),
        reliable=True,
    )
    bp = bind_sssp(m, g, wbg, layers=layers)
    seen = count_column_deliveries(bp["relax"])
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[0] = 0.0
    deps = _chase(m, bp["relax"], [0])
    assert np.array_equal(dist0, dist.to_array())
    assert deps0 == deps
    assert m.stats.chaos.faults_injected > 0
    assert vector_items(m) > 0
    assert seen, "no envelope was delivered as a column batch"
    if "split" in fault:
        assert m.stats.chaos.split_envelopes > 0
        assert min(seen) < 16, "no split half arrived as a column batch"


# ---------------------------------------------------------------------------
# the columnar message path vs its row-at-a-time fallback
# ---------------------------------------------------------------------------
#
# With telemetry spans on (every row must get its span) or a layer stack
# that is not one coalescing layer, the vector fan-out iterates its columns
# and sends row by row; otherwise it hands column batches to the
# coalescing layer.  Same rows, same flush boundaries: maps and every
# logical counter must agree.


def columnar_instance():
    """R-MAT scale 7 with a self-loop on the source and a reachable
    zero-out-degree vertex (a generator start that fans out nothing)."""
    s, t = rmat(7, edge_factor=6, seed=5)
    n = 1 << 7
    source = int(np.argmax(np.bincount(s, minlength=n)))
    s = np.append(s, source)
    t = np.append(t, source)
    w = uniform_weights(len(s), 1.0, 10.0, seed=6)
    g, wbg = build_graph(n, list(zip(s, t)), weights=w, n_ranks=4, partition="cyclic")
    return g, wbg, s, t, w, source


def logical_stats(machine):
    """``machine.stats`` as plain data without the wall-clock fields."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if "seconds" not in k}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return strip(machine.stats.checkpoint_state())


def test_columnar_path_matches_row_fallback_sim(monkeypatch):
    # The spans-on side never merges queued envelopes, so deliver the
    # columnar side one envelope per call too; merged delivery has its
    # own gate in test_merged_delivery.py.
    monkeypatch.setattr(transport_mod, "MERGE_ROWS", 0)
    g, wbg, s, t, w, source = columnar_instance()
    ref = dijkstra_reference(g.n_vertices, s, t, w, source)
    out_degree = np.bincount(s, minlength=g.n_vertices)
    assert (s == t).any() and ((out_degree == 0) & np.isfinite(ref)).any()
    layers = {"relax": {"coalescing": 16}}
    results = {}
    for telemetry in ("off", "spans"):
        m = Machine(
            n_ranks=4, fast_path="vector", schedule="round_robin", telemetry=telemetry
        )
        bp = bind_sssp(m, g, wbg, layers=layers)
        seen = count_column_deliveries(bp["relax"])
        dist = sssp_delta_stepping(m, g, wbg, source, 3.0, bound=bp)
        results[telemetry] = (dist, logical_stats(m), len(seen))
    dist_cols, stats_cols, n_cols = results["off"]
    dist_rows, stats_rows, n_rows = results["spans"]
    assert n_cols > 0 and n_rows == 0, "spans must take the row fallback"
    assert np.array_equal(dist_cols, ref) and np.array_equal(dist_rows, ref)
    assert stats_cols == stats_rows
    assert stats_cols["total"]["handler_calls"] > 0


def test_columnar_path_matches_row_fallback_process():
    g, wbg, s, t, w, source = columnar_instance()
    ref = dijkstra_reference(g.n_vertices, s, t, w, source)
    layers = {"relax": {"coalescing": 16}}
    for telemetry in ("off", "spans"):
        m = Machine(n_ranks=4, transport="process", fast_path="vector", telemetry=telemetry)
        try:
            dist = sssp_delta_stepping(m, g, wbg, source, 3.0, layers=layers)
            items = vector_items(m)
        finally:
            m.shutdown()
        assert np.array_equal(dist, ref), telemetry
        assert items > 0


@pytest.mark.parametrize("fast_path", CELLS)
def test_out_of_range_target_raises_on_every_path(fast_path):
    """Bounds parity: a corrupt arc target raises ``IndexError`` from the
    columnar fan-out's one ``owner_array`` call exactly as it does from
    ``Partition.owner`` on the scalar send path."""
    g, wbg, s, t = er_instance(n=40, avg_deg=3, seed=9)
    m = Machine(n_ranks=4, fast_path=tier(fast_path))
    bp = bind_sssp(m, g, wbg, layers={"relax": {"coalescing": 8}})
    csr = g.locals[g.owner(0)]
    saved = csr.targets.copy()
    csr.targets[: csr.indptr[1]] = g.n_vertices + 3  # vertex 0's arcs
    assert csr.indptr[1] > 0
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[0] = 0.0
    try:
        with pytest.raises(IndexError, match="out of range"):
            with m.epoch() as ep:
                bp["relax"].invoke(ep, 0)
    finally:
        csr.targets[:] = saved


def test_out_of_range_owner_rank_raises_on_columnar_path():
    g, wbg, s, t = er_instance(n=40, avg_deg=3, seed=9)
    m = Machine(n_ranks=4, fast_path="vector")
    bp = bind_sssp(m, g, wbg, layers={"relax": {"coalescing": 8}})
    g.partition.owner_array = lambda vs: np.full(len(vs), 4)
    bp.map("dist")[0] = 0.0
    try:
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            with m.epoch() as ep:
                bp["relax"].invoke(ep, 0)
    finally:
        del g.partition.owner_array


# ---------------------------------------------------------------------------
# observability must not perturb execution
# ---------------------------------------------------------------------------
#
# The flight recorder and health watchdogs are *always on* by default, so
# the differential matrix gets an observe column: every fast path must
# produce bit-identical maps, dependent sets, and logical counters whether
# observability is fully disarmed (observe=False), on (the default), or
# serving a live HTTP endpoint (observe=True).

OBSERVE_MODES = [False, None, True]


@pytest.mark.parametrize("fast_path", CELLS)
def test_sssp_differential_observe(fast_path):
    g, wbg, s, t = er_instance(n=80, avg_deg=4, seed=33)
    results = {}
    for observe in OBSERVE_MODES:
        m = Machine(n_ranks=4, fast_path=tier(fast_path), observe=observe)
        try:
            if observe is True:
                assert m.observer is not None and m.observer.port
            dist, deps = run_sssp(
                m, g, wbg, 0, layers={"relax": {"coalescing": 16}}
            )
            summary = {
                k: v for k, v in m.stats.summary().items()
                if "seconds" not in k  # wall time is inherently noisy
            }
        finally:
            m.shutdown()
        results[repr(observe)] = (dist, deps, summary)
        if observe is False:
            assert len(m.flight) == 0, "observe=False must disarm flight"
            assert m.stats.health.progress_ticks == 0
        else:
            assert len(m.flight) > 0, "default observe must record flight"
            assert m.stats.health.progress_ticks > 0
    dist0, deps0, summ0 = results["False"]
    for key, (dist, deps, summ) in results.items():
        assert np.array_equal(dist0, dist), f"dist mismatch False vs {key}"
        assert deps0 == deps, f"dependent set mismatch False vs {key}"
        assert summ0 == summ, f"logical counters mismatch False vs {key}"


# ---------------------------------------------------------------------------
# flag plumbing
# ---------------------------------------------------------------------------


def test_bad_fast_path_rejected():
    with pytest.raises(ValueError, match="fast_path"):
        Machine(n_ranks=2, fast_path="turbo")


def test_stats_report_shows_vector_deliveries():
    g, wbg, _, _ = er_instance(n=60, avg_deg=4, seed=30)
    m = make_machine("vector")
    run_sssp(m, g, wbg, 0, layers={"relax": {"coalescing": 32}})
    rep = m.stats.report()
    assert "vector" in rep and "avgbatch" in rep
    summary = m.stats.summary()
    assert summary["vector_items"] > 0
    assert summary["batch_deliveries"] >= summary["vector_deliveries"] > 0


def test_columnar_starts_count_as_vector_items():
    """Start frames and tuple-row starts are fanned out by the columnar
    kernel, so no ``relax`` delivery of a coalesced Delta-stepping run is
    scalar: ``scalar_deliveries = handler_calls - vector_items`` is 0."""
    g, wbg, _, _ = rmat_instance(scale=10, edge_factor=8, seed=1)
    m = make_machine("vector")
    bp = bind_sssp(m, g, wbg, layers={"relax": {"coalescing": 64}})
    sssp_delta_stepping(m, g, wbg, 0, 3.0, bound=bp)
    ts = m.stats.by_type[bp["relax"].mtype.name]
    assert ts.handler_calls > 0
    assert ts.scalar_deliveries == 0
