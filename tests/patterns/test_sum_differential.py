"""The gate for the vector tier's ``+=`` path (:class:`~repro.patterns.planner.Sum`).

A sum is order-sensitive: float addition does not associate, so the
vector tier must apply every delivery's rows in arrival order and must
send, flush and deliver exactly what the scalar walk does.  Then it is
bitwise the ``off`` oracle, which this file checks on ``sim`` over every
schedule, ranks 1-4, coalescing none/1/5/64, ``cyclic`` and ``block``
partitions and two R-MAT seeds:

* the maps are bitwise equal (non-dyadic floats, self-loops, and
  contributions of ``0.0``, ``-0.0`` and NaN, so any reordering or a
  skipped/added zero shows);
* the logical counters are equal: handler calls, work items, local and
  remote sends, coalesced flushes, change and assign counts;
* coalesced rows really took the column path (``vector_items > 0``).

A ``+=`` whose value or test reads the property it adds into is no
``Sum``: on a self-loop the scalar walk reads the updated value, a
column fan-out the old one.  ``test_sum_reading_its_own_target_*``
checks that the planner refuses it and the row walk stays bitwise
``off`` (both cells fail when the planner takes it).

Two named cells pin the ordering traps (see :meth:`BoundAction._batch_rows`
and :meth:`CoalescingLayer.send_rows_in_order`): each fails when its fix
is reverted.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.kcore import k_core, kcore_pattern
from repro.algorithms.pagerank import (
    pagerank_async,
    pagerank_async_pattern,
    pagerank_pattern,
)
from repro.graph import build_graph, rmat
from repro.patterns import Pattern, bind, compile_action, trg
from repro.runtime.machine import Machine
from repro.runtime.wire import WireBatch

SCHEDULES = [("round_robin", 0), ("random", 1), ("fifo", 0), ("lifo", 0)]
COALESCING = [None, 1, 5, 64]
PARTITIONS = ["cyclic", "block"]
SEEDS = [1, 2]


def sum_graph(seed: int, n_ranks: int, partition: str, scale: int = 7):
    """R-MAT arcs plus extra self-loops (one vertex carries three)."""
    s, t = rmat(scale, edge_factor=4, seed=seed)
    n = 1 << scale
    loops = np.array([0, 3, 3, 3, n - 1, n // 2], dtype=np.int64)
    src = np.concatenate([s, loops])
    dst = np.concatenate([t, loops])
    g, _ = build_graph(
        n, np.column_stack((src, dst)), n_ranks=n_ranks, partition=partition
    )
    return g


def sum_values(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-dyadic contributions with ``0.0``, ``-0.0`` and a NaN mixed
    in, and non-dyadic starting sums (some ``-0.0``, which a ``+0.0``
    add would flip)."""
    rng = np.random.default_rng(seed)
    contrib = rng.uniform(-1.0, 1.0, n) / 3.0
    contrib[rng.choice(n, n // 8, replace=False)] = 0.0
    contrib[rng.choice(n, n // 8, replace=False)] = -0.0
    contrib[seed % n] = math.nan
    acc = rng.uniform(0.0, 1.0, n) / 7.0
    acc[rng.choice(n, n // 8, replace=False)] = -0.0
    return contrib, acc


def gated_pattern() -> Pattern:
    """A sum whose test and value are independent: zero values pass the
    test, so the ``delta != 0`` rule is what skips them.  The value is a
    product folded at the source; the test is a boolean combination."""
    p = Pattern("SUMX")
    val = p.vertex_prop("val", float, default=0.0)
    live = p.vertex_prop("live", float, default=0.0)
    w = p.edge_prop("w", float)
    acc = p.vertex_prop("acc", float, default=0.0)
    a = p.action("scatter")
    v = a.input
    e = a.out_edges()
    with a.when((live[v] != 0.0).and_((val[v] > 0.25).not_())):
        a.add(acc[trg(e)], val[v] * w[e])
    return p


def self_read_pattern(where: str) -> Pattern:
    """``acc[trg(e)] += ...`` whose value (``where="value"``) or test
    (``where="test"``) reads ``acc`` at the input vertex.  The scalar walk
    reads ``acc[v]`` per edge, after a self-loop's add has landed, so no
    column fan-out that reads every edge's value first may take it."""
    p = Pattern("SELFREAD")
    val = p.vertex_prop("val", float, default=0.0)
    acc = p.vertex_prop("acc", float, default=0.0)
    a = p.action("scatter")
    v = a.input
    e = a.out_edges()
    if where == "value":
        with a.when(val[v] != 0.0):
            a.add(acc[trg(e)], acc[v])
    else:
        with a.when(acc[v] > 0.1):
            a.add(acc[trg(e)], val[v])
    return p


def run_sum(
    which: str,
    fast_path: str,
    *,
    schedule=("round_robin", 0),
    n_ranks: int = 4,
    coalescing=64,
    partition: str = "cyclic",
    seed: int = 1,
    scale: int = 7,
    rounds: int = 2,
    rechase: bool = False,
) -> tuple[bytes, dict, int]:
    """Scatter from every vertex, ``rounds`` epochs; returns the map's
    bytes, the logical counters and the rows the batch kernels ran.  With ``rechase`` the work hook
    re-invokes the action from each vertex the first time it changes, so
    the hook's sends interleave with the fan-out's rows."""
    g = sum_graph(seed, n_ranks, partition, scale)
    n = g.n_vertices
    m = Machine(n_ranks, fast_path=fast_path, schedule=schedule[0], seed=schedule[1])
    layers = None if coalescing is None else {"scatter": {"coalescing": coalescing}}
    contrib, acc0 = sum_values(n, seed)
    if which == "pagerank":
        bp = bind(pagerank_pattern(), m, g, layers=layers)
        bp.map("contrib").from_array(contrib)
    elif which.startswith("self_"):
        bp = bind(self_read_pattern(which[len("self_"):]), m, g, layers=layers)
        bp.map("val").from_array(contrib)
    else:
        bp = bind(gated_pattern(), m, g, layers=layers)
        bp.map("val").from_array(contrib)
        live = np.ones(n)
        live[::5] = 0.0
        live[1::7] = math.nan
        bp.map("live").from_array(live)
        w = bp.map("w")
        w.from_array(np.random.default_rng(seed + 7).uniform(0.1, 2.0, g.n_edges) / 3.0)
    bp.map("acc").from_array(acc0)
    scatter = bp["scatter"]
    if rechase:
        seen: set = set()

        def hook(ctx, w):
            if w not in seen:
                seen.add(w)
                scatter.invoke_from(ctx, w)

        scatter.work = hook
    for _ in range(rounds):
        with m.epoch() as ep:
            scatter.invoke_many(ep, np.arange(n))
    st = m.stats.by_type[scatter.mtype.name]
    counters = {
        "handler_calls": st.handler_calls,
        "work_items": m.stats.total.work_items,
        "sent_local": st.sent_local,
        "sent_remote": st.sent_remote,
        "coalesced_flushes": st.coalesced_flushes,
        "change_count": scatter.change_count,
        "assign_count": scatter.assign_count,
    }
    vector_items = st.vector_items
    vectorised = fast_path == "vector" and not which.startswith("self_")
    assert vectorised == (scatter.vector_plan is not None)
    m.shutdown()
    return bp.map("acc").to_array().tobytes(), counters, vector_items


def assert_same(which: str, **cell) -> None:
    acc_off, c_off, _ = run_sum(which, "off", **cell)
    acc_vec, c_vec, vector_items = run_sum(which, "vector", **cell)
    assert c_vec == c_off
    assert acc_vec == acc_off, "maps differ bitwise"
    # Only coalesced envelopes reach the batch handler; an uncoalesced
    # row is one scalar delivery.
    assert (vector_items > 0) == (cell.get("coalescing", 64) is not None)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("coalescing", COALESCING, ids=lambda c: f"coal{c}")
@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4], ids=lambda r: f"r{r}")
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: f"{s[0]}{s[1]}")
def test_pagerank_scatter_is_bitwise_off(schedule, n_ranks, coalescing, partition, seed):
    assert_same(
        "pagerank",
        schedule=schedule,
        n_ranks=n_ranks,
        coalescing=coalescing,
        partition=partition,
        seed=seed,
    )


@pytest.mark.parametrize("coalescing", COALESCING, ids=lambda c: f"coal{c}")
@pytest.mark.parametrize("n_ranks", [1, 3, 4], ids=lambda r: f"r{r}")
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: f"{s[0]}{s[1]}")
def test_gated_sum_is_bitwise_off(schedule, n_ranks, coalescing):
    assert_same(
        "gated", schedule=schedule, n_ranks=n_ranks, coalescing=coalescing, partition="block"
    )


@pytest.mark.parametrize("where", ["value", "test"])
def test_sum_reading_its_own_target_stays_on_the_row_walk(where):
    """On ``sum_graph``'s self-loops a column fan-out would ship the
    ``acc[v]`` read before the self-loop's add; the planner refuses the
    class.  The action then runs its step chain in arrival order (the
    in-order lowering, which cuts a run after a row's write at a vertex
    a later row visits) and matches ``off`` bitwise."""
    action = self_read_pattern(where).actions["scatter"]
    cp = compile_action(action)
    assert cp.confluence is None
    assert cp.confluence_reason == (
        "the added value and the test must not read the property added into"
    )
    for schedule in SCHEDULES:
        acc_off, c_off, _ = run_sum(f"self_{where}", "off", schedule=schedule)
        acc_vec, c_vec, vector_items = run_sum(f"self_{where}", "vector", schedule=schedule)
        assert c_vec == c_off
        assert acc_vec == acc_off, "maps differ bitwise"
        assert vector_items > 0


# ---------------------------------------------------------------------------
# the two ordering traps, one named cell each
# ---------------------------------------------------------------------------


def test_trap_mixed_rr_envelope_applies_rows_in_arrival_order():
    """Driver starts and rank ``r``'s own fan-out rows share the ``(r, r)``
    buffer and ship as row tuples.  Applying the envelope's eval rows
    before fanning out its starts moves a delivered add ahead of a
    start's self-loop adds; this cell then differs from ``off`` (seen
    with ``_batch_rows`` sorting every envelope as an extremum's)."""
    assert_same(
        "pagerank",
        schedule=("round_robin", 0),
        n_ranks=3,
        coalescing=5,
        partition="cyclic",
        seed=2,
    )


def test_trap_flush_order_follows_generation_order():
    """A stable split per rank keeps each envelope's rows but flushes in
    rank order, and ``fifo`` delivers by flush order; this cell then
    differs from ``off`` (seen with ``_send_columns`` taking the per-rank
    split for a sum)."""
    assert_same(
        "pagerank",
        schedule=("fifo", 0),
        n_ranks=4,
        coalescing=5,
        partition="cyclic",
        seed=1,
    )


@pytest.mark.parametrize("n_ranks", [2, 4], ids=lambda r: f"r{r}")
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: f"{s[0]}{s[1]}")
def test_sending_work_hook_keeps_its_place(schedule, n_ranks):
    """A hook that sends fires between the rows the scalar walk generates
    around a self-loop, not after the whole fan-out."""
    assert_same(
        "pagerank",
        schedule=schedule,
        n_ranks=n_ranks,
        coalescing=5,
        partition="block",
        seed=1,
        rechase=True,
    )


@pytest.mark.parametrize("prefill", [0, 1, 3])
@pytest.mark.parametrize("src", [-1, 0, 2])
def test_send_rows_in_order_ships_as_sequential_sends(src, prefill):
    """Same envelopes, in the same order, and the same buffer keys in the
    same order as one ``send`` per row."""
    rng = np.random.default_rng(src * 10 + prefill + 10)
    dests = rng.integers(0, 4, 40)
    dests[:3] = [3, 1, 3]  # first rows leave the natural rank order
    rows = WireBatch([np.arange(40) * 4 + dests, 0, 1, 7, rng.uniform(size=40)], 40)
    logs = []
    for bulk in (False, True):
        m = Machine(4)
        layer = m.register("t", lambda ctx, p: None, coalescing=4).layers[0]
        shipped: list = []
        m.transport.wire_batch = lambda mt, s, d, items: shipped.append(
            (s, d, tuple(items))
        )
        for i in range(prefill):  # a partly filled buffer to rank 1
            layer.send(src, 1, (1, 0, 1, 7, -1.0 - i), None)
        if bulk:
            layer.send_rows_in_order(src, dests, rows)
        else:
            for d, row in zip(dests.tolist(), rows):
                layer.send(src, d, row, None)
        keys = {k: list(per) for k, per in layer._buffers.items()}
        logs.append((shipped, keys, layer.pending()))
        m.shutdown()
    assert logs[1] == logs[0]


# ---------------------------------------------------------------------------
# the other shipped ``+=`` actions: asynchronous PageRank and k-core
# ---------------------------------------------------------------------------


def run_pagerank_async(fast_path: str, schedule, n_ranks: int, coalescing) -> tuple:
    """The loop of :func:`pagerank_async` with a recording work hook;
    returns the maps' bytes and the dependent set of every round."""
    g = sum_graph(3, n_ranks, "cyclic", scale=6)
    n = g.n_vertices
    m = Machine(n_ranks, fast_path=fast_path, schedule=schedule[0], seed=schedule[1])
    layers = None if coalescing is None else {"spread": {"coalescing": coalescing}}
    bp = bind(pagerank_async_pattern(1e-3), m, g, layers=layers)
    out_deg = g.degree_histogram().astype(np.float64)
    with np.errstate(divide="ignore"):
        bp.map("share").from_array(np.where(out_deg > 0, 0.85 / out_deg, 0.0))
    bp.map("residual").from_array(np.full(n, 0.15 / n))
    absorb, spread = bp["absorb"], bp["spread"]
    deps: list = []
    spread.work = lambda ctx, w: deps[-1].add(int(w))
    batch = list(range(n))
    for _ in range(6):
        deps.append(set())
        with m.epoch() as ep:
            absorb.invoke_many(ep, batch)
        with m.epoch() as ep:
            spread.invoke_many(ep, batch)
        for v in batch:
            bp.map("outgoing")[v] = 0.0
        batch = sorted(deps[-1])
    assert (spread.vector_plan is not None) == (fast_path == "vector")
    maps = tuple(bp.map(k).to_array().tobytes() for k in ("rank", "residual"))
    m.shutdown()
    return maps, deps, spread.change_count, spread.assign_count


@pytest.mark.parametrize("coalescing", [None, 5, 64], ids=lambda c: f"coal{c}")
@pytest.mark.parametrize("n_ranks", [1, 3], ids=lambda r: f"r{r}")
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: f"{s[0]}{s[1]}")
def test_pagerank_async_spread_is_bitwise_off(schedule, n_ranks, coalescing):
    off = run_pagerank_async("off", schedule, n_ranks, coalescing)
    vec = run_pagerank_async("vector", schedule, n_ranks, coalescing)
    assert vec == off


def test_pagerank_async_matches_off():
    g = sum_graph(4, 3, "block", scale=6)
    got = {
        fp: pagerank_async(Machine(3, fast_path=fp), g, eps=1e-6).tobytes()
        for fp in ("off", "vector")
    }
    assert got["vector"] == got["off"]


def run_kcore(fast_path: str, schedule, k: int) -> tuple:
    """The peel of :func:`k_core` with a recording work hook."""
    s, t = rmat(6, edge_factor=4, seed=5)
    g, _ = build_graph(64, np.column_stack((s, t)), directed=False, n_ranks=3)
    m = Machine(3, fast_path=fast_path, schedule=schedule[0], seed=schedule[1])
    bp = bind(kcore_pattern(), m, g, layers={"drop": {"coalescing": 5}})
    deg, removed = bp.map("deg"), bp.map("removed")
    deg.from_array(g.degree_histogram())
    drop = bp["drop"]
    deps: list = []
    drop.work = lambda ctx, w: deps[-1].add(int(w))
    frontier = [v for v in range(64) if deg[v] < k]
    while frontier:
        for v in frontier:
            removed[v] = 1
        deps.append(set())
        with m.epoch() as ep:
            drop.invoke_many(ep, frontier)
        frontier = [v for v in range(64) if removed[v] == 0 and deg[v] < k]
    maps = tuple(bp.map(k).to_array().tobytes() for k in ("deg", "removed"))
    m.shutdown()
    return maps, deps, drop.change_count, drop.assign_count


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: f"{s[0]}{s[1]}")
def test_kcore_drop_is_bitwise_off(schedule, k):
    assert run_kcore("vector", schedule, k) == run_kcore("off", schedule, k)
    s, t = rmat(6, edge_factor=4, seed=5)
    g, _ = build_graph(64, np.column_stack((s, t)), directed=False, n_ranks=3)
    got = {fp: k_core(Machine(3, fast_path=fp), g, k) for fp in ("off", "vector")}
    assert np.array_equal(got["vector"], got["off"])
