"""The gate for the vector tier's in-order lowering of the paper's CC.

``cc_search`` and ``cc_jump`` (Fig. 4) have no confluence class: a claim
is decided by which search reaches a vertex first, so rows must be
applied in arrival order and every send must leave when the row walk
sends it.  The vector tier runs their step chains as column stages
(:class:`~repro.patterns.fastpath.ColumnDryRun`); this file checks it is
bitwise the ``off`` oracle on ``sim`` over every schedule, ranks 1-4,
coalescing none/1/5/64, flush budgets None/1/3, ``cyclic`` and ``block``
partitions and two R-MAT seeds:

* ``prnt``, ``chg`` and ``conflicts`` are equal, and so are the
  dependent sets the work hook saw;
* the logical counters are equal: handler calls, work items, local and
  remote sends, coalesced flushes, payload slots, change and assign
  counts;
* coalesced rows really took the column stages (``vector_items > 0``),
  and where searches collide some rows resumed the row walk
  (``row_fallbacks > 0``: the ``conflicts`` inserts).

Five named cells pin one rule each of the lowering (see
:meth:`ColumnDryRun.end` and :meth:`BoundAction._emit_lowered`); each
fails when its rule is reverted.  They also compare every shipped
envelope, in order.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.algorithms.cc as cc_mod
from repro.algorithms.cc import NULL, cc_pattern, connected_components
from repro.analysis.telemetry_export import parse_prometheus, to_prometheus
from repro.graph import build_graph, rmat
from repro.patterns import Pattern, bind
from repro.runtime.machine import Machine

SCHEDULES = [("round_robin", 0), ("random", 1), ("fifo", 0), ("lifo", 0)]
COALESCING = [None, 1, 5, 64]
BUDGETS = [None, 1, 3]
PARTITIONS = ["cyclic", "block"]
SEEDS = [1, 2]


def cc_graph(seed: int, n_ranks: int, partition: str, scale: int = 4):
    s, t = rmat(scale, edge_factor=3, seed=seed)
    return build_graph(
        1 << scale, np.column_stack((s, t)), directed=False, n_ranks=n_ranks, partition=partition
    )[0]


def counters(m: Machine, bp) -> dict:
    out = {"work_items": m.stats.total.work_items}
    for name in ("cc_search", "cc_jump"):
        a = bp[name]
        st = m.stats.by_type[a.mtype.name]
        out[name] = (
            st.handler_calls,
            st.sent_local,
            st.sent_remote,
            st.coalesced_flushes,
            st.payload_slots,
            a.change_count,
            a.assign_count,
        )
    return out


def maps_of(bp) -> tuple:
    conflicts = tuple(
        None if s is None else tuple(sorted(int(u) for u in s))
        for s in bp.map("conflicts").to_array()
    )
    return bp.map("prnt").to_array().tobytes(), bp.map("chg").to_array().tobytes(), conflicts


def record_envelopes(m: Machine) -> list:
    """Every envelope the machine ships, as ``(type, src, dest, rows)``."""
    shipped: list = []
    wire = m.transport._wire

    def spy(mtype, src, dest, payload, batch):
        rows = tuple(tuple(p) for p in payload) if batch else (tuple(payload),)
        shipped.append((mtype.name, src, dest, tuple(tuple(map(_plain, r)) for r in rows)))
        wire(mtype, src, dest, payload, batch)

    m.transport._wire = spy
    return shipped


def _plain(v):
    return v.item() if isinstance(v, np.generic) else v


def run_cc(
    fast_path: str,
    *,
    schedule=("round_robin", 0),
    n_ranks: int = 4,
    coalescing=64,
    budget=None,
    partition: str = "cyclic",
    seed: int = 1,
    envelopes: bool = False,
) -> tuple:
    """The paper's CC driver; returns the maps, the dependents in hook
    order, the logical counters, the per-type and fusion counters and
    (``envelopes``) every shipped envelope."""
    g = cc_graph(seed, n_ranks, partition)
    m = Machine(n_ranks, fast_path=fast_path, schedule=schedule[0], seed=schedule[1])
    shipped = record_envelopes(m) if envelopes else None
    layers = None
    if coalescing is not None:
        layers = {"cc_search": {"coalescing": coalescing}, "cc_jump": {"coalescing": coalescing}}
    bound: list = []
    deps: list = []

    def recording_bind(*args, **kw):
        """``bind``, keeping the binding and recording every vertex the
        driver's work hook re-invokes the search at."""
        bp = bind(*args, **kw)
        search = bp["cc_search"]
        invoke_from = search.invoke_from
        search.invoke_from = lambda ctx, w: (deps.append(int(w)), invoke_from(ctx, w))
        bound.append(bp)
        return bp

    cc_mod.bind = recording_bind
    try:
        connected_components(m, g, flush_budget=budget, layers=layers)
    finally:
        cc_mod.bind = bind
    (bp,) = bound
    out = (maps_of(bp), deps, counters(m, bp), m.stats.by_type, m.stats.fusion, shipped)
    m.shutdown()
    return out


def assert_same(**cell) -> None:
    envelopes = cell.pop("envelopes", False)
    off = run_cc("off", envelopes=envelopes, **cell)
    vec = run_cc("vector", envelopes=envelopes, **cell)
    assert vec[2] == off[2], "logical counters differ"
    assert vec[0] == off[0], "maps differ"
    assert vec[1] == off[1], "dependents differ"
    if envelopes:
        assert vec[5] == off[5], "shipped envelopes differ"
    return off, vec


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: f"budget{b}")
@pytest.mark.parametrize("coalescing", COALESCING, ids=lambda c: f"coal{c}")
@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4], ids=lambda r: f"r{r}")
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: f"{s[0]}{s[1]}")
def test_cc_is_bitwise_off(schedule, n_ranks, coalescing, budget, partition, seed):
    _, vec = assert_same(
        schedule=schedule,
        n_ranks=n_ranks,
        coalescing=coalescing,
        budget=budget,
        partition=partition,
        seed=seed,
    )
    by_type, fusion = vec[3], vec[4]
    items = sum(st.vector_items for name, st in by_type.items() if "cc_search" in name)
    # Only coalesced envelopes reach the batch handler.
    assert (items > 0) == (coalescing is not None)
    if coalescing is not None and vec[0][2] != (None,) * len(vec[0][2]):
        # Searches collided: the ``conflicts`` inserts resumed the walk.
        assert fusion.row_fallbacks > 0


# ---------------------------------------------------------------------------
# the rules of the lowering, one named cell each
# ---------------------------------------------------------------------------


def claim_pattern() -> Pattern:
    """``cc_search``'s claim alone, with a value that may be the sentinel."""
    p = Pattern("CLAIM")
    lab = p.vertex_prop("lab", "vertex", default=NULL)
    val = p.vertex_prop("val", "vertex", default=NULL)
    claim = p.action("claim")
    v = claim.input
    u = claim.adj()
    with claim.when(lab[u] == NULL):
        claim.set(lab[u], val[v])
    return p


def run_searches(fast_path: str, pattern, edges, n: int, starts, preset, coalescing=64):
    """One epoch of the pattern's action started at every vertex of
    ``starts`` at once (all searches in flight together) on 2 ranks,
    with the work hook re-invoking the action at each dependent vertex;
    ``preset`` fills maps first (``{name: {vertex: value}}``)."""
    g, _ = build_graph(n, edges, directed=False, n_ranks=2, partition="block")
    m = Machine(2, fast_path=fast_path, schedule="fifo")
    shipped = record_envelopes(m)
    (name,) = [a for a in pattern.actions if a != "cc_jump"]
    bp = bind(pattern, m, g, layers={name: {"coalescing": coalescing}})
    for prop, values in preset.items():
        for v, x in values.items():
            bp.map(prop)[v] = x
    action = bp[name]
    deps: list = []

    def hook(ctx, w):
        deps.append(int(w))
        action.invoke_from(ctx, w)

    action.work = hook
    with m.epoch() as ep:
        action.invoke_many(ep, starts)
    st = m.stats.by_type[action.mtype.name]
    maps = tuple(
        bp.map(k).to_array().tobytes() for k, d in pattern.properties.items() if d.value_kind != "set"
    )
    out = (
        maps,
        deps,
        (st.handler_calls, st.coalesced_flushes, st.payload_slots),
        (action.change_count, action.assign_count),
        shipped,
        st.vector_items,
    )
    m.shutdown()
    return out


def assert_searches_same(*args, **kw) -> None:
    off = run_searches("off", *args, **kw)
    vec = run_searches("vector", *args, **kw)
    assert vec[5] > 0, "the lowering never ran"
    assert vec[0] == off[0], "maps differ"
    assert vec[1:5] == off[1:5]


def test_trap_duplicate_claims_of_one_target_keep_the_first():
    """Sources 0 and 1 (rank 0) both reach the unclaimed 4 (rank 1) in
    one envelope: the first row claims it and the second fails its test.
    Letting every passing row write (the last one wins) makes ``prnt[4]``
    1 instead of 0."""
    edges = [(0, 4), (1, 4), (4, 5)]
    assert_searches_same(cc_pattern(), edges, 8, [0, 1], {"prnt": {0: 0, 1: 1}})


def test_trap_a_claim_of_the_sentinel_claims_nothing():
    """Source 0 carries ``NULL`` and reaches 4 before source 1 does: its
    row assigns ``NULL`` over ``NULL``, no change, and source 1's row
    still finds 4 unclaimed.  Taking the first passing row as the
    claimer leaves 4 unclaimed."""
    edges = [(0, 4), (1, 4), (4, 5)]
    assert_searches_same(claim_pattern(), edges, 8, [0, 1], {"val": {1: 1}})


def test_trap_hook_sends_land_between_the_claim_rows_sends():
    """Each claim re-invokes the search at the claimed vertex: a start the
    hook sends after the claim row's changes and before its exit.
    Firing a prefix's hooks after all its sends reorders the ``(1, 1)``
    buffer, which ``fifo`` delivers in order."""
    edges = [(0, 4), (0, 5), (0, 6), (4, 5), (5, 6), (6, 7), (1, 5)]
    assert_searches_same(cc_pattern(), edges, 8, [0, 1], {"prnt": {0: 0, 1: 1}}, coalescing=5)


def test_trap_a_row_after_a_write_at_its_vertex_reads_the_write():
    """Search 0 claims 6 first; the parallel edges 3-6 then bring two
    identical collisions back to root 3 in one run.  The first lowers
    ``chg[3]`` to 0 and the second must test against that value and
    fail.  Without the cut after a row's write the second row tests the
    run-start ``chg[3]`` and counts a second change and work item."""
    edges = [(0, 6), (6, 3), (3, 6)]
    assert_searches_same(cc_pattern(), edges, 8, [0, 3], {"prnt": {0: 0, 3: 3}}, coalescing=5)


def fallback_pattern() -> Pattern:
    """A set insert (no column stage) before a masked assign at ``v``.

    In ``cc_search`` no row's walk goes on at its own vertex after its
    ``conflicts`` insert (the ``chg`` min-link is a lowered assign), so
    this rule needs a pattern of its own."""
    p = Pattern("FALL")
    lim = p.vertex_prop("lim", int, default=4)
    nxt = p.vertex_prop("nxt", "vertex")
    out = p.vertex_prop("out", int, default=-10)
    seen = p.vertex_prop("seen", "set")
    spread = p.action("spread")
    v = spread.input
    u = spread.adj()
    with spread.when(u > lim[v]):
        spread.insert(seen[nxt[v]], u)
    with spread.when(out[v] < u):
        spread.set(out[v], u)
    return p


def test_trap_a_fallback_rows_write_is_read_by_a_later_row():
    """Vertex 0's row for neighbour 5 falls back at the insert and its
    walk then sets ``out[0] = 5``; the row for neighbour 3 comes later in
    the run and must test ``out[0] < 3`` on that value.  Without the cut
    at a fallback row it tests the run-start ``-10`` and writes 3."""
    edges = [(0, 5), (0, 3), (1, 2)]
    preset = {"nxt": {i: i for i in range(8)}}
    assert_searches_same(fallback_pattern(), edges, 8, [0, 1], preset)


# ---------------------------------------------------------------------------
# cc_jump: pointer jumping with jump rounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("coalescing", [None, 5, 64], ids=lambda c: f"coal{c}")
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: f"{s[0]}{s[1]}")
def test_cc_jump_is_bitwise_off_with_jump_rounds(schedule, coalescing):
    """A flush budget of 1 starts colliding searches, so ``chg`` chains
    need pointer jumping; the jump rounds are lowered too."""
    s, t = rmat(6, edge_factor=3, seed=4)
    g, _ = build_graph(64, np.column_stack((s, t)), directed=False, n_ranks=3)
    out = {}
    for fp in ("off", "vector"):
        m = Machine(3, fast_path=fp, schedule=schedule[0], seed=schedule[1])
        layers = None
        if coalescing is not None:
            layers = {"cc_search": {"coalescing": coalescing}, "cc_jump": {"coalescing": coalescing}}
        comp, details = connected_components(
            m, g, flush_budget=1, layers=layers, return_details=True
        )
        jump = next(st for name, st in m.stats.by_type.items() if "cc_jump" in name)
        out[fp] = (comp.tobytes(), details, jump.handler_calls, jump.sent_total)
        if fp == "vector" and coalescing is not None:
            assert jump.vector_items > 0
        m.shutdown()
    assert out["off"][1]["jump_rounds"] > 0
    assert out["vector"] == out["off"]


def test_process_workers_lower_and_report_row_fallbacks():
    """On ``process`` the workers run the lowering: the paper's CC gives
    ``off``'s components, and the vector items and row fallbacks of
    ``fallback_pattern`` reach the parent through the sync blob and the
    reflective export.  (On ``process`` a flush budget does not make
    CC's searches collide, so CC itself hands no row back there.)"""
    g = cc_graph(2, 2, "cyclic", scale=5)
    layers = {"cc_search": {"coalescing": 16}, "cc_jump": {"coalescing": 16}}
    want = connected_components(Machine(2, fast_path="off"), g, flush_budget=1, layers=layers)
    m = Machine(2, transport="process", fast_path="vector")
    try:
        got = connected_components(m, g, flush_budget=1, layers=layers)
        items = sum(st.vector_items for n, st in m.stats.by_type.items() if "cc_search" in n)
    finally:
        m.shutdown()
    assert np.array_equal(got, want)
    assert items > 0

    g, _ = build_graph(8, [(0, 5), (0, 3), (1, 2), (4, 7)], directed=False, n_ranks=2)
    out = {}
    for fast_path, transport in (("off", "sim"), ("vector", "process")):
        m = Machine(2, transport=transport, fast_path=fast_path)
        try:
            bp = bind(fallback_pattern(), m, g, layers={"spread": {"coalescing": 64}})
            bp.map("nxt").from_array(np.arange(8))
            with m.epoch() as ep:
                bp["spread"].invoke_many(ep, np.arange(8))
            out[fast_path] = (bp.map("out").to_array().tobytes(), maps_of_sets(bp.map("seen")))
            fusion = m.stats.fusion
            samples, errors = parse_prometheus(to_prometheus(m))
        finally:
            m.shutdown()
    assert out["vector"] == out["off"]
    assert fusion.row_fallbacks > 0
    assert not errors
    assert samples[("repro_fusion_row_fallbacks", frozenset())] == fusion.row_fallbacks


def maps_of_sets(pm) -> tuple:
    return tuple(None if s is None else tuple(sorted(s)) for s in pm.to_array())


def test_cc_search_claim_is_first_come_with_the_null_sentinel():
    """The claim's sentinel is the pattern's NULL."""
    plan = bind(cc_pattern(), Machine(1), cc_graph(1, 1, "cyclic"))["cc_search"].plan
    assert plan.cond_plans[0].first_come.sentinel == NULL
