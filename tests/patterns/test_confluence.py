"""The planner's one legality decision: ``ActionPlan.confluence``.

The planner matches an action's update class once
(:func:`~repro.patterns.planner.match_confluence`: an order-free extremum
or an order-sensitive sum); fusion legality
(:func:`~repro.patterns.locality.fusion_report`), the vector recogniser and
the fused message count read that match.  This file pins:

* the matcher against generated relax-shaped actions, together with the
  claim that licenses every consumer: a matched action's maps and
  dependent sets depend on neither the tier nor the schedule;
* every shipped pattern's verdicts, which the single decision must not
  move;
* NaN candidates, which the compare never accepts, on the batch kernels.
"""

from __future__ import annotations

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.betweenness import betweenness_pattern
from repro.algorithms.bfs import bfs_pattern
from repro.algorithms.cc import cc_label_pattern, cc_pattern
from repro.algorithms.coloring import coloring_pattern
from repro.algorithms.graph500 import bfs_parent_pattern
from repro.algorithms.kcore import kcore_pattern
from repro.algorithms.mis import mis_pattern
from repro.algorithms.pagerank import pagerank_async_pattern, pagerank_pattern
from repro.algorithms.sssp import (
    sssp_delta_stepping,
    sssp_pattern,
    sssp_predecessors_pattern,
    sssp_pull_pattern,
)
from repro.graph import build_graph
from repro.patterns import Pattern, bind, compile_action, src, trg
from repro.patterns.locality import fusion_report
from repro.patterns.planner import Extremum
from repro.runtime.machine import Machine

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
SCHEDULES = [
    ("round_robin", 0),
    ("fifo", 0),
    ("lifo", 0),
    ("random", 1),
    ("random", 2),
]


# ---------------------------------------------------------------------------
# the matcher over generated relax-shaped actions (the gate)
# ---------------------------------------------------------------------------


def relax_pattern(op, cand_left, cand_kind, gen, dtype):
    """``x[t] = cand`` when ``cand OP x[t]`` (or ``x[t] OP cand``).

    ``cand_kind`` is ``"local"`` (``x[v] + w``, source-local), ``"src"``
    (the arc's source id) or ``"target"`` (reads a property of the
    neighbour ``t``).  ``w`` is an edge property under ``out_edges`` and a
    vertex property of the input under ``adj``.
    """
    p = Pattern("GEN")
    x = p.vertex_prop("x", dtype, default=0)
    pen = p.vertex_prop("pen", dtype, default=0)
    w = p.edge_prop("w", dtype) if gen == "out_edges" else p.vertex_prop("w", dtype)
    a = p.action("relax")
    v = a.input
    if gen == "out_edges":
        e = a.out_edges()
        t, wv = trg(e), w[e]
    else:
        t = a.adj()
        wv = w[v]
    cand = {
        "local": lambda: x[v] + wv,
        "src": lambda: src(e),
        "target": lambda: x[v] + pen[t],
    }[cand_kind]()
    test = OPS[op](cand, x[t]) if cand_left else OPS[op](x[t], cand)
    with a.when(test):
        a.set(x[t], cand)
    return p


FLOATS = [0.0, 1.0, 2.5, 7.0, math.inf, -math.inf, math.nan]
INTS = [-3, 0, 1, 2, 5]


@st.composite
def relax_cases(draw):
    gen = draw(st.sampled_from(["out_edges", "adj"]))
    kinds = ["local", "src", "target"] if gen == "out_edges" else ["local", "target"]
    dtype = draw(st.sampled_from([int, float]))
    n = draw(st.integers(2, 7))
    # A DAG (i < j): every extremum update terminates whatever the
    # weights' sign, so maximizing over positive weights stays finite.
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=14))
    values = FLOATS if dtype is float else INTS
    n_w = n + len(edges)  # one weight per vertex (adj), then per edge
    return dict(
        op=draw(st.sampled_from(list(OPS))),
        cand_left=draw(st.booleans()),
        cand_kind=draw(st.sampled_from(kinds)),
        gen=gen,
        dtype=dtype,
        n=n,
        edges=edges,
        n_ranks=draw(st.integers(1, 3)),
        x0=draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)),
        w=draw(st.lists(st.sampled_from(values), min_size=n_w, max_size=n_w)),
        pen=draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)),
    )


def run_relax(case, fast_path, schedule, seed):
    """Start the action at every vertex and chase dependents to the fixed
    point; returns ``(x, dependent set)``."""
    n, edges = case["n"], case["edges"]
    g, idx_by_gid = build_graph(
        n, edges, weights=list(range(len(edges))), n_ranks=case["n_ranks"]
    )
    p = relax_pattern(
        case["op"], case["cand_left"], case["cand_kind"], case["gen"], case["dtype"]
    )
    m = Machine(case["n_ranks"], fast_path=fast_path, schedule=schedule, seed=seed)
    bp = bind(p, m, g, layers={"relax": {"coalescing": 4}})
    for v in range(n):
        bp.map("x")[v] = case["x0"][v]
        bp.map("pen")[v] = case["pen"][v]
    wm = bp.map("w")
    if case["gen"] == "out_edges":
        for gid, i in enumerate(idx_by_gid.astype(int)):
            wm[gid] = case["w"][n + i]
    else:
        for v in range(n):
            wm[v] = case["w"][v]
    relax = bp["relax"]
    seen: set = set()

    def hook(ctx, w):
        seen.add(int(w))
        relax.invoke_from(ctx, w)

    relax.work = hook
    with m.epoch() as ep:
        relax.invoke_many(ep, range(n))
    return bp, bp.map("x").to_array(), seen


@given(case=relax_cases())
@settings(max_examples=40, deadline=None)
def test_matcher_and_confluence_on_generated_relax_actions(case):
    p = relax_pattern(
        case["op"], case["cand_left"], case["cand_kind"], case["gen"], case["dtype"]
    )
    match = compile_action(p.actions["relax"]).confluence
    assert match is not None
    keeps_min = case["op"] in (("<", "<=") if case["cand_left"] else (">", ">="))
    assert match.minimize == keeps_min
    assert match.source_local == (case["cand_kind"] == "local")

    ref = None
    for fast_path in ("off", "vector"):
        for schedule, seed in SCHEDULES:
            bp, x, deps = run_relax(case, fast_path, schedule, seed)
            ref = ref or (x.tobytes(), deps)  # off under round_robin
            assert (x.tobytes(), deps) == ref, (fast_path, schedule, seed)
    # the vector tier batches every matched shape whose carried values
    # have kernels: all but the target-reading candidate
    assert (bp["relax"].vector_plan is not None) == (case["cand_kind"] != "target")


# ---------------------------------------------------------------------------
# every shipped pattern: the verdicts the single decision must not move
# ---------------------------------------------------------------------------

def _pagerank_async():
    return pagerank_async_pattern(1e-6)


#: (pattern factory, action) -> (recognised, fused, confluence class,
#: lowered): an action with no class runs its step chain as column
#: stages in arrival order when some step has a stage.
SHIPPED = {
    (sssp_pattern, "relax"): (True, True, "extremum", False),
    (sssp_pull_pattern, "update"): (False, False, None, True),
    # every condition falls back at its set step, after a lowered gather
    (sssp_predecessors_pattern, "relax"): (False, False, None, True),
    (bfs_pattern, "hop"): (True, True, "extremum", False),
    (bfs_parent_pattern, "visit"): (False, False, None, True),
    (cc_pattern, "cc_search"): (False, False, None, True),
    (cc_pattern, "cc_jump"): (False, False, None, True),
    (cc_label_pattern, "spread"): (True, True, "extremum", False),
    (pagerank_pattern, "scatter"): (True, False, "sum", False),
    (_pagerank_async, "absorb"): (False, False, None, True),
    (_pagerank_async, "spread"): (True, False, "sum", False),
    # reads removed[u] at the neighbour: the test is not source-local
    (kcore_pattern, "drop"): (False, False, None, True),
    (mis_pattern, "block"): (False, False, None, True),
    (mis_pattern, "exclude"): (False, False, None, True),
    (coloring_pattern, "block"): (False, False, None, True),
    (coloring_pattern, "report"): (False, False, None, True),
    (betweenness_pattern, "expand"): (False, False, None, True),
    (betweenness_pattern, "push_back"): (False, False, None, True),
}


def bind_shipped(factory, action):
    ring = [(i, (i + 1) % 6) for i in range(6)]
    g, _ = build_graph(6, ring, weights=[1.0] * 6, n_ranks=2)
    return bind(factory(), Machine(2, fast_path="vector"), g)[action]


SHIPPED_IDS = [f"{f().name}.{a}" for f, a in SHIPPED]


@pytest.mark.parametrize("factory,action", list(SHIPPED), ids=SHIPPED_IDS)
def test_shipped_pattern_verdicts_agree(factory, action):
    """Recognition, fusion, the confluence class and the fused count
    agree, action by action; an unrecognised action names why."""
    ba = bind_shipped(factory, action)
    plan = ba.plan
    fusable = fusion_report(plan).fusable
    kind = plan.confluence.kind if plan.confluence is not None else None
    expect = SHIPPED[(factory, action)]
    assert (ba.vector_plan is not None, ba._fused, kind) == expect[:3]
    assert (ba.lowering is not None) == expect[3]
    assert ba.mtype.order_free == (kind == "extremum")
    if ba.vector_plan is not None:
        assert ba._fused == fusable
        assert ba.vector_reason == ""
    else:
        assert ba.vector_reason == plan.confluence_reason != ""
    assert plan.static_message_count(fused=True) == plan.static_message_count() - fusable


@pytest.mark.parametrize("factory,action", list(SHIPPED), ids=SHIPPED_IDS)
def test_shipped_pattern_verdicts_read_the_match(factory, action):
    ba = bind_shipped(factory, action)
    match = ba.plan.confluence
    if ba.vector_plan is not None:
        assert match is not None
    # Only an (order-free) extremum may fuse; a sum is order-sensitive.
    assert fusion_report(ba.plan).fusable == (
        isinstance(match, Extremum) and match.source_local
    )


# ---------------------------------------------------------------------------
# NaN candidates: the compare rejects them, so the batch kernels must too
# ---------------------------------------------------------------------------

#: A NaN weight on an arc whose target is rank-local (applied inline by
#: the fused fan-out) and on one whose target lives on the other rank (the
#: row is delivered and scattered by the receiving rank's batch kernel).
DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
NAN_CASES = {
    "fused-inline": (1, DIAMOND, [1.0, math.nan, 1.0, 1.0, 1.0]),
    "fused-rank-local": (2, DIAMOND, [1.0, math.nan, 1.0, 1.0, 1.0]),
    "delivered-remote": (2, [(0, 1), (0, 3), (1, 3), (3, 4)], [1.0, 5.0, math.nan, 1.0]),
}


@pytest.mark.parametrize("coalescing", [None, 8])
@pytest.mark.parametrize("case", list(NAN_CASES))
def test_sssp_nan_weight_never_wins(case, coalescing):
    """A NaN edge weight makes a NaN candidate; ``cand < dist[t]`` is
    False, so the oracle leaves ``dist[t]`` alone.  Both the fused
    fan-out's inline scatter and the receiving rank's batch scatter of
    delivered rows must as well."""
    n_ranks, edges, weights = NAN_CASES[case]
    layers = None if coalescing is None else {"relax": {"coalescing": coalescing}}
    out = {}
    for fp in ("off", "vector"):
        g, wg = build_graph(5, edges, weights=weights, n_ranks=n_ranks)
        out[fp] = sssp_delta_stepping(
            Machine(n_ranks, fast_path=fp), g, wg, 0, 2.0, layers=layers
        )
    assert out["vector"].tobytes() == out["off"].tobytes()
    assert not np.isnan(out["vector"]).any()


def reliability_pattern():
    """Most-reliable path: a max-shaped relax over edge probabilities."""
    p = Pattern("REL")
    rel = p.vertex_prop("rel", float, default=0.0)
    prob = p.edge_prop("prob", float)
    relax = p.action("relax")
    v = relax.input
    e = relax.out_edges()
    cand = relax.let("cand", rel[v] * prob[e])
    with relax.when(rel[trg(e)] < cand):
        relax.set(rel[trg(e)], cand)
    return p


@pytest.mark.parametrize("coalescing", [None, 8])
@pytest.mark.parametrize("n_ranks", [1, 2], ids=["fused-inline", "fused-remote"])
def test_max_shaped_relax_keeps_the_best_real_candidate(n_ranks, coalescing):
    """Two parallel arcs 0 -> 3, one with a NaN probability.  The fused
    fan-out keeps only the best row per remote target; NaN sorts last,
    so a max-shaped action must not mistake it for the best."""
    edges = [(0, 3), (0, 3), (0, 1), (1, 2)]
    probs = [math.nan, 0.5, 0.9, 0.9]
    layers = None if coalescing is None else {"relax": {"coalescing": coalescing}}
    out = {}
    for fp in ("off", "vector"):
        g, pg = build_graph(4, edges, weights=probs, n_ranks=n_ranks)
        m = Machine(n_ranks, fast_path=fp)
        bp = bind(reliability_pattern(), m, g, layers=layers)
        bp.map("prob").from_array(pg)
        bp.map("rel")[0] = 1.0
        relax = bp["relax"]
        assert fp == "off" or relax._fused
        relax.work = lambda ctx, w: relax.invoke_from(ctx, w)
        with m.epoch() as ep:
            relax.invoke(ep, 0)
        out[fp] = bp.map("rel").to_array()
    assert out["off"].tolist() == [1.0, 0.9, 0.81, 0.5]
    assert out["vector"].tobytes() == out["off"].tobytes()
