"""Merged delivery: one batch-handler call for the queued envelopes of an
order-free message type (``Transport.merge_room``).

A rank that takes a column envelope of a type whose update the planner
proved confluent (``ActionPlan.confluence``) also takes every envelope of
that type and width already waiting there, and runs the batch handler once
on their rows.  This file pins:

* the gate: over schedules, routings, algorithms, coalescing widths and
  rank counts, merged ``vector`` runs end with the same maps (bitwise)
  and the same dependent sets as the ``off`` oracle, while the accounting
  stays per envelope (every payload is a handler call, the detector
  balances) and only the number of batch calls drops;
* where merging must not fire (spans, chaos, ``off``, ``compiled``): the
  logical counters equal a run that delivers one envelope per call;
* the ``process`` worker loop against Dijkstra;
* a finished machine letting go of its binding's maps without waiting for
  the cyclic garbage collector.
"""

from __future__ import annotations

import gc
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import bfs_level_synchronous
from repro.analysis.telemetry_export import parse_prometheus, to_prometheus
from repro.algorithms.sssp import (
    bind_sssp,
    dijkstra_reference,
    sssp_delta_stepping,
    sssp_fixed_point,
)
from repro.graph import build_graph, rmat, uniform_weights
from repro.patterns import Pattern, bind, trg
from repro.patterns.executor import BoundAction
from repro.runtime import ChaosConfig
from repro.runtime import transport as transport_mod
from repro.runtime.machine import Machine

SCHEDULES = [
    ("round_robin", 0),
    ("fifo", 0),
    ("lifo", 0),
    ("random", 1),
    ("random", 2),
]
ALGORITHMS = ("delta", "fixed_point", "max_relax", "bfs")


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


def instance(scale: int, n_ranks: int, seed: int):
    src, dst = rmat(scale, edge_factor=8, seed=seed)
    weights = uniform_weights(len(src), 1.0, 10.0, seed=seed + 1)
    n = 1 << scale
    g, wg = build_graph(
        n, zip(src.tolist(), dst.tolist()), weights=weights, n_ranks=n_ranks,
        partition="cyclic",
    )
    root = int(np.argmax(np.bincount(src, minlength=n)))
    return g, wg, src, dst, weights, root


@contextmanager
def recording_dependents():
    """Yield the set of every vertex handed to a work hook, whichever form
    (per vertex or batch) the tier fires."""
    seen: set = set()
    work, work_many = BoundAction.work, BoundAction.work_many

    def recorded(hook, many):
        if hook is None:
            return None

        def rec(ctx, w):
            seen.update(np.asarray(w).tolist() if many else [int(w)])
            hook(ctx, w)

        return rec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BoundAction, "work", property(
            work.fget, lambda self, h: work.fset(self, recorded(h, False))))
        mp.setattr(BoundAction, "work_many", property(
            work_many.fget, lambda self, h: work_many.fset(self, recorded(h, True))))
        yield seen


def run(algo, fx, coalescing, **machine_kw):
    """One solve on a fresh machine; returns ``(result, machine, action)``."""
    g, wg, _, _, _, root = fx
    m = Machine(g.partition.n_ranks, **machine_kw)
    if algo == "bfs":
        name = "hop"
        out = bfs_level_synchronous(m, g, root, layers={name: {"coalescing": coalescing}})
        return out, m, name
    name = "relax"
    layers = {name: {"coalescing": coalescing}}
    if algo == "max_relax":
        bp = bind(reliability_pattern(), m, g, layers=layers)
        bp.map("prob").from_array(1.0 / np.asarray(wg))
        bp.map("rel")[root] = 1.0
        relax = bp[name]
        relax.work = lambda ctx, w: relax.invoke_from(ctx, w)
        with m.epoch() as ep:
            relax.invoke(ep, root)
        return bp.map("rel").to_array(), m, name
    bp = bind_sssp(m, g, wg, layers=layers)
    if algo == "delta":
        return sssp_delta_stepping(m, g, wg, root, 3.0, bound=bp), m, name
    return sssp_fixed_point(m, g, wg, root, bound=bp), m, name


def action_stats(m, name):
    (ts,) = [t for n, t in m.stats.by_type.items() if n.endswith("." + name)]
    return ts


def logical_stats(m):
    """``m.stats`` as plain data without the wall-clock fields."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if "seconds" not in k}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return strip(m.stats.checkpoint_state())


@given(
    algo=st.sampled_from(ALGORITHMS),
    schedule=st.sampled_from(SCHEDULES),
    routing=st.sampled_from(["direct", "hypercube"]),
    coalescing=st.sampled_from([8, 64]),
    n_ranks=st.sampled_from([2, 4]),
    seed=st.integers(0, 50),
)
@settings(max_examples=30, deadline=None)
def test_merged_vector_matches_off(algo, schedule, routing, coalescing, n_ranks, seed):
    fx = instance(7, n_ranks, seed)
    out = {}
    for fp in ("off", "vector"):
        with recording_dependents() as seen:
            result, m, name = run(
                algo, fx, coalescing, fast_path=fp, schedule=schedule[0],
                seed=schedule[1], routing=routing, detector="four_counter",
            )
        ts = action_stats(m, name)
        det = m.detector
        assert ts.batch_items == ts.handler_calls
        assert sum(det.sent) == sum(det.received)
        assert ts.handler_batches <= ts.batch_deliveries
        out[fp] = (result.tobytes(), seen)
        m.shutdown()
    assert out["vector"] == out["off"]


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_merging_fires_and_matches_off(algo):
    fx = instance(8, 4, 3)
    out = {}
    for fp in ("off", "vector"):
        with recording_dependents() as seen:
            result, m, name = run(algo, fx, 8, fast_path=fp)
        ts = action_stats(m, name)
        out[fp] = (result.tobytes(), seen, ts)
        m.shutdown()
    assert out["vector"][:2] == out["off"][:2]
    off, vec = out["off"][2], out["vector"][2]
    assert off.handler_batches == off.batch_deliveries
    assert vec.handler_batches < vec.batch_deliveries
    assert vec.batch_items == vec.handler_calls


#: Configurations that must deliver one envelope per call.
UNMERGED = {
    "off": dict(fast_path="off"),
    "compiled": dict(fast_path="compiled"),
    "spans": dict(fast_path="vector", telemetry="spans"),
    "chaos": dict(fast_path="vector", chaos=ChaosConfig(seed=3, drop=0.05, duplicate=0.05)),
}


@pytest.mark.parametrize("config", list(UNMERGED))
def test_unmerged_configurations_keep_their_counters(config, monkeypatch):
    fx = instance(7, 4, 5)
    runs = []
    for cap in (transport_mod.MERGE_ROWS, 0):
        monkeypatch.setattr(transport_mod, "MERGE_ROWS", cap)
        result, m, name = run("delta", fx, 8, **UNMERGED[config])
        runs.append((result.tobytes(), logical_stats(m)))
        ts = action_stats(m, name)
        assert ts.handler_batches == ts.batch_deliveries
        m.shutdown()
    assert runs[0] == runs[1]


@pytest.mark.parametrize("n_ranks", [2, 4])
def test_process_delta_stepping_merges_and_matches_dijkstra(n_ranks):
    fx = instance(11, n_ranks, 7)
    g, wg, src, dst, weights, root = fx
    expected = dijkstra_reference(g.n_vertices, src, dst, weights, root)
    result, m, name = run("delta", fx, 8, transport="process")
    try:
        ts = action_stats(m, name)
        samples, errors = parse_prometheus(to_prometheus(m))
    finally:
        m.shutdown()
    assert np.array_equal(result, expected)
    assert ts.batch_items == ts.handler_calls
    # Worker counts reach the parent through the sync blob, and the
    # reflective export carries them.
    assert 0 < ts.handler_batches < ts.batch_deliveries
    assert not errors
    exported = {dict(labels)["type"]: v for (metric, labels), v in samples.items()
                if metric == "repro_type_handler_batches"}
    assert exported[next(n for n in m.stats.by_type if n.endswith(".relax"))] == ts.handler_batches


@pytest.mark.parametrize("transport", ["sim", "process"])
def test_shutdown_frees_the_binding_without_cyclic_gc(transport):
    """A finished machine must not keep its binding's maps alive until a
    full collection: bind, solve, shut down and drop every reference with
    the collector off, and almost nothing may stay allocated."""
    fx = instance(13, 2, 1)
    g, wg, _, _, _, root = fx

    def one_pass():
        m = Machine(2, transport=transport)
        bp = bind_sssp(m, g, wg, layers={"relax": {"coalescing": 64}})
        sssp_delta_stepping(m, g, wg, root, 3.0, bound=bp)
        m.shutdown()
        # Results stay readable after shutdown.
        assert bp["relax"].change_count > 0 and bp.describe()
        return bp.map("dist").to_array()

    one_pass()  # pays for imports, codec schemas and other one-time set-up
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        one_pass()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    # The 64k-edge weight map alone is 512 KiB.
    assert retained < 256 * 1024
