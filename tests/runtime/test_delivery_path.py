"""One delivery path: ``Transport.run_handler`` runs every delivered handler.

Telemetry spans are a branch inside it and chaos admission (ack
consumption, dedup, re-ack) is its explicit first step, so this file pins:

* a merged batch-handler call made under ``telemetry="spans"`` opens one
  ``batch`` span linking the msg spans of every envelope, while the
  per-envelope accounting and the logical statistics equal the same call
  with spans off;
* chaos with reliable delivery leaves no ``run_handler`` attribute on the
  transport instance, on every transport;
* a wrapper installed on the class after the machine is built (as the
  layer-budget tracer does) sees every delivery under chaos.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.sssp import dijkstra_reference, sssp_delta_stepping
from repro.graph import build_graph, rmat, uniform_weights
from repro.runtime import ChaosConfig
from repro.runtime.machine import Machine
from repro.runtime.message import Envelope
from repro.runtime.reliable import ACK_TYPE_ID, ReliableEnvelope
from repro.runtime.telemetry import Span
from repro.runtime.transport import Transport
from repro.runtime.wire import WireBatch

from .test_merged_delivery import logical_stats

#: Rows of each column envelope handed to one merged call.
ROWS = (5, 3, 4)


def merged_call(telemetry: str):
    """Deliver three column envelopes to rank 1 in one ``run_handler``
    call; returns ``(machine, type name, envelopes, receivers, rows seen)``."""
    m = Machine(2, telemetry=telemetry)
    seen: list = []
    t = m.register("f", lambda ctx, p: None, dest_rank_of=lambda p: 1)
    t.batch_handler = lambda ctx, payloads: seen.extend(payloads)
    tel = m.telemetry
    envs = []
    base = 0
    for n in ROWS:
        rows = [(base + i, 10 * (base + i)) for i in range(n)]
        base += n
        if tel.spans_on:
            for row in rows:
                tel.on_send(t, 0, 1, row)
            trace = tuple(tel.wire_context(row) for row in rows)
        else:
            trace = None
        cols = [np.array([r[0] for r in rows]), np.array([r[1] for r in rows])]
        envs.append(Envelope(dest=1, type_id=t.type_id, payload=WireBatch(cols, n),
                             src=0, trace=trace))
    receivers: list = []
    on_receive = m.detector.on_receive
    m.detector.on_receive = lambda rank: (receivers.append(rank), on_receive(rank))
    with m.epoch():
        m.transport.run_handler(envs[0], True, tuple(envs[1:]))
    return m, t.name, envs, receivers, seen


def test_merged_call_under_spans_opens_one_linked_batch_span():
    m, name, envs, receivers, seen = merged_call("spans")
    total = sum(ROWS)
    assert seen == [(i, 10 * i) for i in range(total)]
    spans = m.telemetry.snapshot_spans()
    msgs = [s for s in spans if s.kind == "msg"]
    (batch,) = [s for s in spans if s.kind == "batch"]
    handles = [s for s in spans if s.kind == "handle"]
    assert len(msgs) == total
    assert batch.links == [s.sid for e in envs for s in e.trace]
    assert batch.args["items"] == total
    assert sorted(h.parent for h in handles) == sorted(s.sid for s in msgs)
    assert all(h.args == {"via": batch.sid, "vector": True} for h in handles)
    assert all(isinstance(s, Span) and s.t1 is not None for s in msgs)
    assert m.telemetry.current() is None  # the context stack unwound

    # Accounting stays per envelope.
    assert receivers == [1] * len(ROWS)
    ts = m.stats.by_type[name]
    assert ts.handler_calls == total
    assert ts.batch_deliveries == len(ROWS)
    assert ts.batch_items == total
    assert ts.handler_batches == 1

    off, _, _, off_receivers, off_seen = merged_call("off")
    assert off_seen == seen
    assert off_receivers == receivers
    assert logical_stats(off) == logical_stats(m)
    m.shutdown()
    off.shutdown()


def instance(scale: int = 6, n_ranks: int = 2, seed: int = 4):
    src, dst = rmat(scale, edge_factor=8, seed=seed)
    weights = uniform_weights(len(src), 1.0, 10.0, seed=seed + 1)
    n = 1 << scale
    g, wg = build_graph(n, zip(src.tolist(), dst.tolist()), weights=weights,
                        n_ranks=n_ranks)
    root = int(np.argmax(np.bincount(src, minlength=n)))
    return g, wg, dijkstra_reference(n, src, dst, weights, root), root


CHAOS = ChaosConfig(seed=5, drop=0.1, duplicate=0.1, reorder=0.1)


@pytest.mark.parametrize("transport", ["sim", "threads", "process"])
def test_chaos_leaves_no_instance_patch(transport):
    g, wg, expected, root = instance()
    m = Machine(2, transport=transport, chaos=CHAOS, reliable=True)
    try:
        assert "run_handler" not in vars(m.transport)
        result = sssp_delta_stepping(m, g, wg, root, 3.0)
        assert "run_handler" not in vars(m.transport)
    finally:
        m.shutdown()
    assert np.array_equal(result, expected)


@pytest.mark.parametrize("transport", ["sim", "threads"])
def test_late_class_wrapper_sees_every_delivery_under_chaos(transport, monkeypatch):
    g, wg, expected, root = instance()
    m = Machine(2, transport=transport, chaos=CHAOS, reliable=True)
    kinds: list = []  # one entry per delivery; append is atomic across workers
    inner = Transport.run_handler

    def wrapper(self, env, batch, more=()):
        if env.type_id == ACK_TYPE_ID:
            kinds.append("ack")
        else:
            kinds.append("data" if isinstance(env, ReliableEnvelope) else "raw")
        return inner(self, env, batch, more)

    monkeypatch.setattr(Transport, "run_handler", wrapper)
    try:
        result = sssp_delta_stepping(m, g, wg, root, 3.0)
    finally:
        m.shutdown()
    assert np.array_equal(result, expected)
    chaos = m.stats.chaos
    assert kinds.count("data") == chaos.acks_sent > 0
    assert kinds.count("ack") == chaos.acks_delivered > 0
    assert "raw" not in kinds
