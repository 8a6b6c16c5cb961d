"""``BoundAction.invoke_many`` is ``invoke`` per vertex, in order.

Behind a single coalescing layer the starts enter the buffers as one
column per destination rank; everywhere else (no layers, a caching layer
in the stack, the ``off`` oracle) the batch is iterated and every row takes
the scalar send path.  Either way the wire must carry the same envelopes,
cut at the same flush boundaries, and ``machine.stats`` and the final maps
must not be able to tell the two drivers apart.

One thing *is* allowed to differ: the bulk path hands each rank its rows in
one go, so flushes of *different* destination ranks interleave differently
when the start list is not grouped by owner.  Per (src, dest) channel the
envelope sequence is identical regardless; with an owner-grouped list the
whole wire log is — which is what the chaos cases use, because the fault
stream is indexed by global wire order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.sssp import bind_sssp
from repro.runtime import CachingLayer, ChaosConfig, ReliableConfig
from repro.runtime.machine import FAST_PATHS, Machine

from .test_fastpath_differential import logical_stats, rmat_instance

TIERS = list(FAST_PATHS)
N_RANKS = 4


def is_start(payload) -> bool:
    return payload[1] == -1


#: Layer stacks per action, built fresh per machine (layers hold state).
STACKS = {
    "none": lambda: None,
    "coalescing": lambda: {"relax": {"coalescing": 16}},
    # Starts bypass the duplicate cache: re-invoking a vertex after its
    # value changed is byte-identical to the first start and must be sent.
    "caching+coalescing": lambda: {
        "relax": {"cache": CachingLayer(bypass=is_start), "coalescing": 16}
    },
}


@pytest.fixture(scope="module")
def instance():
    g, wbg, _s, _t = rmat_instance(scale=7, edge_factor=6, seed=5, n_ranks=N_RANKS)
    rng = np.random.default_rng(11)
    # Two waves before the first drain (the second lands on partial
    # buffers), one after it; duplicates and a >buffer-size wave included.
    waves = [
        rng.integers(0, g.n_vertices, size=70).tolist(),
        rng.integers(0, g.n_vertices, size=9).tolist(),
        rng.integers(0, g.n_vertices, size=23).tolist(),
    ]
    return g, wbg, waves


def by_owner(graph, wave):
    return sorted(wave, key=graph.owner)  # stable: order within a rank kept


def drive(instance, tier, stack, bulk, *, grouped=False, chaos_seed=None, hook="scalar"):
    """Run the three waves with one driver or the other; returns the wire
    log, the index where handler traffic starts, stats and ``dist``."""
    g, wbg, waves = instance
    if grouped:
        waves = [by_owner(g, w) for w in waves]
    kw = {}
    if chaos_seed is not None:
        kw = dict(
            chaos=ChaosConfig(seed=chaos_seed, drop=0.1, duplicate=0.1, reorder=0.1, split=0.1),
            # Without coalescing the mailboxes run thousands of messages
            # deep: back off far enough that an ack can get through.
            reliable=ReliableConfig(retry_base=256, retry_cap=1 << 15),
        )
    m = Machine(n_ranks=N_RANKS, fast_path=tier, **kw)
    bp = bind_sssp(m, g, wbg, layers=STACKS[stack]())
    dist, relax = bp.map("dist"), bp["relax"]
    dist.fill(math.inf)
    for v in waves[0]:
        dist[v] = float(v % 5)
    relax.work = relax.invoke_from
    if hook == "bulk":
        relax.work_many = relax.invoke_many_from
    log = []
    m.telemetry.add_wire_observer(
        lambda mtype, src, dest, payload, batch: log.append(
            (src, dest, batch, [tuple(p) for p in payload] if batch else tuple(payload))
        )
    )

    def start(ep, wave):
        if bulk:
            relax.invoke_many(ep, wave)
        else:
            for v in wave:
                relax.invoke(ep, v)

    with m.epoch() as ep:
        start(ep, waves[0])
        start(ep, waves[1])
        driver_only = len(log)
        ep.flush()
        start(ep, waves[2])
    return log, driver_only, logical_stats(m), dist.to_array()


def channels(log):
    out: dict = {}
    for src, dest, batch, rows in log:
        out.setdefault((src, dest), []).append((batch, rows))
    return out


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("tier", TIERS)
def test_same_envelopes_stats_and_maps_as_sequential_invoke(instance, tier, stack):
    seq_log, seq_mark, seq_stats, seq_dist = drive(instance, tier, stack, bulk=False)
    bulk_log, bulk_mark, bulk_stats, bulk_dist = drive(instance, tier, stack, bulk=True)
    assert seq_mark == bulk_mark and seq_mark > 0
    assert channels(bulk_log) == channels(seq_log)
    assert bulk_stats == seq_stats
    assert np.array_equal(bulk_dist, seq_dist)
    assert np.isfinite(seq_dist).sum() > len(set(instance[2][0]))  # real work happened
    # Grouped by owner, not even the interleaving across ranks differs.
    assert (
        drive(instance, tier, stack, bulk=True, grouped=True)[0]
        == drive(instance, tier, stack, bulk=False, grouped=True)[0]
    )


@pytest.mark.parametrize("chaos_seed", range(5))
@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("tier", TIERS)
def test_bit_identical_under_chaos(instance, tier, stack, chaos_seed):
    seq = drive(instance, tier, stack, bulk=False, grouped=True, chaos_seed=chaos_seed)
    bulk = drive(instance, tier, stack, bulk=True, grouped=True, chaos_seed=chaos_seed)
    assert bulk[0] == seq[0], "wire logs differ"
    assert bulk[2] == seq[2], "stats differ (chaos counters included)"
    assert seq[2]["chaos"]["dropped"] + seq[2]["chaos"]["duplicated"] > 0
    assert np.array_equal(bulk[3], seq[3])
    # ... and the faults were absorbed: same fixed point as a clean run.
    assert np.array_equal(bulk[3], drive(instance, tier, stack, bulk=True, grouped=True)[3])


@pytest.mark.parametrize("tier", ["vector", "native"])
def test_bulk_work_hook_matches_per_vertex_hook(instance, tier):
    """``work_many = invoke_many_from`` re-invokes one envelope's dependents
    as a column; the run is indistinguishable from ``work = invoke_from``."""
    one = drive(instance, tier, "coalescing", bulk=True, hook="scalar")
    many = drive(instance, tier, "coalescing", bulk=True, hook="bulk")
    assert many[0] == one[0]
    assert many[2] == one[2] and many[2]["total"]["work_items"] > 0
    assert np.array_equal(many[3], one[3])


@pytest.mark.parametrize("tier", ["off", "compiled"])
def test_scalar_handlers_see_plain_int_payload_tuples(instance, tier):
    """``compiled`` receives its starts as a column batch, ``off`` row by
    row; the scalar handler gets ``(int, int, int)`` tuples either way —
    never numpy scalars, which would leak into payloads it packs."""
    g, wbg, waves = instance
    m = Machine(n_ranks=N_RANKS, fast_path=tier)
    bp = bind_sssp(m, g, wbg, layers=STACKS["coalescing"]())
    relax = bp["relax"]
    seen, inner = [], relax.mtype.handler

    def recording(ctx, payload):
        seen.append(payload)
        inner(ctx, payload)

    relax.mtype.handler = recording
    with m.epoch() as ep:
        relax.invoke_many(ep, np.array(waves[0], dtype=np.int32))
    starts = [p for p in seen if is_start(p)]
    assert sorted(p[0] for p in starts) == sorted(waves[0])
    assert all(type(p) is tuple and [type(x) for x in p] == [int] * 3 for p in starts)


# The generator case gets a fixed id: a lambda's repr carries its address,
# which differs from run to run.
@pytest.mark.parametrize(
    "make",
    [list, tuple, set, np.array, iter, pytest.param(lambda vs: (v for v in vs), id="generator")],
    ids=repr,
)
def test_accepts_any_iterable_of_vertices(instance, make):
    g, wbg, _ = instance
    vs = [5, 9, 64, 127]
    m = Machine(n_ranks=N_RANKS, fast_path="vector")
    bp = bind_sssp(m, g, wbg, layers=STACKS["coalescing"]())
    with m.epoch() as ep:
        bp["relax"].invoke_many(ep, make(vs))
        bp["relax"].invoke_many(m, make([]))  # a Machine target, nothing to send
    assert m.stats.by_type[bp["relax"].mtype.name].coalesced_items >= len(vs)


def test_column_is_copied_at_the_call(instance):
    """The buffers keep the start column until flush; the caller's array
    must be free to change meanwhile."""
    g, wbg, _ = instance
    m = Machine(n_ranks=N_RANKS, fast_path="vector")
    bp = bind_sssp(m, g, wbg, layers=STACKS["coalescing"]())
    log = []
    m.telemetry.add_wire_observer(lambda mt, s, d, payload, b: log.extend(p[0] for p in payload))
    vs = np.array([4, 8, 12], dtype=np.int64)
    with m.epoch() as ep:
        bp["relax"].invoke_many(ep, vs)
        vs[:] = 0
    assert log[:3] == [4, 8, 12]


@pytest.mark.parametrize("stack", ["none", "coalescing"])
@pytest.mark.parametrize("tier", ["off", "vector"])
def test_out_of_range_vertex_raises_like_invoke(instance, tier, stack):
    g, wbg, _ = instance
    m = Machine(n_ranks=N_RANKS, fast_path=tier)
    bp = bind_sssp(m, g, wbg, layers=STACKS[stack]())
    with pytest.raises(IndexError, match="out of range"):
        bp["relax"].invoke(m, g.n_vertices)
    with pytest.raises(IndexError, match="out of range"):
        bp["relax"].invoke_many(m, [0, g.n_vertices, 1])


def test_batch_hook_defaults_to_the_per_vertex_hook(instance):
    """A user ``work`` hook keeps working on the batch tiers, and a batch
    form never outlives the per-vertex hook it was installed with (``once``
    clearing ``work`` must not leave ``fixed_point``'s re-invoke behind)."""
    g, wbg, _ = instance
    m = Machine(n_ranks=N_RANKS, fast_path="vector")
    bp = bind_sssp(m, g, wbg, layers=STACKS["coalescing"]())
    relax, dist = bp["relax"], bp.map("dist")
    relax.work = relax.invoke_from
    relax.work_many = relax.invoke_many_from
    relax.work = None
    assert relax.work_many is None
    seen: list = []
    relax.work = lambda ctx, w: seen.append((ctx.rank, w))
    hub = int(np.argmax(g.degree_histogram()))
    dist[hub] = 0.0
    with m.epoch() as ep:
        relax.invoke_many(ep, [hub])
    assert seen and all(type(w) is int and g.owner(w) == r for r, w in seen)
    assert len(seen) == m.stats.total.work_items
