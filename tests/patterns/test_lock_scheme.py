"""The locking scheme ``bind`` picks follows the transport (paper Sec. IV-B).

A transport states whether two handlers of one rank can run at once; with
no ``lockmap=`` argument the bound pattern gets a lock-free ``LockMap``
where they cannot (``sim``, ``process``, one-worker ``threads``) and a
per-vertex one where they can (``threads_per_rank > 1``).  A lock map the
caller passes is the algorithm's parameter and is used as is.  The
multi-worker race-freedom itself is tested where real threads run:
``tests/test_integration_threads.py`` and ``tests/runtime/test_threads.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Machine
from repro.algorithms.sssp import bind_sssp, sssp_fixed_point
from repro.graph.mutate import MutationBatch
from repro.props import LockMap
from repro.runtime import ChaosConfig

from ..runtime.test_rebalance import powerlaw

SINGLE_HANDLER = [
    dict(transport="sim"),
    dict(transport="process"),
    dict(transport="threads"),
    dict(transport="threads", threads_per_rank=1),
    dict(transport="sim", chaos=ChaosConfig(seed=1, duplicate=0.1), reliable=True),
]


def ids(kw):
    return "-".join(f"{k}={v}" if k != "chaos" else "chaos" for k, v in kw.items())


@pytest.mark.parametrize("machine_kw", SINGLE_HANDLER, ids=ids)
def test_single_handler_transports_bind_lock_free(machine_kw):
    g, wm, ref = powerlaw()
    with Machine(2, **machine_kw) as m:
        assert m.transport.concurrent_handlers is False
        bp = bind_sssp(m, g, wm, layers={"relax": {"coalescing": 16}})
        lm = bp.lockmap
        assert lm.concurrent is False and lm.n_locks == 0
        for bad in (g.n_vertices, -1):
            with pytest.raises(IndexError, match="out of range"):
                lm.lock(bad)
            with pytest.raises(IndexError, match="out of range"):
                lm.lock_many(np.array([0, bad]))
        assert np.array_equal(sssp_fixed_point(m, g, wm, 0, bound=bp), ref)


@pytest.mark.parametrize("chaos", [None, ChaosConfig(seed=2, duplicate=0.1)])
def test_multi_worker_threads_bind_per_vertex_locks(chaos):
    g, wm, ref = powerlaw()
    with Machine(2, transport="threads", threads_per_rank=4, chaos=chaos) as m:
        assert m.transport.concurrent_handlers is True
        if chaos is not None:  # the decorator states what it wraps
            assert m.chaos.concurrent_handlers is True
        bp = bind_sssp(m, g, wm, layers={"relax": {"coalescing": 16}})
        assert bp.lockmap.concurrent and bp.lockmap.n_locks == g.n_vertices
        assert np.array_equal(sssp_fixed_point(m, g, wm, 0, bound=bp), ref)


def test_chaos_decorator_delegates():
    m = Machine(2, chaos=ChaosConfig(seed=0))
    assert m.chaos.concurrent_handlers is m.transport.concurrent_handlers is False


@pytest.mark.parametrize("transport", ["sim", "threads"])
def test_a_supplied_lock_map_is_used_as_is(transport):
    from repro.algorithms.sssp import sssp_pattern
    from repro.patterns import bind

    g, wm, ref = powerlaw()
    with Machine(2, transport=transport) as m:
        lm = LockMap.per_block(g.n_vertices, 8)
        bp = bind(sssp_pattern(), m, g, props={"weight": wm}, lockmap=lm)
        assert bp.lockmap is lm and lm.concurrent and lm.n_locks == g.n_vertices // 8
        assert np.array_equal(sssp_fixed_point(m, g, wm, 0, bound=bp), ref)


@pytest.mark.parametrize(
    "machine_kw, n_locks",
    [(dict(transport="sim"), 0), (dict(transport="threads", threads_per_rank=4), 1)],
    ids=["sim", "threads4"],
)
def test_scheme_survives_rebalance_and_vertex_adds(machine_kw, n_locks):
    """``Machine.rebalance`` resizes the transport it has, so what the
    transport states cannot change under a bound pattern; added vertices
    are covered in either scheme."""
    g, wm, ref = powerlaw()
    with Machine(2, **machine_kw) as m:
        bp = bind_sssp(m, g, wm, layers={"relax": {"coalescing": 16}})
        lm, stated = bp.lockmap, m.transport.concurrent_handlers
        m.rebalance(new_ranks=4, partitioner="degree")
        assert m.transport.concurrent_handlers is stated is lm.concurrent
        assert bp.lockmap is lm and lm.n_locks == n_locks * g.n_vertices
        assert np.array_equal(sssp_fixed_point(m, g, wm, 0, bound=bp), ref)
        n = g.n_vertices
        m.apply_mutations(MutationBatch().add_vertices(3))
        assert lm.n_vertices == n + 3 and lm.n_locks == n_locks * (n + 3)
        with lm.lock_many([n + 2, 0]):
            pass
        with pytest.raises(IndexError):
            lm.lock(n + 3)
