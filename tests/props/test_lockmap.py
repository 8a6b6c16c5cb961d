"""LockMap: granularity, atomics, and real-thread race freedom."""

import threading

import numpy as np
import pytest

from repro.graph import from_edges
from repro.props import LockMap, VertexPropertyMap


@pytest.fixture
def graph():
    g, _ = from_edges(8, [0], [1], n_ranks=2)
    return g


class TestGranularity:
    def test_per_vertex(self):
        lm = LockMap.per_vertex(10)
        assert lm.n_locks == 10
        assert lm.lock_for(3) is not lm.lock_for(4)

    def test_per_block(self):
        lm = LockMap.per_block(10, 4)
        assert lm.n_locks == 3
        assert lm.lock_for(0) is lm.lock_for(3)
        assert lm.lock_for(0) is not lm.lock_for(4)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            LockMap(10, block_size=0)

    def test_out_of_range(self):
        lm = LockMap(5)
        with pytest.raises(IndexError):
            lm.lock_for(5)

    def test_lock_is_context_manager(self):
        lm = LockMap(4)
        with lm.lock(2):
            assert lm.lock_for(2).locked()
        assert not lm.lock_for(2).locked()

    def test_lock_many_sorted_no_deadlock(self):
        lm = LockMap(10, block_size=2)
        with lm.lock_many([7, 1, 3]):
            assert lm.lock_for(1).locked()
            assert lm.lock_for(7).locked()

    def test_lock_many_takes_an_ndarray(self):
        """The batch kernels pass the destination column as is: every
        touched block is held exactly once, released on exit."""
        lm = LockMap(10, block_size=2)
        with lm.lock_many(np.array([7, 1, 3, 7, 6, 1])) as held:
            assert [lm._locks.index(lk) for lk in held._locks] == [0, 1, 3]
            assert all(lk.locked() for lk in held._locks)
            assert not lm.lock_for(4).locked()
        assert not any(lk.locked() for lk in lm._locks)
        with lm.lock_many(np.array([], dtype=np.int64)) as held:
            assert held._locks == []

    @pytest.mark.parametrize("bad", [[2, 5], [-1, 2], np.array([0, 9])])
    def test_lock_many_out_of_range(self, bad):
        lm = LockMap(5)
        with pytest.raises(IndexError, match="out of range"):
            lm.lock_many(bad)


class TestLockFreeScheme:
    """``concurrent=False``: the interface and its range checks without a
    single ``Lock`` — the scheme ``bind`` picks where one thread runs all
    of a rank's handlers."""

    def test_no_locks_one_shared_noop_context(self):
        lm = LockMap(10, concurrent=False)
        assert lm.n_locks == 0 and lm._locks == []
        ctx = lm.lock(3)
        assert ctx is lm.lock_for(7) is lm.lock_many(np.array([1, 9, 1]))
        with ctx:
            with lm.lock(3):  # re-entrant by construction
                pass

    @pytest.mark.parametrize("bad", [[2, 5], [-1, 2], np.array([0, 9])])
    def test_range_checks_kept(self, bad):
        lm = LockMap(5, concurrent=False)
        with pytest.raises(IndexError, match="out of range"):
            lm.lock_many(bad)
        with pytest.raises(IndexError, match="out of range"):
            lm.lock(5)
        with pytest.raises(IndexError, match="out of range"):
            lm.lock_for(-1)

    @pytest.mark.parametrize("concurrent", [True, False])
    def test_grow_in_both_schemes(self, concurrent):
        lm = LockMap(5, block_size=2, concurrent=concurrent)
        before = list(lm._locks)
        lm.grow(9)
        assert lm.n_vertices == 9
        assert lm.n_locks == (5 if concurrent else 0)
        assert lm._locks[: len(before)] == before  # identities kept
        with lm.lock_many([8, 0]):
            pass
        with pytest.raises(IndexError):
            lm.lock(9)
        lm.grow(4)  # never shrinks
        assert lm.n_vertices == 9

    def test_atomics_work_without_locks(self, graph):
        pm = VertexPropertyMap(graph, "f8", default=10.0)
        lm = LockMap(graph.n_vertices, concurrent=False)
        assert lm.atomic_min(pm, 2, 4.0) == (True, 10.0)
        assert lm.atomic_add(pm, 2, 1.5) == 5.5
        assert lm.compare_and_set(pm, 2, 5.5, 1.0) and pm[2] == 1.0


class TestAtomics:
    def test_atomic_min_improves(self, graph):
        pm = VertexPropertyMap(graph, "f8", default=10.0)
        lm = LockMap(graph.n_vertices)
        changed, old = lm.atomic_min(pm, 2, 4.0)
        assert changed and old == 10.0
        assert pm[2] == 4.0

    def test_atomic_min_rejects_worse(self, graph):
        pm = VertexPropertyMap(graph, "f8", default=5.0)
        lm = LockMap(graph.n_vertices)
        changed, old = lm.atomic_min(pm, 2, 8.0)
        assert not changed and old == 5.0
        assert pm[2] == 5.0

    def test_atomic_max(self, graph):
        pm = VertexPropertyMap(graph, "i8", default=3)
        lm = LockMap(graph.n_vertices)
        assert lm.atomic_max(pm, 1, 7) == (True, 3)
        assert lm.atomic_max(pm, 1, 2) == (False, 7)

    def test_atomic_add(self, graph):
        pm = VertexPropertyMap(graph, "f8", default=1.0)
        lm = LockMap(graph.n_vertices)
        assert lm.atomic_add(pm, 0, 2.5) == 3.5
        assert pm[0] == 3.5

    def test_compare_and_set(self, graph):
        pm = VertexPropertyMap(graph, "i8", default=0)
        lm = LockMap(graph.n_vertices)
        assert lm.compare_and_set(pm, 4, 0, 9)
        assert not lm.compare_and_set(pm, 4, 0, 11)
        assert pm[4] == 9

    def test_atomic_update_general(self, graph):
        pm = VertexPropertyMap(graph, "i8", default=10)
        lm = LockMap(graph.n_vertices)
        old, new = lm.atomic_update(pm, 3, lambda x: x * 2)
        assert (old, new) == (10, 20)


class TestThreadSafety:
    def test_concurrent_adds_do_not_lose_updates(self, graph):
        pm = VertexPropertyMap(graph, "i8", default=0)
        lm = LockMap(graph.n_vertices)
        N, T = 2000, 4

        def worker():
            for _ in range(N):
                lm.atomic_add(pm, 0, 1)

        threads = [threading.Thread(target=worker) for _ in range(T)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pm[0] == N * T

    def test_concurrent_min_settles_to_global_min(self, graph):
        pm = VertexPropertyMap(graph, "f8", default=1e9)
        lm = LockMap(graph.n_vertices, block_size=4)
        values = list(range(1000, 0, -1))

        def worker(vals):
            for v in vals:
                lm.atomic_min(pm, 5, float(v))

        threads = [
            threading.Thread(target=worker, args=(values[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pm[5] == 1.0
