"""The thread-safe bucket structure for Delta-stepping."""

import threading

import numpy as np
import pytest

from repro.strategies import Buckets


class TestBucketIndexing:
    def test_index_for(self):
        b = Buckets(2.0)
        assert b.index_for(0.0) == 0
        assert b.index_for(1.99) == 0
        assert b.index_for(2.0) == 1
        assert b.index_for(7.5) == 3

    def test_infinite_priority_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            Buckets(1.0).index_for(float("inf"))

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            Buckets(0.0)
        with pytest.raises(ValueError):
            Buckets(-1.0)


class TestBucketOps:
    def test_insert_pop(self):
        b = Buckets(1.0)
        assert b.insert(7, 2.5) == 2
        assert b.pop(2) == 7
        assert b.pop(2) is None

    def test_fifo_within_bucket(self):
        b = Buckets(1.0)
        for v in (1, 2, 3):
            b.insert(v, 0.5)
        assert [b.pop(0) for _ in range(3)] == [1, 2, 3]

    def test_drain(self):
        b = Buckets(1.0)
        b.insert(1, 0.1)
        b.insert(2, 0.2)
        assert b.drain(0) == [1, 2]
        assert b.bucket_empty(0)

    def test_empty_and_next_nonempty(self):
        b = Buckets(1.0)
        assert b.empty()
        assert b.next_nonempty() is None
        b.insert(5, 3.3)
        assert not b.empty()
        assert b.next_nonempty() == 3
        assert b.next_nonempty(4) is None

    def test_len(self):
        b = Buckets(1.0)
        b.insert(1, 0.0)
        b.insert(2, 5.0)
        assert len(b) == 2

    def test_insert_many_is_repeated_insert(self):
        """Same buckets, same FIFO order within each, same ``inserts``
        count, and the same checkpoint, whether the pairs arrive one by
        one or as arrays (on top of earlier contents)."""
        rng = np.random.default_rng(4)
        vertices = rng.integers(0, 50, size=200)
        values = rng.uniform(0.0, 12.0, size=200)
        values[::7] = 3.0  # exact bucket boundaries
        one, many = Buckets(1.5), Buckets(1.5)
        for b in (one, many):
            b.insert(99, 4.4)
        for v, x in zip(vertices.tolist(), values.tolist()):
            one.insert(v, x)
        many.insert_many(vertices, values)
        assert many.inserts == one.inserts == 201
        assert many.checkpoint_state() == one.checkpoint_state()
        restored = Buckets(1.5)
        restored.restore_state(many.checkpoint_state())
        i = one.next_nonempty()
        assert restored.drain(i) == one.drain(i)
        many.insert_many([], [])
        assert many.inserts == 201

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_insert_many_rejects_non_finite_priorities(self, bad):
        b = Buckets(1.0)
        with pytest.raises(ValueError, match="infinite"):
            b.insert_many([1, 2], [0.5, bad])
        assert len(b) == 0 and b.inserts == 0

    def test_reinsertion_allowed(self):
        """Improved vertices re-enter earlier buckets; stale entries are
        the caller's concern (the relax re-check makes them harmless)."""
        b = Buckets(1.0)
        b.insert(1, 5.0)
        b.insert(1, 2.0)
        assert b.next_nonempty() == 2
        assert len(b) == 2

    def test_concurrent_inserts(self):
        b = Buckets(1.0)

        def insert_many(base):
            for i in range(500):
                b.insert(base + i, float(i % 7))

        threads = [threading.Thread(target=insert_many, args=(k * 1000,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(b) == 2000
        assert b.inserts == 2000
