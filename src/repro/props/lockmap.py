"""The lock map abstraction (paper Sec. IV-B).

"The synchronization primitives are implemented through a lock map
abstraction.  The lock map has an interface for requesting a lock and for
atomic instructions on property maps for the single-value case. ... The
lock map abstraction allows to parameterize an algorithm by a locking
scheme.  Two examples of possible locking schemes are a single lock per
vertex or a lock for a block of vertices, with a tradeoff between the
coarseness of synchronization and the number of locks."

This module implements exactly that: a :class:`LockMap` parameterized by
granularity (per-vertex, or blocks of ``block_size`` vertices), a lock-
acquisition interface, and single-value atomic read-modify-write helpers
(`atomic_min`, `atomic_max`, `atomic_add`, `compare_and_set`, and the
general `atomic_update`).  In CPython the helpers are "atomic" by holding
the slot lock — the same observable semantics as hardware atomics, which
is what matters for algorithm correctness under the thread transport.

The cheapest scheme is no locks at all (``concurrent=False``): where no two
handlers of a rank can run at once there is nothing to exclude.  ``bind``
picks it from :attr:`~repro.runtime.transport.Transport.concurrent_handlers`
unless the caller passes a lock map of its own.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Callable

import numpy as np

from .property_map import VertexPropertyMap


_NO_LOCK = nullcontext()  # what the lock-free scheme hands out


class LockMap:
    """Locks covering vertex slots at a configurable granularity.

    ``concurrent=False`` selects the lock-free scheme: no ``Lock`` objects
    exist, and ``lock``/``lock_for``/``lock_many`` range-check their
    argument and return one shared no-op context.
    """

    def __init__(
        self, n_vertices: int, *, block_size: int = 1, concurrent: bool = True
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.n_vertices = n_vertices
        self.block_size = block_size
        self.concurrent = concurrent
        self._locks: list = []
        self._allocate()

    def _allocate(self) -> None:
        """One lock per block up to ``n_vertices`` (none when lock-free)."""
        if not self.concurrent:
            return
        need = max(1, (self.n_vertices + self.block_size - 1) // self.block_size)
        while len(self._locks) < need:
            self._locks.append(threading.Lock())

    @classmethod
    def per_vertex(cls, n_vertices: int) -> "LockMap":
        return cls(n_vertices, block_size=1)

    @classmethod
    def per_block(cls, n_vertices: int, block_size: int) -> "LockMap":
        return cls(n_vertices, block_size=block_size)

    @property
    def n_locks(self) -> int:
        return len(self._locks)

    def grow(self, n_vertices: int) -> None:
        """Extend coverage to ``n_vertices`` (graph mutation added vertices).

        Existing locks keep their identity — handlers already holding one
        are unaffected; only new trailing blocks gain fresh locks.
        """
        if n_vertices <= self.n_vertices:
            return
        self.n_vertices = n_vertices
        self._allocate()

    def lock_for(self, v: int):
        """The lock guarding vertex ``v``'s slot."""
        if not 0 <= v < max(self.n_vertices, 1):
            raise IndexError(f"vertex {v} out of range")
        if not self.concurrent:
            return _NO_LOCK
        return self._locks[v // self.block_size]

    def lock(self, v: int):
        """Context manager: ``with lockmap.lock(v): ...``"""
        return self.lock_for(v)

    def lock_many(self, vertices):
        """Acquire several vertex locks deadlock-free (sorted by lock index).

        ``vertices`` is an integer ndarray (the batch kernels pass the
        destination column as is) or any sequence of vertex ids.
        """
        v = np.asarray(vertices, dtype=np.int64)
        bad = (v < 0) | (v >= max(self.n_vertices, 1))
        if bad.any():
            raise IndexError(f"vertex {v[bad][0]} out of range")
        if not self.concurrent:
            return _NO_LOCK
        locks = self._locks
        return _MultiLock([locks[i] for i in np.unique(v // self.block_size).tolist()])

    # -- single-value atomics (paper: "atomic instructions where supported") --
    def atomic_update(
        self, pm: VertexPropertyMap, v: int, fn: Callable, rank: int | None = None
    ):
        """Atomically apply ``fn(old) -> new``; returns (old, new)."""
        with self.lock_for(v):
            old = pm.get(v, rank)
            new = fn(old)
            pm.set(v, new, rank)
            return old, new

    def atomic_min(
        self, pm: VertexPropertyMap, v: int, value, rank: int | None = None
    ) -> tuple[bool, object]:
        """Atomically ``pm[v] = min(pm[v], value)``; (changed?, old value)."""
        with self.lock_for(v):
            old = pm.get(v, rank)
            if value < old:
                pm.set(v, value, rank)
                return True, old
            return False, old

    def atomic_max(
        self, pm: VertexPropertyMap, v: int, value, rank: int | None = None
    ) -> tuple[bool, object]:
        with self.lock_for(v):
            old = pm.get(v, rank)
            if value > old:
                pm.set(v, value, rank)
                return True, old
            return False, old

    def atomic_add(
        self, pm: VertexPropertyMap, v: int, delta, rank: int | None = None
    ):
        """Atomically ``pm[v] += delta``; returns the new value."""
        with self.lock_for(v):
            new = pm.get(v, rank) + delta
            pm.set(v, new, rank)
            return new

    def compare_and_set(
        self, pm: VertexPropertyMap, v: int, expected, value, rank: int | None = None
    ) -> bool:
        """Atomically set iff current == expected; returns success."""
        with self.lock_for(v):
            if pm.get(v, rank) == expected:
                pm.set(v, value, rank)
                return True
            return False


class _MultiLock:
    """Acquire a fixed list of locks in order; release in reverse."""

    def __init__(self, locks) -> None:
        self._locks = locks

    def __enter__(self):
        for lk in self._locks:
            lk.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for lk in reversed(self._locks):
            lk.release()
