"""The bucket structure used by Delta-stepping (paper Sec. II-A).

A vertex with priority value ``x`` lands in bucket ``floor(x / delta)``.
The structure is thread-safe ("the Delta-stepping strategy ... has to
provide a thread-safe buckets data structure"): work hooks executing on
handler threads insert concurrently with the strategy thread draining.

Vertices may be re-inserted with improved values; stale entries are
filtered on pop by the caller (standard Delta-stepping practice — the
paper's ``relax`` re-check makes stale pops harmless).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Optional

import numpy as np


class Buckets:
    """Priority buckets of width ``delta``."""

    def __init__(self, delta: float) -> None:
        if not delta > 0:
            raise ValueError("delta must be > 0")
        self.delta = float(delta)
        self._buckets: dict[int, deque] = {}
        self._lock = threading.Lock()
        self.inserts = 0

    def index_for(self, value: float) -> int:
        if math.isinf(value):
            raise ValueError("cannot bucket an infinite priority")
        return int(value // self.delta)

    def insert(self, vertex: int, value: float) -> int:
        """Insert ``vertex`` with priority ``value``; returns bucket index."""
        i = self.index_for(value)
        with self._lock:
            self._buckets.setdefault(i, deque()).append(vertex)
            self.inserts += 1
        return i

    def insert_many(self, vertices, values) -> None:
        """:meth:`insert` for each ``(vertex, value)`` pair, in order."""
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError("cannot bucket an infinite priority")
        indices = (values // self.delta).astype(np.int64).tolist()
        with self._lock:
            buckets = self._buckets
            for i, v in zip(indices, np.asarray(vertices).tolist()):
                b = buckets.get(i)
                if b is None:
                    b = buckets[i] = deque()
                b.append(v)
            self.inserts += len(indices)

    def pop(self, index: int) -> Optional[int]:
        """Pop one vertex from bucket ``index`` (None if empty)."""
        with self._lock:
            b = self._buckets.get(index)
            if not b:
                return None
            return b.popleft()

    def drain(self, index: int) -> list[int]:
        """Remove and return the whole bucket ``index``."""
        with self._lock:
            b = self._buckets.pop(index, None)
            return list(b) if b else []

    def bucket_empty(self, index: int) -> bool:
        with self._lock:
            return not self._buckets.get(index)

    def empty(self) -> bool:
        with self._lock:
            return all(not b for b in self._buckets.values())

    def next_nonempty(self, start: int = 0) -> Optional[int]:
        """Smallest bucket index >= start with entries (None if none)."""
        with self._lock:
            candidates = [i for i, b in self._buckets.items() if b and i >= start]
            return min(candidates) if candidates else None

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buckets.values())

    # -- checkpointing --------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Bucket contents in insertion order (deque order is semantic:
        Delta-stepping pops FIFO, so a restored bucket must replay pops
        in the same order).  Empty buckets are elided — a popped-empty
        bucket and a never-created one are indistinguishable."""
        with self._lock:
            return {
                "delta": self.delta,
                "buckets": {i: list(b) for i, b in self._buckets.items() if b},
                "inserts": self.inserts,
            }

    def restore_state(self, state: dict) -> None:
        if float(state["delta"]) != self.delta:
            raise ValueError(
                f"cannot restore buckets of width {state['delta']} into "
                f"buckets of width {self.delta}"
            )
        with self._lock:
            self._buckets = {
                int(i): deque(vs) for i, vs in state["buckets"].items()
            }
            self.inserts = int(state["inserts"])
