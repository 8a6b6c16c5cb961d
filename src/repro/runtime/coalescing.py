"""Message coalescing (paper Sec. IV: "coalescing greatly improves
performance when large amounts of messages are sent").

The coalescing layer keeps, per (source rank, destination rank), a buffer
of logical payloads.  When a buffer reaches ``buffer_size`` it is shipped
as a *single physical envelope* whose delivery runs the base handler once
per buffered payload.  Statistics record both logical sends and physical
flushes, so benchmarks can report the physical-message reduction factor —
the quantity AM++'s coalescing is designed to improve.

Buffers count as pending work for termination detection: an epoch cannot
end while a buffer is non-empty, and the transport flushes buffers when
mailboxes run dry (mirroring AM++'s end-of-epoch flush).
"""

from __future__ import annotations

import numpy as np

from .layers import Emit, Layer
from .wire import WireBatch


class _ColumnBuffer:
    """One (src, dest) buffer once a bulk send has touched it.

    Holds column chunks — and any scalar payloads that arrive between
    them — in arrival order.  It stands in for the plain row list:
    ``append`` and ``len`` are all :meth:`CoalescingLayer.send` asks of a
    buffer, so the scalar path runs the same statements on either kind and
    the chunks' row counts live here, with the buffer they belong to.
    """

    __slots__ = ("entries", "nrows")

    def __init__(self, rows=()) -> None:
        self.entries: list = list(rows)
        self.nrows = len(self.entries)

    def __len__(self) -> int:
        return self.nrows

    def append(self, payload) -> None:
        self.entries.append(payload)
        self.nrows += 1

    def add(self, chunk: WireBatch) -> None:
        self.entries.append(chunk)
        self.nrows += chunk.nrows

    def take(self):
        """The buffered rows as one frozen envelope body: a column batch
        when only chunks of one width are held, otherwise row tuples in
        arrival order."""
        entries = self.entries
        if all(isinstance(e, WireBatch) and e.ncols == entries[0].ncols for e in entries):
            return WireBatch.concat(entries).freeze()
        rows: list = []
        for e in self.entries:
            if isinstance(e, WireBatch):
                rows.extend(e)
            else:
                rows.append(e if isinstance(e, tuple) else tuple(e))
        return tuple(rows)


class CoalescingLayer(Layer):
    """Buffer per (src, dest); flush when full or on demand.

    Parameters
    ----------
    buffer_size:
        Number of logical payloads per physical envelope.  1 disables
        batching in effect (every send flushes immediately).
    """

    def __init__(self, buffer_size: int = 64) -> None:
        super().__init__()
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.buffer_size = buffer_size
        # _buffers[src][dest] -> list of payload tuples, or a _ColumnBuffer
        self._buffers: dict[int, dict] = {}

    def attach(self, machine, mtype) -> None:
        super().attach(machine, mtype)
        self._buffers = {r: {} for r in range(machine.n_ranks)}

    # -- layer interface ---------------------------------------------------
    def send(self, src: int, dest: int, payload: tuple, emit: Emit) -> None:
        key = src if src >= 0 else dest  # driver-injected sends buffer at dest
        buf = self._buffers[key].setdefault(dest, [])
        buf.append(payload)
        if len(buf) >= self.buffer_size:
            self._flush_one(key, dest)

    def send_rows(self, src: int, dest: int, columns: WireBatch) -> None:
        """Bulk-append pre-admitted payload rows, held as columns.

        The columnar entry point of the vector fan-out.  The buffer
        fills and flushes at exactly the boundaries ``columns.nrows``
        sequential :meth:`send` calls would produce, so logical send
        counts, flush counts and envelope contents are identical to the
        per-row path.  An envelope cut entirely from column chunks of one
        width ships as a column batch; one that also holds scalar payloads
        or chunks of another width (the ``(r, r)`` buffer mixes 3-column
        starts with wider local fan-out rows) ships as row tuples in
        arrival order.
        """
        key = src if src >= 0 else dest
        per_dest = self._buffers[key]
        size = self.buffer_size
        n = columns.nrows
        i = 0
        while i < n:
            buf = per_dest.setdefault(dest, [])
            if not buf and n - i >= size:
                # A full envelope straight from the columns.
                self._ship(key, dest, columns[i : i + size].freeze())
                i += size
                continue
            if type(buf) is not _ColumnBuffer:
                buf = per_dest[dest] = _ColumnBuffer(buf)
            take = min(size - buf.nrows, n - i)
            buf.add(columns[i : i + take])
            i += take
            if buf.nrows >= size:
                self._flush_one(key, dest)

    def send_rows_in_order(self, src: int, dests: np.ndarray, columns: WireBatch) -> None:
        """Bulk-append rows bound for several destinations (``dests[i]``
        for row ``i``), exactly as a :meth:`send` per row in order would.

        Each destination's rows go through :meth:`send_rows`, cut where
        its buffer fills, and the cuts run in row order: envelopes are
        shipped in the order sequential sends ship them, and a new buffer
        is created at its destination's first row (its key's position is
        the end-of-epoch flush order).  A stable split per destination
        keeps every envelope's contents but not that order, which the
        ``fifo``/``lifo`` schedules deliver by.
        """
        size = self.buffer_size
        order = np.argsort(dests, kind="stable")
        ranks, first, counts = np.unique(dests, return_index=True, return_counts=True)
        columns = columns.take(order)
        lo = dict(zip(ranks.tolist(), (np.cumsum(counts) - counts).tolist()))
        cuts: list = []  # (row that fills the buffer, dest, dest rows through it)
        for i in np.argsort(first).tolist():
            d, n = int(ranks[i]), int(counts[i])
            buf = self._buffers[src if src >= 0 else d].setdefault(d, [])
            rows = order[lo[d] :]
            cuts += [(int(rows[c - 1]), d, c) for c in range(size - len(buf), n + 1, size)]
        sent = dict.fromkeys(lo, 0)
        for _, d, c in sorted(cuts):
            self.send_rows(src, d, columns[lo[d] + sent[d] : lo[d] + c])
            sent[d] = c
        for d, n in zip(ranks.tolist(), counts.tolist()):
            if sent[d] < n:
                self.send_rows(src, d, columns[lo[d] + sent[d] : lo[d] + n])

    def _flush_one(self, src: int, dest: int) -> int:
        buf = self._buffers[src].get(dest)
        if not buf:
            return 0
        # Freeze at flush time: both the envelope body and every payload in
        # it become immutable tuples (column batches: read-only arrays).  A
        # chaos-duplicated envelope shares the payload objects between
        # deliveries — if a handler mutated a list-shaped payload in its
        # first delivery, the duplicate would observe the mutation.
        if type(buf) is _ColumnBuffer:
            # Back to a plain row list until the next bulk send (in place:
            # the key keeps its position in the end-of-epoch flush order).
            self._buffers[src][dest] = []
            items = buf.take()
        else:
            items = tuple(p if isinstance(p, tuple) else tuple(p) for p in buf)
            buf.clear()
        self._ship(src, dest, items)
        return len(items)

    def _ship(self, src: int, dest: int, items) -> None:
        self.machine.stats.count_flush(self.mtype.name, len(items))
        # Bypass upper layers: a flush is a physical transfer of already-
        # admitted payloads.  Coalescing is conventionally the innermost
        # layer, so ship directly.
        self.machine.transport.wire_batch(self.mtype, src, dest, items)

    def flush(self, src: int, emit: Emit) -> int:
        flushed = 0
        for dest in list(self._buffers.get(src, ())):
            flushed += self._flush_one(src, dest)
        return flushed

    def pending(self) -> int:
        return sum(
            len(buf) for per_src in self._buffers.values() for buf in per_src.values()
        )

    def reset(self) -> None:
        for per_src in self._buffers.values():
            per_src.clear()
