"""Coalescing, caching, and reduction layers (AM++ Sec. IV features)."""

import numpy as np
import pytest

from repro import Machine
from repro.runtime import (
    CachingLayer,
    ChaosConfig,
    CoalescingLayer,
    ReductionLayer,
    max_payload,
    min_payload,
    sum_payload,
)
from repro.runtime.wire import WireBatch


def make_machine(**layer_kw):
    m = Machine(n_ranks=2)
    got = []
    t = m.register(
        "upd", lambda ctx, p: got.append(p), dest_rank_of=lambda p: p[0] % 2, **layer_kw
    )
    return m, t, got


class TestCoalescing:
    def test_buffer_flushes_when_full(self):
        m, t, got = make_machine(coalescing=CoalescingLayer(3))
        with m.epoch() as ep:
            for i in range(3):
                ep.invoke(t, (0, i))
            # full buffer flushed eagerly; all three delivered on one flush
            ep.flush()
            assert len(got) == 3
        assert m.stats.by_type["upd"].coalesced_flushes == 1
        assert m.stats.by_type["upd"].coalesced_items == 3

    def test_partial_buffer_flushed_at_epoch_end(self):
        m, t, got = make_machine(coalescing=CoalescingLayer(100))
        with m.epoch() as ep:
            for i in range(7):
                ep.invoke(t, (0, i))
        assert len(got) == 7
        assert m.stats.by_type["upd"].coalesced_flushes == 1

    def test_buffers_are_per_destination(self):
        m, t, got = make_machine(coalescing=CoalescingLayer(100))
        with m.epoch() as ep:
            ep.invoke(t, (0, "a"))
            ep.invoke(t, (1, "b"))
        assert m.stats.by_type["upd"].coalesced_flushes == 2
        assert len(got) == 2

    def test_one_flush_counts_one_physical_send(self):
        m, t, got = make_machine(coalescing=CoalescingLayer(10))
        with m.epoch() as ep:
            for i in range(10):
                ep.invoke(t, (0, i))
        ts = m.stats.by_type["upd"]
        assert ts.sent_total == 1  # one physical envelope on the wire
        assert ts.handler_calls == 10  # handler runs once per logical payload

    def test_int_shorthand(self):
        m = Machine(n_ranks=2)
        got = []
        t = m.register(
            "u", lambda ctx, p: got.append(p), dest_rank_of=lambda p: 0, coalescing=5
        )
        assert len(t.layers) == 1
        with m.epoch() as ep:
            for i in range(5):
                ep.invoke(t, (i,))
        assert len(got) == 5

    def test_invalid_buffer_size(self):
        with pytest.raises(ValueError, match="buffer_size"):
            CoalescingLayer(0)

    def test_flush_freezes_payloads_to_tuples(self):
        """A flushed buffer must hold immutable copies of the payloads.

        Before the freeze fix, ``CoalescingLayer`` shipped the caller's
        payload objects by reference.  Any transport that re-delivers a
        physical envelope — chaos duplication, reliable retransmission —
        then exposed *aliased* payloads: a handler mutating a list in
        place corrupted the later re-delivery of the same envelope.  The
        flush now copies every payload to a tuple, so all deliveries see
        the original values and in-place mutation is impossible.
        """
        # duplicate-only chaos is not lossy, so reliable delivery (and its
        # dedup window) can be disabled — duplicates really deliver twice.
        m = Machine(
            n_ranks=2,
            chaos=ChaosConfig(seed=7, duplicate=0.9),
            reliable=False,
        )
        delivered = []
        mutation_blocked = [0]

        def h(ctx, p):
            delivered.append(tuple(p))
            try:
                p[1] += 100  # would corrupt the duplicate's copy if aliased
            except TypeError:
                mutation_blocked[0] += 1

        m.register("f", h, dest_rank_of=lambda p: p[0] % 2, coalescing=4)
        originals = [[i, i * 10] for i in range(16)]
        with m.epoch() as ep:
            for p in originals:
                ep.invoke("f", p)
        assert m.stats.chaos.duplicated > 0, "chaos never duplicated a frame"
        assert len(delivered) > len(originals), "duplicates were not delivered"
        # every delivery — original *and* its chaos duplicate — carries the
        # values the sender passed in, despite the handler's in-place
        # mutation attempt between the two deliveries
        expected = {(i, i * 10) for i in range(16)}
        assert set(delivered) == expected
        # handlers saw immutable tuples every time
        assert mutation_blocked[0] == len(delivered)

    def test_chaos_duplicate_cannot_alias_column_batches(self):
        """The columnar form of the freeze: a flushed column batch is
        read-only, so a chaos-duplicated envelope — which shares its
        columns between both deliveries — cannot be corrupted by the
        handler of the first one."""
        m = Machine(
            n_ranks=2,
            chaos=ChaosConfig(seed=7, duplicate=0.9),
            reliable=False,
        )
        delivered = []
        mutation_blocked = [0]

        def batch_handler(ctx, payloads):
            assert isinstance(payloads, WireBatch)
            delivered.extend(payloads)
            try:
                payloads.column(1)[:] += 100
            except ValueError:
                mutation_blocked[0] += 1

        t = m.register("f", lambda ctx, p: None, dest_rank_of=lambda p: 1, coalescing=4)
        t.batch_handler = batch_handler
        cols = [np.arange(16), np.arange(16) * 10]
        with m.epoch():
            t.layers[0].send_rows(0, 1, WireBatch(cols, 16))
        assert m.stats.chaos.duplicated > 0, "chaos never duplicated a frame"
        assert len(delivered) > 16, "duplicates were not delivered"
        assert set(delivered) == {(i, i * 10) for i in range(16)}
        assert mutation_blocked[0] == len(delivered) // 4
        assert cols[1].flags.writeable, "the sender's own array must stay writable"

    def test_handler_sends_through_coalescing_terminate(self):
        """Buffered sends from handlers must still drain at epoch end."""
        m = Machine(n_ranks=2)
        got = []

        def h(ctx, p):
            got.append(p[0])
            if p[0] < 20:
                ctx.send("c", (p[0] + 1,))

        m.register("c", h, dest_rank_of=lambda p: p[0] % 2, coalescing=8)
        with m.epoch() as ep:
            ep.invoke("c", (0,))
        assert sorted(got) == list(range(21))


class TestSendRows:
    """``send_rows(columns)`` is ``n`` sequential ``send`` calls, column-wise:
    the same envelopes per (src, dest) — boundaries, rows, order — and the
    same counters."""

    N_RANKS = 3

    @staticmethod
    def rows_for(dest, n, base=0):
        return [(dest, 0, 2, 5, float(base + i) / 4) for i in range(n)]

    @staticmethod
    def starts_for(dest, n):
        """Generator starts as ``BoundAction.invoke_many`` sends them."""
        return [(dest, -1, 0) for _ in range(n)]

    @staticmethod
    def as_columns(rows):
        if len(rows[0]) == 3:
            return WireBatch([np.array([r[0] for r in rows]), -1, 0], len(rows))
        return WireBatch(
            [
                np.array([r[0] for r in rows]),
                0,
                2,
                5,
                np.array([r[4] for r in rows]),
            ],
            len(rows),
        )

    @staticmethod
    def envelopes(log):
        """A wire log without the payload container's type."""
        return [(s, d, b, rows) for s, d, b, _kind, rows in log]

    def run(self, size, script, bulk):
        """Play ``script`` — ``(src, dest, rows)`` steps, scalar-only steps
        marked by a 4th element — on a fresh machine; returns the wire log
        and the type's counters."""
        m = Machine(n_ranks=self.N_RANKS)
        t = m.register(
            "upd", lambda ctx, p: None, dest_rank_of=lambda p: p[0], coalescing=size
        )
        layer = t.layers[0]
        log = []
        m.telemetry.add_wire_observer(
            lambda mtype, src, dest, payload, batch: log.append(
                (src, dest, batch, type(payload).__name__, [tuple(p) for p in payload])
            )
        )
        with m.epoch():
            for src, dest, rows, *scalar_only in script:
                if bulk and not scalar_only:
                    layer.send_rows(src, dest, self.as_columns(rows))
                else:
                    for row in rows:
                        m.transport.send(src, t, row)
        ts = m.stats.by_type["upd"]
        counters = (
            ts.sent_local, ts.sent_remote, ts.coalesced_flushes,
            ts.coalesced_items, ts.payload_slots, ts.handler_calls,
        )
        return log, counters

    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize("n", [1, 5, 64, 100, 131])
    def test_same_envelopes_and_counters_as_sequential_sends(self, size, n):
        script = [
            (0, 1, self.rows_for(1, n)),
            (0, 2, self.rows_for(2, 3, base=1000)),
            (0, 1, self.rows_for(1, 9, base=2000)),  # lands on a partial buffer
            (1, 1, self.rows_for(1, n, base=3000)),  # rank-local
            (-1, 2, self.rows_for(2, n, base=4000)),  # driver-injected: keyed at dest
        ]
        scalar_log, scalar_counters = self.run(size, script, bulk=False)
        bulk_log, bulk_counters = self.run(size, script, bulk=True)
        assert self.envelopes(bulk_log) == self.envelopes(scalar_log)
        assert bulk_counters == scalar_counters
        # chunk-only buffers ship as column batches
        assert {kind for *_, kind, _rows in bulk_log} == {"WireBatch"}

    @pytest.mark.parametrize("size", [7, 64])
    def test_buffer_holding_scalar_tuples_materialises_rows_in_order(self, size):
        seeded = self.rows_for(1, 3, base=500)
        script = [
            (0, 1, seeded, "scalar"),  # pre-seed the (0, 1) buffer with tuples
            (0, 1, self.rows_for(1, size + 4)),
            (0, 1, self.rows_for(1, 2, base=700), "scalar"),  # scalar onto chunks
            (0, 1, self.rows_for(1, 2 * size, base=900)),
        ]
        scalar_log, scalar_counters = self.run(size, script, bulk=False)
        bulk_log, bulk_counters = self.run(size, script, bulk=True)
        assert self.envelopes(bulk_log) == self.envelopes(scalar_log)
        assert bulk_counters == scalar_counters
        kinds = [kind for *_, kind, _rows in bulk_log]
        assert kinds[0] == "tuple", "an envelope mixing tuples and chunks ships as rows"
        assert "WireBatch" in kinds, "later chunk-only envelopes are columnar again"

    @pytest.mark.parametrize("size", [7, 64])
    def test_chunks_of_different_widths_ship_as_rows_in_order(self, size):
        """A 3-column chunk of starts and a 5-column fan-out chunk meet in
        the ``(r, r)`` buffer (bulk driver starts keyed at their
        destination, then rank-local fan-out): they cannot be
        concatenated column-wise, so that envelope ships as row tuples in
        arrival order — it used to raise ``ValueError`` from
        ``WireBatch.concat``."""
        script = [
            (-1, 1, self.starts_for(1, 3)),  # driver starts: buffer (1, 1)
            (1, 1, self.rows_for(1, size + 2)),  # local fan-out joins them
            (-1, 1, self.starts_for(1, 2)),  # starts onto wider chunks
            (1, 1, self.rows_for(1, 2 * size, base=900)),
        ]
        scalar_log, scalar_counters = self.run(size, script, bulk=False)
        bulk_log, bulk_counters = self.run(size, script, bulk=True)
        assert self.envelopes(bulk_log) == self.envelopes(scalar_log)
        assert bulk_counters == scalar_counters
        kinds = [kind for *_, kind, _rows in bulk_log]
        assert kinds[0] == "tuple", "a mixed-width envelope ships as rows"
        assert "WireBatch" in kinds, "later single-width envelopes are columnar again"

    def test_scalar_only_buffers_stay_plain_lists(self):
        m = Machine(n_ranks=2)
        t = m.register("upd", lambda ctx, p: None, dest_rank_of=lambda p: p[0], coalescing=8)
        layer = t.layers[0]
        with m.epoch():
            layer.send_rows(0, 1, self.as_columns(self.rows_for(1, 3)))
            assert len(layer._buffers[0][1]) == 3 and layer.pending() == 3
            layer.flush(0, None)
            m.transport.send(0, t, (1, 0, 2, 5, 0.5))
            assert type(layer._buffers[0][1]) is list


class TestCaching:
    def test_exact_duplicates_suppressed(self):
        m, t, got = make_machine(cache=CachingLayer())
        with m.epoch() as ep:
            for _ in range(5):
                ep.invoke(t, (0, "same"))
        assert len(got) == 1
        assert m.stats.by_type["upd"].cache_hits == 4

    def test_custom_key(self):
        m, t, got = make_machine(cache=CachingLayer(key=lambda p: p[0]))
        with m.epoch() as ep:
            ep.invoke(t, (0, "first"))
            ep.invoke(t, (0, "second"))  # same key -> dropped
        assert got == [(0, "first")]

    def test_lru_eviction_allows_resend(self):
        m, t, got = make_machine(cache=CachingLayer(capacity=2))
        with m.epoch() as ep:
            ep.invoke(t, (0, 1))
            ep.invoke(t, (0, 2))
            ep.invoke(t, (0, 3))  # evicts key (0,1)
            ep.invoke(t, (0, 1))  # resent
        assert len(got) == 4

    def test_admit_predicate_drops(self):
        m, t, got = make_machine(cache=CachingLayer(admit=lambda p: p[1] < 10))
        with m.epoch() as ep:
            ep.invoke(t, (0, 5))
            ep.invoke(t, (0, 50))
        assert got == [(0, 5)]
        assert m.stats.by_type["upd"].cache_hits == 1

    def test_invalidate_allows_resend(self):
        m, t, got = make_machine(cache=CachingLayer())
        layer = t.layers[0]
        with m.epoch() as ep:
            ep.invoke(t, (0, "x"))
            ep.flush()
            layer.invalidate()
            ep.invoke(t, (0, "x"))
        assert len(got) == 2

    def test_caches_partitioned_by_src_dest(self):
        """A payload cached for one destination must not mask another's."""
        m, t, got = make_machine(cache=CachingLayer(key=lambda p: p[1]))
        with m.epoch() as ep:
            ep.invoke(t, (0, "k"))
            ep.invoke(t, (1, "k"))  # different dest; same key; must pass
        assert len(got) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            CachingLayer(capacity=0)


class TestReduction:
    def test_min_reduction_collapses_window(self):
        m, t, got = make_machine(
            reduction=ReductionLayer(key=lambda p: p[0], combine=min_payload(1))
        )
        with m.epoch() as ep:
            for d in (9.0, 5.0, 7.0, 3.0, 8.0):
                ep.invoke(t, (0, d))
        assert got == [(0, 3.0)]
        assert m.stats.by_type["upd"].reduction_combines == 4

    def test_max_reduction(self):
        m, t, got = make_machine(
            reduction=ReductionLayer(key=lambda p: p[0], combine=max_payload(1))
        )
        with m.epoch() as ep:
            for d in (1, 4, 2):
                ep.invoke(t, (0, d))
        assert got == [(0, 4)]

    def test_sum_reduction(self):
        m, t, got = make_machine(
            reduction=ReductionLayer(key=lambda p: p[0], combine=sum_payload(1))
        )
        with m.epoch() as ep:
            for d in (1.0, 2.0, 3.5):
                ep.invoke(t, (0, d))
        assert got == [(0, 6.5)]

    def test_distinct_keys_not_combined(self):
        m, t, got = make_machine(
            reduction=ReductionLayer(key=lambda p: p[0], combine=min_payload(1))
        )
        with m.epoch() as ep:
            ep.invoke(t, (0, 9.0))
            ep.invoke(t, (2, 1.0))  # same dest rank (0), different key
        assert sorted(got) == [(0, 9.0), (2, 1.0)]

    def test_window_overflow_flushes(self):
        m, t, got = make_machine(
            reduction=ReductionLayer(key=lambda p: p[0], combine=min_payload(1), window=2)
        )
        with m.epoch() as ep:
            ep.invoke(t, (0, 1.0))
            ep.invoke(t, (2, 2.0))  # hits window=2 -> flush
            ep.flush()
            assert len(got) == 2

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="window"):
            ReductionLayer(key=lambda p: p, combine=min_payload(0), window=0)


class TestStackedLayers:
    def test_cache_then_reduce_then_coalesce(self):
        m = Machine(n_ranks=2)
        got = []
        t = m.register(
            "upd",
            lambda ctx, p: got.append(p),
            dest_rank_of=lambda p: p[0] % 2,
            cache=CachingLayer(),
            reduction=ReductionLayer(key=lambda p: p[0], combine=min_payload(1)),
            coalescing=CoalescingLayer(4),
        )
        with m.epoch() as ep:
            for d in (9.0, 5.0, 5.0, 7.0, 3.0):
                ep.invoke(t, (6, d))
        assert got == [(6, 3.0)]
        ts = m.stats.by_type["upd"]
        assert ts.cache_hits == 1  # duplicate 5.0
        assert ts.reduction_combines == 3  # 9,5,7,3 -> one survivor
        assert ts.sent_total == 1

    def test_layer_order_is_fixed(self):
        m = Machine(n_ranks=2)
        t = m.register(
            "x",
            lambda ctx, p: None,
            dest_rank_of=lambda p: 0,
            coalescing=CoalescingLayer(2),
            cache=CachingLayer(),
        )
        names = [type(l).__name__ for l in t.layers]
        assert names == ["CachingLayer", "CoalescingLayer"]
