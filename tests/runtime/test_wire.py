"""Binary wire codec: frame round-trips, schema inference, accounting.

The codec is the process transport's serialization layer; everything here
is pure (no forked processes) so encode/decode invariants can be checked
frame by frame.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.runtime.message import Envelope
from repro.runtime.reliable import AckEnvelope, ReliableEnvelope
from repro.runtime.wire import (
    COL_CONST_F,
    COL_CONST_I,
    COL_F64,
    COL_I32,
    COL_I64,
    WireBatch,
    WireCodec,
    WireStats,
    naive_wire_bytes,
    pickled_envelope_bytes,
)


def roundtrip(codec, env, batch):
    frame = codec.encode(env, batch)
    assert isinstance(frame, bytes)
    return codec.decode(frame), frame


class TestScalarFrames:
    def test_numeric_scalar_roundtrip(self):
        c = WireCodec()
        env = Envelope(dest=2, type_id=7, payload=(5, 3.25), src=1)
        (kind, out, batch), frame = roundtrip(c, env, False)
        assert kind == "msg" and batch is False
        assert out.dest == 2 and out.src == 1 and out.type_id == 7
        assert out.payload == (5, 3.25)
        assert c.stats.binary_frames == 1 and c.stats.pickle_frames == 0

    def test_scalar_is_compact(self):
        c = WireCodec()
        env = Envelope(dest=0, type_id=1, payload=(42, 1.5), src=3)
        frame = c.encode(env, False)
        # header 16B + 2 slots x (1 tag + 8 value) = 34B, far below pickle
        assert len(frame) == 34
        assert len(frame) < pickled_envelope_bytes(env, False)

    def test_non_numeric_scalar_falls_back_to_pickle(self):
        c = WireCodec()
        env = Envelope(dest=1, type_id=3, payload=(1, "label"), src=0)
        (kind, out, batch), _ = roundtrip(c, env, False)
        assert kind == "msg" and batch is False
        assert out == env
        assert c.stats.pickle_frames == 1

    def test_huge_int_falls_back_to_pickle(self):
        c = WireCodec()
        env = Envelope(dest=1, type_id=3, payload=(1 << 80,), src=0)
        (kind, out, _), _ = roundtrip(c, env, False)
        assert out.payload == (1 << 80,)
        assert c.stats.pickle_frames == 1


class TestBatchFrames:
    def test_batch_roundtrip_materializes_identically(self):
        c = WireCodec()
        rows = tuple((i, float(i) * 0.5, 7) for i in range(20))
        env = Envelope(dest=1, type_id=4, payload=rows, src=0)
        (kind, out, batch), _ = roundtrip(c, env, True)
        assert kind == "msg" and batch is True
        wb = out.payload
        assert isinstance(wb, WireBatch)
        assert len(wb) == 20 and wb.ncols == 3
        assert tuple(wb) == rows          # row materialization
        assert wb[3] == rows[3]           # indexing
        assert wb == rows                 # __eq__ convenience

    def test_const_elision(self):
        """A column identical in every row costs 9 bytes regardless of
        row count, and decodes as a broadcastable constant."""
        c = WireCodec()
        rows = tuple((i, 2.5) for i in range(1000))
        env = Envelope(dest=0, type_id=2, payload=rows, src=1)
        frame = c.encode(env, True)
        (kind, out, _) = c.decode(frame)
        wb = out.payload
        assert wb.col_const(0) is None           # varying column
        assert wb.col_const(1) == 2.5            # elided constant
        assert np.array_equal(wb.column(1), np.full(1000, 2.5))
        # i32 narrowing on col 0 -> ~4B/row; col 1 contributes O(1)
        assert len(frame) < 1000 * 4 + 64

    def test_nan_column_is_never_const_elided(self):
        """NaN != NaN, so an all-NaN column must ship as a vector —
        const-elision would silently compare unequal on decode checks."""
        c = WireCodec()
        rows = tuple((i, math.nan) for i in range(4))
        env = Envelope(dest=0, type_id=2, payload=rows, src=1)
        (_, out, _), _ = roundtrip(c, env, True)
        wb = out.payload
        assert wb.col_const(1) is None
        assert np.isnan(wb.column(1)).all()

    def test_i32_narrowing_and_i64_wide(self):
        c = WireCodec()
        small = tuple((i, 1) for i in range(3))
        wide = tuple((i + (1 << 40), 1) for i in range(3))
        f_small = c.encode(Envelope(dest=0, type_id=2, payload=small, src=1), True)
        f_wide = c.encode(Envelope(dest=0, type_id=2, payload=wide, src=1), True)
        assert len(f_wide) > len(f_small)
        (_, out_s, _) = c.decode(f_small)
        (_, out_w, _) = c.decode(f_wide)
        assert tuple(out_s.payload) == small
        assert tuple(out_w.payload) == wide
        assert out_w.payload.column(0).dtype == np.int64

    def test_columns_are_zero_copy_views(self):
        c = WireCodec()
        rows = tuple((i, float(i)) for i in range(8))
        frame = c.encode(Envelope(dest=0, type_id=2, payload=rows, src=1), True)
        (_, out, _) = c.decode(frame)
        col = out.payload.column(1)
        assert col.dtype == np.float64
        assert col.base is not None  # a view over the frame, not a copy
        assert not col.flags.writeable

    def test_ragged_batch_falls_back_to_pickle(self):
        c = WireCodec()
        rows = ((1, 2.0), (3,))  # ragged
        env = Envelope(dest=0, type_id=2, payload=rows, src=1)
        (kind, out, batch), _ = roundtrip(c, env, True)
        assert batch is True and out == env
        assert c.stats.pickle_frames == 1

    def test_mixed_type_column_falls_back_to_pickle(self):
        c = WireCodec()
        rows = ((1, 2.0), (1, "x"))
        (_, out, _), _ = roundtrip(
            c, Envelope(dest=0, type_id=2, payload=rows, src=1), True
        )
        assert tuple(out.payload) == rows
        assert c.stats.pickle_frames == 1

    def test_trace_carrying_envelope_falls_back_to_pickle(self):
        c = WireCodec()
        env = Envelope(dest=0, type_id=2, payload=((1, 2.0),), src=1, trace=("t",))
        (_, out, _), _ = roundtrip(c, env, True)
        assert out.trace == ("t",)
        assert c.stats.pickle_frames == 1


class TestColumnBatches:
    """A column batch (what the coalescing layer flushes for bulk sends)
    encodes straight from its columns into the bytes the same rows, as
    tuples, would produce."""

    CASES = {
        "const_int": ([np.arange(5), 0, 3], 5),
        "const_float": ([np.arange(5), 2.5], 5),
        "i32": ([np.array([7, -3, 1 << 20])], 3),
        "i64": ([np.array([7, 1 << 40, -(1 << 35)])], 3),
        "f64": ([np.array([0.5, -1.25, math.inf]), np.arange(3)], 3),
        "nan_const": ([np.arange(4), math.nan], 4),
        "nan_vector": ([np.arange(4), np.full(4, math.nan)], 4),
        "all_equal_array": ([np.full(6, 9), np.full(6, 1.5)], 6),
        "narrow_dtypes": ([np.arange(4, dtype=np.int32), np.arange(4, dtype=np.float32)], 4),
        "one_row": ([np.array([11]), 0, 4, np.array([2.5]), 1.0], 1),
        "sssp_shape": ([np.arange(64) * 3, 0, 2, 5, np.linspace(0.0, 9.0, 64)], 64),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_encode_batch_is_byte_equal_to_tuple_rows(self, case):
        cols, n = self.CASES[case]
        wb = WireBatch(cols, n)
        rows = tuple(wb)
        assert len(rows) == n
        assert WireCodec._encode_batch(wb) == WireCodec._encode_batch(rows)
        env_cols = Envelope(dest=1, type_id=4, payload=wb, src=0)
        env_rows = Envelope(dest=1, type_id=4, payload=rows, src=0)
        a, b = WireCodec(), WireCodec()
        assert a.encode(env_cols, True) == b.encode(env_rows, True)
        assert a.stats.snapshot() == b.stats.snapshot()

    def test_column_batch_roundtrip(self):
        c = WireCodec()
        wb = WireBatch([np.array([4, 8, 12]), 0, np.array([1.5, 2.5, 3.5])], 3)
        (_, out, batch), _ = roundtrip(c, Envelope(dest=1, type_id=4, payload=wb, src=0), True)
        assert batch is True and c.stats.binary_frames == 1
        assert tuple(out.payload) == tuple(wb)
        assert out.payload.col_const(1) == 0

    def test_non_numeric_column_falls_back_to_pickle(self):
        c = WireCodec()
        wb = WireBatch([np.arange(3), np.array([True, False, True])], 3)
        assert WireCodec._encode_batch(wb) is None
        (_, out, _), _ = roundtrip(c, Envelope(dest=1, type_id=4, payload=wb, src=0), True)
        assert c.stats.pickle_frames == 1
        assert tuple(out.payload) == tuple(wb)

    def test_slice_keeps_columns_and_int_index_yields_a_row(self):
        wb = WireBatch([np.arange(6), 7, np.arange(6) * 0.5], 6)
        lo, hi = wb[:2], wb[2:]
        assert isinstance(lo, WireBatch) and isinstance(hi, WireBatch)
        assert (len(lo), len(hi)) == (2, 4)
        assert tuple(lo) + tuple(hi) == tuple(wb)
        assert hi.col_const(1) == 7 and hi.column(0).base is not None  # a view
        assert wb[4] == (4, 7, 2.0)

    def test_concat_keeps_shared_constants_and_order(self):
        a = WireBatch([np.array([1, 2]), 0, 2.5], 2)
        b = WireBatch([np.array([3]), 0, 3.5], 1)
        both = WireBatch.concat([a, b])
        assert tuple(both) == ((1, 0, 2.5), (2, 0, 2.5), (3, 0, 3.5))
        assert both.col_const(1) == 0 and both.col_const(2) is None
        with pytest.raises(ValueError, match="widths"):
            WireBatch.concat([a, WireBatch([np.array([1])], 1)])

    def test_freeze_marks_columns_read_only(self):
        wb = WireBatch([np.arange(3), 1], 3).freeze()
        with pytest.raises(ValueError):
            wb.column(0)[0] = 9

    def test_slots_counted_as_rows_times_columns(self):
        from repro import Machine

        m = Machine(n_ranks=2)
        t = m.register("t", lambda ctx, p: None, dest_rank_of=lambda p: 1, coalescing=8)
        with m.epoch():
            t.layers[0].send_rows(0, 1, WireBatch([np.arange(8), 0, np.arange(8.0)], 8))
        assert m.stats.by_type["t"].payload_slots == 24


class TestReliableAndAckFrames:
    def test_reliable_wrapper_roundtrip(self):
        c = WireCodec()
        inner = Envelope(dest=3, type_id=9, payload=tuple((i, 0.5) for i in range(5)), src=0)
        renv = ReliableEnvelope(inner, channel=(0, 3), seq=17)
        (kind, out, batch), _ = roundtrip(c, renv, True)
        assert kind == "msg" and batch is True
        assert isinstance(out, ReliableEnvelope)
        assert out.channel == (0, 3) and out.seq == 17
        assert tuple(out.payload) == tuple(inner.payload)

    def test_driver_channel_reliable_roundtrip(self):
        """Driver sends use src == -1; the channel must survive intact."""
        c = WireCodec()
        inner = Envelope(dest=2, type_id=1, payload=(4, 2.0), src=-1)
        renv = ReliableEnvelope(inner, channel=(-1, 2), seq=0)
        (_, out, batch), _ = roundtrip(c, renv, False)
        assert batch is False
        assert out.channel == (-1, 2) and out.seq == 0
        assert out.src == -1 and out.payload == (4, 2.0)

    def test_ack_roundtrip(self):
        c = WireCodec()
        ack = AckEnvelope(dest=1, src=2, channel=(2, 1), seq=99)
        (kind, out, batch), frame = roundtrip(c, ack, False)
        assert kind == "msg" and batch is False
        assert isinstance(out, AckEnvelope)
        assert (out.dest, out.src, out.channel, out.seq) == (1, 2, (2, 1), 99)
        # 16B header + 16B rel tail
        assert len(frame) == 32


class TestCtrlFrames:
    def test_ctrl_roundtrip_and_accounting(self):
        c = WireCodec()
        obj = ("sync", {"rank": 2, "stats": [1, 2, 3]})
        frame = c.encode_ctrl(obj)
        kind, out = c.decode(frame)
        assert kind == "ctrl" and out == obj
        assert c.stats.ctrl_frames == 1
        assert c.stats.ctrl_bytes == len(frame)
        # ctrl traffic never counts as logical data
        assert c.stats.rows_out == 0
        assert c.stats.data_bytes_out == 0


class TestAccounting:
    def test_rows_out_counts_logical_messages_not_acks(self):
        c = WireCodec()
        c.encode(Envelope(dest=0, type_id=1, payload=(1, 2.0), src=1), False)
        c.encode(
            Envelope(dest=0, type_id=1, payload=tuple((i, 0.0) for i in range(10)), src=1),
            True,
        )
        c.encode(AckEnvelope(dest=1, src=0, channel=(0, 1), seq=3), False)
        assert c.stats.rows_out == 11  # 1 scalar + 10 batch rows, acks excluded
        assert c.stats.frames_out == 3

    def test_bytes_per_logical_beats_pickle_baseline(self):
        """Acceptance invariant: >= 5x fewer bytes per logical message
        than a wire shipping one pickled tuple envelope per message, on
        the SSSP-shaped hot path (coalesced (vertex, dist) batches)."""
        c = WireCodec()
        c.measure_baseline = True
        for b in range(50):
            rows = tuple((b * 64 + i, 1.0 + i * 0.25) for i in range(64))
            c.encode(Envelope(dest=1, type_id=2, payload=rows, src=0), True)
        bpl = c.stats.bytes_per_logical()
        base = c.stats.baseline_bytes_per_logical()
        assert bpl > 0 and base > 0
        assert base / bpl >= 5.0, f"only {base / bpl:.1f}x vs pickle baseline"

    def test_naive_wire_bytes_prices_rows_individually(self):
        rows = tuple((i, 0.5) for i in range(10))
        env = Envelope(dest=1, type_id=2, payload=rows, src=0)
        scalar = Envelope(dest=1, type_id=2, payload=rows[0], src=0)
        assert naive_wire_bytes(env, True) == 10 * pickled_envelope_bytes(scalar, False)
        # scalar envelopes are priced as shipped
        assert naive_wire_bytes(scalar, False) == pickled_envelope_bytes(scalar, False)

    def test_stats_merge_and_snapshot(self):
        a, b = WireStats(), WireStats()
        a.frames_out, a.bytes_out, a.rows_out = 2, 100, 8
        b.frames_out, b.bytes_out, b.ctrl_bytes, b.ctrl_frames = 1, 60, 60, 1
        a.merge(b)
        assert a.frames_out == 3 and a.bytes_out == 160
        snap = a.snapshot()
        assert snap["data_bytes_out"] == 100
        assert snap["bytes_per_logical"] == pytest.approx(100 / 8)
        c = WireStats()
        c.merge_dict(snap)
        assert c.frames_out == 3 and c.rows_out == 8

    def test_schema_inference_recorded(self):
        class FakeType:
            type_id = 5
            name = "relax"

        c = WireCodec()
        sch = c.register(FakeType())
        assert c.register(FakeType()) is sch  # idempotent
        rows = tuple((i, 0.5 * i, 7) for i in range(6))
        c.encode(Envelope(dest=0, type_id=5, payload=rows, src=1), True)
        assert sch.n_binary == 1 and sch.n_pickle == 0
        assert sch.col_codes == (COL_I32, COL_F64, COL_CONST_I)
        c.encode(Envelope(dest=0, type_id=5, payload=((1, "x", 2),), src=1), True)
        assert sch.n_pickle == 1


class TestFrameValidation:
    def test_bad_magic_rejected(self):
        c = WireCodec()
        frame = c.encode(Envelope(dest=0, type_id=1, payload=(1,), src=0), False)
        bad = bytes([frame[0] ^ 0xFF]) + frame[1:]
        with pytest.raises(ValueError, match="magic"):
            c.decode(bad)

    def test_pickle_frame_matches_baseline_helper(self):
        env = Envelope(dest=0, type_id=1, payload=(1, object),)
        n = pickled_envelope_bytes(env, False)
        assert n == len(pickle.dumps((env, False), protocol=pickle.HIGHEST_PROTOCOL))
