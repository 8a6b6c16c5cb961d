"""Fusion: the vector tier collapses a message round wherever it is proven.

Fusion was once the opt-in ``native`` tier; it is now part of ``vector``,
the default.  When the planner proves the gather->evaluate pair fusable
(:func:`~repro.patterns.locality.fusion_report`), ``fast_path="vector"``
applies rank-local edges inline and dedupes remote rows before the wire,
running on the vector tier's own ``VectorPlan`` closures.  Differential
correctness against the interpreted oracle lives in
``test_fastpath_differential.py``; this file tests the legality analysis,
the retired tier name and ``native_backend`` keyword, and the executor
integration.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.sssp import bind_sssp
from repro.graph import build_graph, erdos_renyi, path, uniform_weights
from repro.patterns import Pattern, bind, compile_action, src, trg
from repro.patterns.locality import fusion_report
from repro.runtime.machine import FAST_PATHS, Machine
from repro.runtime.wire import WireBatch

from .conftest import make_jump_pattern, make_sssp_pattern


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def small_instance(n=40, m=160, seed=3, n_ranks=2):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1.0, 10.0, seed=seed + 1)
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=n_ranks)


def vector_machine(n_ranks=2, **kw):
    return Machine(n_ranks, fast_path="vector", **kw)


def run_sssp(machine, g, wbg, source=0):
    bp = bind_sssp(machine, g, wbg)
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[source] = 0.0
    relax = bp["relax"]
    relax.work = lambda ctx, w: relax.invoke_from(ctx, w)
    with machine.epoch() as ep:
        relax.invoke(ep, source)
    return bp, dist.to_array()


def src_label_pattern():
    """Min-label over out-arcs whose candidate is the arc's source id."""
    p = Pattern("SRCLBL")
    lbl = p.vertex_prop("lbl", "vertex", default=1 << 30)
    spread = p.action("spread")
    e = spread.out_edges()
    with spread.when(src(e) < lbl[trg(e)]):
        spread.set(lbl[trg(e)], src(e))
    return p


# ---------------------------------------------------------------------------
# fusion legality (locality.py) and the planner's fused message count
# ---------------------------------------------------------------------------


class TestFusionReport:
    def test_sssp_relax_is_fusable(self):
        plan = compile_action(make_sssp_pattern().actions["relax"])
        rep = fusion_report(plan)
        assert rep.fusable and bool(rep)
        assert "source-local" in rep.reason

    def test_jump_is_not_fusable(self):
        plan = compile_action(make_jump_pattern().actions["jump"])
        rep = fusion_report(plan)
        assert not rep.fusable and not bool(rep)

    def test_target_dependent_candidate_blocks_fusion(self):
        """A candidate that reads the *target* vertex is not computable
        at the source, so the round cannot fuse."""
        p = Pattern("NF")
        dist = p.vertex_prop("dist", float, default=math.inf)
        pen = p.vertex_prop("pen", float, default=0.0)
        weight = p.edge_prop("weight", float)
        relax = p.action("relax")
        v = relax.input
        e = relax.out_edges()
        cand = relax.let("cand", dist[v] + weight[e] + pen[trg(e)])
        with relax.when(cand < dist[trg(e)]):
            relax.set(dist[trg(e)], cand)
        rep = fusion_report(compile_action(p.actions["relax"]))
        assert not rep.fusable

    def test_planner_fused_message_count(self):
        relax = compile_action(make_sssp_pattern().actions["relax"])
        assert relax.static_message_count() == 1
        assert relax.static_message_count(fused=True) == 0
        jump = compile_action(make_jump_pattern().actions["jump"])
        # not fusable: the fused count equals the unfused count
        assert jump.static_message_count(fused=True) == jump.static_message_count()


# ---------------------------------------------------------------------------
# the retired native tier name and native_backend keyword
# ---------------------------------------------------------------------------


class TestBackendResolution:
    @pytest.mark.parametrize("backend", ["jit", "auto"])
    def test_removed_backends_rejected(self, backend):
        with pytest.raises(TypeError):
            Machine(2, native_backend=backend)

    def test_unknown_backend_rejected(self):
        """``native`` is no longer a tier: fusion is part of ``vector``."""
        assert FAST_PATHS == ("off", "compiled", "vector")
        with pytest.raises(ValueError, match="fast_path"):
            Machine(2, fast_path="native")

    def test_plain_native_machine_fuses(self):
        """No keyword, no environment: a plain ``Machine`` runs the fused
        tier that ``native`` used to opt into."""
        g, wbg = small_instance()
        m = Machine(2)
        _, dist = run_sssp(m, g, wbg)
        assert m.fast_path == "vector"
        assert m.stats.fusion.fused_rounds > 0
        _, d0 = run_sssp(Machine(2, fast_path="off"), g, wbg)
        assert np.array_equal(dist, d0)


# ---------------------------------------------------------------------------
# executor integration: fusion fires, fallback stays correct
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_fused_rounds_and_counters(self):
        g, wbg = small_instance()
        m = vector_machine()
        bp, dist = run_sssp(m, g, wbg)
        assert bp["relax"]._fused
        st = m.stats.fusion
        assert st.fused_rounds > 0
        assert st.fused_edges > 0  # rank-local edges applied with 0 messages
        assert st.remote_rows > 0  # cross-rank rows still travel the wire
        assert st.fallbacks == 0
        m_off = Machine(2, fast_path="off")
        _, d0 = run_sssp(m_off, g, wbg)
        assert np.array_equal(dist, d0)

    def test_single_rank_fused_sends_nothing_remote(self):
        n = 30
        s, t = path(n)
        g, wbg = build_graph(
            n, list(zip(s.tolist(), t.tolist())),
            weights=uniform_weights(n - 1, 1, 5, seed=3), n_ranks=1,
        )
        m = vector_machine(n_ranks=1)
        _, dist = run_sssp(m, g, wbg)
        assert m.stats.fusion.remote_rows == 0
        assert np.isfinite(dist).all()

    def test_recognized_is_not_fusable_for_a_source_id_candidate(self):
        """``src(e)`` is a vector-kernel column but not a source-local
        value to the legality analysis: the action gets the batch kernel
        and keeps its message round."""
        s, t = erdos_renyi(30, 90, seed=7)
        g, _ = build_graph(30, list(zip(s, t)), n_ranks=2)
        results = {}
        for fp in ("off", "vector"):
            m = Machine(2, fast_path=fp)
            bp = bind(src_label_pattern(), m, g, layers={"spread": {"coalescing": 8}})
            spread = bp["spread"]
            with m.epoch() as ep:
                spread.invoke_many(ep, range(30))
            results[fp] = (bp.map("lbl").to_array(), m.stats.summary()["sent_total"])
            if fp == "vector":
                assert spread.vector_plan is not None and not spread._fused
                assert m.stats.fusion.fused_rounds == 0
        assert np.array_equal(results["off"][0], results["vector"][0])
        assert results["off"][1] == results["vector"][1]

    def test_unrecognized_shape_counts_fallback(self):
        m = vector_machine()
        g, _ = build_graph(12, [(0, 1)], n_ranks=2)
        bp = bind(make_jump_pattern(), m, g)
        assert bp["jump"].vector_plan is None and not bp["jump"]._fused
        assert m.stats.fusion.fallbacks == 1
        # still runs correctly on the compiled walk
        pm = bp.map("prnt")
        for v in range(12):
            pm[v] = max(v - 1, 0)
        jump = bp["jump"]
        for _ in range(6):
            with m.epoch() as ep:
                for v in range(12):
                    jump.invoke(ep, v)
        assert pm.to_array().tolist() == [0] * 12

    def test_scatter_kernel_is_extremum_update(self):
        g, wbg = small_instance()
        dist = bind_sssp(vector_machine(), g, wbg).map("dist")
        arr = dist.local_slice(0)
        arr[:3] = [5.0, 2.0, 9.0]
        changed = dist.scatter_extremum(
            0, np.array([0, 0, 2]), np.array([3.0, 4.0, 11.0]), minimize=True
        )
        assert arr[:3].tolist() == [3.0, 2.0, 9.0]  # min kept, 11 rejected
        # mask: target ended below this row's pre-round read (rows 0 and 1
        # both observe vertex 0 improve; the dependent set is their union)
        assert changed.tolist() == [True, True, False]

    def test_payload_columns_match_scalar_payload_layout(self):
        g, wbg = small_instance()
        vp = bind_sssp(vector_machine(), g, wbg)["relax"].vector_plan
        dests = np.array([7, 9])
        cols = [np.array([1.5, 2.5])]
        rows = list(WireBatch(vp.payload_columns(dests, cols), 2))
        (slot,) = vp.slot_sig
        assert rows == [
            (7, 0, vp.eval_si, slot, 1.5),
            (9, 0, vp.eval_si, slot, 2.5),
        ]

    def test_native_report_section(self):
        """The report's fusion section, formerly headed "native fusion"."""
        m = vector_machine()
        g, wbg = small_instance()
        run_sssp(m, g, wbg)
        assert "fused rounds" in m.stats.fusion_summary()
        assert "\nfusion\n" in m.stats.report()
