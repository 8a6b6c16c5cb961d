"""Native tier: the vector tier plus proven gather->evaluate fusion.

When the planner proves the gather->evaluate pair fusable
(:func:`~repro.patterns.locality.fusion_report`), ``fast_path="native"``
applies rank-local edges inline and dedupes remote rows before the wire,
running on the vector tier's own ``VectorPlan`` closures.  Differential
correctness against the interpreted oracle lives in
``test_fastpath_differential.py``; this file tests the legality analysis,
the retired ``native_backend`` keyword and the executor integration.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.sssp import bind_sssp
from repro.graph import build_graph, erdos_renyi, path, uniform_weights
from repro.patterns import Pattern, bind, compile_action, trg
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


def native_machine(n_ranks=2, **kw):
    return Machine(n_ranks, fast_path="native", **kw)


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
# the retired native_backend keyword
# ---------------------------------------------------------------------------


class TestBackendResolution:
    @pytest.mark.parametrize("backend", [None, "interp"])
    def test_accepted_backends_bind_fused(self, backend):
        g, wbg = small_instance()
        m = Machine(2, fast_path="native", native_backend=backend)
        assert m.fast_path == "native"
        assert not hasattr(m, "native_backend")
        assert bind_sssp(m, g, wbg)["relax"]._fused

    @pytest.mark.parametrize("backend", ["jit", "auto"])
    def test_removed_backends_rejected(self, backend):
        with pytest.raises(ValueError, match="was removed"):
            Machine(2, fast_path="native", native_backend=backend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="native_backend"):
            Machine(2, fast_path="native", native_backend="fortran")

    def test_native_in_fast_paths(self):
        assert "native" in FAST_PATHS

    def test_plain_native_machine_fuses(self):
        """No keyword, no environment: "native" fuses on every host."""
        g, wbg = small_instance()
        m = Machine(2, fast_path="native")
        _, dist = run_sssp(m, g, wbg)
        assert m.fast_path == "native"
        assert m.stats.native.fused_rounds > 0
        _, d0 = run_sssp(Machine(2, fast_path="off"), g, wbg)
        assert np.array_equal(dist, d0)


# ---------------------------------------------------------------------------
# executor integration: fusion fires, fallback stays correct
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_fused_rounds_and_counters(self):
        g, wbg = small_instance()
        m = native_machine()
        bp, dist = run_sssp(m, g, wbg)
        assert bp["relax"]._fused
        st = m.stats.native
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
        m = native_machine(n_ranks=1)
        _, dist = run_sssp(m, g, wbg)
        assert m.stats.native.remote_rows == 0
        assert np.isfinite(dist).all()

    def test_unrecognized_shape_counts_fallback(self):
        m = native_machine()
        g, _ = build_graph(12, [(0, 1)], n_ranks=2)
        bp = bind(make_jump_pattern(), m, g)
        assert bp["jump"].vector_plan is None and not bp["jump"]._fused
        assert m.stats.native.fallbacks == 1
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
        dist = bind_sssp(native_machine(), g, wbg).map("dist")
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
        vp = bind_sssp(native_machine(), g, wbg)["relax"].vector_plan
        dests = np.array([7, 9])
        cols = [np.array([1.5, 2.5])]
        rows = list(WireBatch(vp.payload_columns(dests, cols), 2))
        (slot,) = vp.slot_sig
        assert rows == [
            (7, 0, vp.eval_si, slot, 1.5),
            (9, 0, vp.eval_si, slot, 2.5),
        ]

    def test_native_report_section(self):
        m = native_machine()
        g, wbg = small_instance()
        run_sssp(m, g, wbg)
        assert "native fusion" in m.stats.report()
