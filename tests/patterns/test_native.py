"""Native codegen tier: lowering, kernel cache, degradation, fusion.

The native fast path generates a per-(shape, dtypes, schema) kernel
module, loads it through a two-level (memory + disk) cache, and — when
the planner proves the gather->evaluate pair rank-local — fuses the two
message rounds into one.  Differential correctness against the
interpreted oracle lives in ``test_fastpath_differential.py``; this file
tests the machinery itself.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.algorithms.sssp import bind_sssp
from repro.graph import build_graph, erdos_renyi, path, uniform_weights
from repro.patterns import Pattern, bind, compile_action, trg
from repro.patterns.kernelcache import (
    CODEGEN_VERSION,
    cache_key,
    clear_memory_cache,
    load_kernels,
)
from repro.patterns.locality import fusion_report
from repro.patterns.native import build_native_plan, generate_source
from repro.runtime.machine import (
    FAST_PATHS,
    NATIVE_BACKENDS,
    Machine,
    _numba_available,
    _reset_native_warning,
)
from repro.runtime.wire import WireBatch

from .conftest import make_jump_pattern, make_sssp_pattern

HAVE_NUMBA = _numba_available()


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def small_instance(n=40, m=160, seed=3, n_ranks=2):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1.0, 10.0, seed=seed + 1)
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=n_ranks)


def native_machine(n_ranks=2, **kw):
    kw.setdefault("native_backend", "interp")
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
# code generation and the kernel cache
# ---------------------------------------------------------------------------


def sssp_spec(n_ranks=2):
    g, wbg = small_instance(n_ranks=n_ranks)
    m = native_machine(n_ranks=n_ranks)
    bp = bind_sssp(m, g, wbg)
    np_plan = bp["relax"].native_plan
    assert np_plan is not None
    return np_plan


class TestCodegen:
    def test_generated_source_is_deterministic(self):
        plan = sssp_spec()
        assert generate_source(plan.spec) == generate_source(plan.spec)

    def test_generated_module_shape(self):
        plan = sssp_spec()
        src = generate_source(plan.spec)
        ns: dict = {}
        exec(compile(src, "<kernel>", "exec"), ns)
        kernels = ns["make"](None)
        assert set(kernels) == {"fanout", "scatter", "collect"}

    def test_scatter_kernel_is_extremum_update(self):
        plan = sssp_spec()
        arr = np.array([5.0, 2.0, 9.0])
        idx = np.array([0, 0, 2])
        vals = np.array([3.0, 4.0, 11.0])
        changed = plan.kernels["scatter"](arr, idx, vals)
        assert arr.tolist() == [3.0, 2.0, 9.0]  # min kept, 11 rejected
        # mask: target ended below this row's pre-round read (rows 0 and 1
        # both observe vertex 0 improve; the dependent set is their union)
        assert changed.tolist() == [True, True, False]

    def test_payload_columns_match_scalar_payload_layout(self):
        plan = sssp_spec()
        dests = np.array([7, 9])
        cols = [np.array([1.5, 2.5])]
        rows = list(WireBatch(plan.vector.payload_columns(dests, cols), 2))
        esi = plan.spec["esi"]
        slot = plan.spec["slots"][0]
        assert rows == [(7, 0, esi, slot, 1.5), (9, 0, esi, slot, 2.5)]

    def test_collect_is_unique_changed_dests(self):
        plan = sssp_spec()
        dv = np.array([4, 4, 2, 9])
        changed = np.array([True, True, True, False])
        assert plan.kernels["collect"](dv, changed).tolist() == [2, 4]


class TestKernelCache:
    def test_cache_key_versioned_and_shape_sensitive(self):
        a = {"kind": "extremum_fanout", "cols": ["x"]}
        b = {"kind": "extremum_fanout", "cols": ["y"]}
        assert cache_key(a) == cache_key(a)
        assert cache_key(a) != cache_key(b)
        assert CODEGEN_VERSION >= 1

    def test_memory_cache_hit_on_second_bind(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "off")
        clear_memory_cache()
        g, wbg = small_instance()
        m1 = native_machine()
        bind_sssp(m1, g, wbg)
        assert m1.stats.native.kernel_compiles == 1
        m2 = native_machine()
        bind_sssp(m2, g, wbg)
        assert m2.stats.native.kernel_compiles == 0
        assert m2.stats.native.kernel_cache_hits == 1

    def test_disk_cache_survives_memory_clear(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        clear_memory_cache()
        g, wbg = small_instance()
        m1 = native_machine()
        _, d1 = run_sssp(m1, g, wbg)
        assert m1.stats.native.kernel_compiles == 1
        files = list(tmp_path.glob("rk_*.py"))
        assert len(files) == 1  # one generated module persisted
        clear_memory_cache()  # simulate a fresh process
        m2 = native_machine()
        _, d2 = run_sssp(m2, g, wbg)
        assert m2.stats.native.kernel_compiles == 0
        assert m2.stats.native.disk_cache_hits == 1
        assert np.array_equal(d1, d2)

    def test_cache_off_disables_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "off")
        clear_memory_cache()
        g, wbg = small_instance()
        bind_sssp(native_machine(), g, wbg)
        assert not list(tmp_path.glob("rk_*.py"))


# ---------------------------------------------------------------------------
# backend resolution and graceful degradation
# ---------------------------------------------------------------------------


class TestBackendResolution:
    def test_interp_backend_runs_without_numba(self):
        m = native_machine()
        assert m.fast_path == "native"
        assert m.native_backend == "interp"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_BACKEND", "interp")
        m = Machine(2, fast_path="native")
        assert m.fast_path == "native"
        assert m.native_backend == "interp"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="native_backend"):
            Machine(2, fast_path="native", native_backend="fortran")

    def test_native_in_fast_paths(self):
        assert "native" in FAST_PATHS
        assert NATIVE_BACKENDS == ("auto", "jit", "interp")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed")
    def test_auto_without_numba_degrades_to_vector(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_BACKEND", raising=False)
        _reset_native_warning()
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            m = Machine(2, fast_path="native")
        assert m.fast_path == "vector"
        assert m.requested_fast_path == "native"
        assert m.stats.native.fallbacks == 1

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed")
    def test_degradation_warns_once(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_BACKEND", raising=False)
        _reset_native_warning()
        with pytest.warns(RuntimeWarning):
            Machine(2, fast_path="native")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            m = Machine(2, fast_path="native")
        assert m.fast_path == "vector"

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed")
    def test_jit_without_numba_raises(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_BACKEND", raising=False)
        with pytest.raises(RuntimeError, match="native"):
            Machine(2, fast_path="native", native_backend="jit")

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_jit_backend_with_numba(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        clear_memory_cache()
        g, wbg = small_instance()
        m = Machine(2, fast_path="native", native_backend="jit")
        assert m.fast_path == "native" and m.native_backend == "jit"
        _, d = run_sssp(m, g, wbg)
        m_off = Machine(2, fast_path="off")
        _, d0 = run_sssp(m_off, g, wbg)
        assert np.array_equal(d, d0)


# ---------------------------------------------------------------------------
# executor integration: fusion fires, fallback stays correct
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_fused_rounds_and_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "off")
        clear_memory_cache()
        g, wbg = small_instance()
        m = native_machine()
        bp, dist = run_sssp(m, g, wbg)
        assert bp["relax"].native_plan is not None
        assert bp["relax"].native_plan.fused
        st = m.stats.native
        assert st.fused_rounds > 0
        assert st.fused_edges > 0  # rank-local edges applied with 0 messages
        assert st.remote_rows > 0  # cross-rank rows still travel the wire
        assert st.fallbacks == 0
        assert st.jit_seconds > 0.0
        m_off = Machine(2, fast_path="off")
        _, d0 = run_sssp(m_off, g, wbg)
        assert np.array_equal(dist, d0)

    def test_single_rank_fused_sends_nothing_remote(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "off")
        clear_memory_cache()
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
        assert bp["jump"].native_plan is None
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

    def test_native_report_section(self):
        m = native_machine()
        g, wbg = small_instance()
        run_sssp(m, g, wbg)
        assert "native kernels" in m.stats.report()
