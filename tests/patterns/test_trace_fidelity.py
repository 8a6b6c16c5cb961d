"""Trace fidelity: recorded span trees match the planner's dependency graph.

The paper's Fig. 5-6 message diagrams are derived *statically* from an
action's dependency graph; telemetry reconstructs the same chains from a
*live* run.  These tests close the loop: for the 2-hop-locality JUMP
pattern (``prnt[prnt[v]]``, plan: gather @ v -> gather @ prnt[v] ->
evaluate @ v) every recorded trace must be a msg/handle alternation whose
message count equals the plan's ``static_message_count()`` — across both
transports, all three fast paths, and a chaotic lossy wire with reliable
delivery (duplicates must collapse to one logical evaluate)."""

import pytest

from repro import Machine
from repro.analysis import chain_of, critical_paths
from repro.graph import build_graph, path, uniform_weights
from repro.patterns import bind, compile_action
from repro.runtime import ChaosConfig
from repro.runtime.machine import FAST_PATHS

from .conftest import make_jump_pattern


N = 12


def jump_machine(**mkw):
    g, _ = build_graph(N, [(0, 1)], n_ranks=4)
    m = Machine(n_ranks=4, telemetry="spans", **mkw)
    bp = bind(make_jump_pattern(), m, g)
    pm = bp.map("prnt")
    for v in range(N):
        pm[v] = max(v - 1, 0)
    return m, bp


def run_one_round(m, bp):
    jump = bp["jump"]
    with m.epoch() as ep:
        for v in range(1, N):
            jump.invoke(ep, v)


def traces_of(spans):
    """Group causal spans by trace id."""
    out = {}
    for sp in spans:
        if sp.kind in ("msg", "handle", "batch") and sp.trace is not None:
            out.setdefault(sp.trace, []).append(sp)
    return out


class TestJumpChainFidelity:
    """One jump invocation == one gather -> gather -> evaluate chain."""

    expected_msgs = None  # filled from the planner below

    def plan_message_count(self):
        plan = compile_action(make_jump_pattern().actions["jump"])
        return plan.cond_plans[0].static_message_count()

    def check_machine(self, m):
        spans = m.telemetry.snapshot_spans()
        plan_msgs = self.plan_message_count()
        assert plan_msgs == 2  # the paper's 2-hop chain
        # the driver's invocation post is itself a message, so a live
        # trace carries static_message_count() + 1 msg spans:
        # invoke @ v -> gather @ prnt[v] -> evaluate @ v
        want = plan_msgs + 1
        by_trace = traces_of(spans)
        assert len(by_trace) == N - 1  # one trace per invocation
        for trace, group in by_trace.items():
            msgs = [sp for sp in group if sp.kind == "msg"]
            handles = [sp for sp in group if sp.kind == "handle"]
            # planner-predicted message count, live
            assert len(msgs) == want, f"trace {trace}: {len(msgs)} msgs"
            # duplicates collapse: exactly one logical handle per msg
            assert len(handles) == want
            parents = sorted(h.parent for h in handles)
            assert parents == sorted(s.sid for s in msgs)
            # the chain is a strict msg -> handle -> msg -> handle line
            leaf = max(handles, key=lambda sp: sp.sid)
            chain = chain_of(spans, leaf.sid)
            kinds = [sp.kind for sp in chain]
            assert kinds == ["msg", "handle"] * want
            # hop localities: each handle runs at its causing msg's dest
            # (invoke at v, gather at prnt[v], evaluate back at v)
            for i in range(0, 2 * want, 2):
                assert chain[i + 1].rank == chain[i].args["dest"]
            assert chain[1].rank == chain[5].rank  # starts and ends at v
        assert m.telemetry.pending_contexts() == 0

    @pytest.mark.parametrize("fast_path", FAST_PATHS)
    def test_sim(self, fast_path):
        m, bp = jump_machine(fast_path=fast_path)
        run_one_round(m, bp)
        self.check_machine(m)

    @pytest.mark.parametrize("fast_path", FAST_PATHS)
    def test_threads(self, fast_path):
        m, bp = jump_machine(fast_path=fast_path, transport="threads")
        with m:
            run_one_round(m, bp)
            self.check_machine(m)

    @pytest.mark.parametrize("fast_path", FAST_PATHS)
    def test_sim_chaos_reliable(self, fast_path):
        """A lossy, duplicating wire with reliable delivery must not
        change the logical span trees at all."""
        m, bp = jump_machine(
            fast_path=fast_path,
            chaos=ChaosConfig(seed=11, drop=0.15, duplicate=0.15),
        )
        run_one_round(m, bp)
        self.check_machine(m)
        # chaos visibly happened and was recorded as events
        events = [sp for sp in m.telemetry.snapshot_spans()
                  if sp.kind == "event"]
        assert any(sp.name == "fault" for sp in events)

    def test_threads_chaos_reliable(self):
        m, bp = jump_machine(
            transport="threads",
            chaos=ChaosConfig(seed=5, drop=0.1, duplicate=0.1),
        )
        with m:
            run_one_round(m, bp)
            self.check_machine(m)

    def test_rounds_converge_identically_traced(self):
        """Telemetry does not perturb the algorithm: pointer jumping
        converges to the same parents with and without spans."""
        results = []
        for tel in ("off", "spans"):
            g, _ = build_graph(N, [(0, 1)], n_ranks=4)
            m = Machine(4, telemetry=tel)
            bp = bind(make_jump_pattern(), m, g)
            pm = bp.map("prnt")
            for v in range(N):
                pm[v] = max(v - 1, 0)
            jump = bp["jump"]
            for _ in range(6):
                before = jump.change_count
                with m.epoch() as ep:
                    for v in range(N):
                        jump.invoke(ep, v)
                if jump.change_count == before:
                    break
            results.append(pm.to_array().tolist())
        assert results[0] == results[1] == [0] * N


class TestFusedTraceFidelity:
    """Fusion changes the *planned* message count, and the live trace
    must follow: a fused native round applies rank-local relaxations
    inline, so the gather -> evaluate hop disappears from the span tree
    exactly as ``static_message_count(fused=True)`` predicts."""

    N = 10

    def _run(self, fast_path):
        from repro.algorithms.sssp import bind_sssp

        s, t = path(self.N)
        g, wg = build_graph(
            self.N, list(zip(s.tolist(), t.tolist())),
            weights=uniform_weights(self.N - 1, 1, 5, seed=3), n_ranks=1,
        )
        m = Machine(1, fast_path=fast_path, telemetry="spans")
        bp = bind_sssp(m, g, wg)
        dist = bp.map("dist")
        dist.fill(float("inf"))
        dist[0] = 0.0
        with m.epoch() as ep:
            bp["relax"].invoke(ep, 0)
        return m, bp

    def msgs_per_trace(self, m):
        by_trace = traces_of(m.telemetry.snapshot_spans())
        assert len(by_trace) == 1  # one invocation, one trace
        (group,) = by_trace.values()
        return len([sp for sp in group if sp.kind == "msg"])

    def test_fused_native_collapses_eval_hop(self):
        m, bp = self._run("native")
        plan = bp["relax"].plan
        # the planner proves fusion and drops one round from the count
        assert plan.static_message_count() == 1
        assert plan.static_message_count(fused=True) == 0
        assert bp["relax"]._fused
        assert m.stats.native.fused_rounds > 0
        # live: only the driver's invoke message remains
        assert self.msgs_per_trace(m) == plan.static_message_count(fused=True) + 1

    def test_unfused_vector_keeps_eval_hop(self):
        m, bp = self._run("vector")
        plan = bp["relax"].plan
        # unfused: invoke + the gather->evaluate hop, as planned
        assert self.msgs_per_trace(m) == plan.static_message_count() + 1

    def test_fused_and_unfused_agree_on_result(self):
        dists = {}
        for fp in ("off", "vector", "native"):
            m, bp = self._run(fp)
            dists[fp] = bp.map("dist").to_array()
        assert (dists["off"] == dists["vector"]).all()
        assert (dists["off"] == dists["native"]).all()


def sssp_vector_machine(chaos=None):
    from repro.algorithms import sssp_fixed_point

    n = 60
    edges = path(n)
    g, wg = build_graph(
        n, list(zip(edges[0].tolist(), edges[1].tolist())),
        weights=uniform_weights(n - 1, 1, 5, seed=3), n_ranks=4,
    )
    m = Machine(4, fast_path="vector", telemetry="spans", chaos=chaos)
    dist = sssp_fixed_point(m, g, wg, 0, layers={"relax": {"coalescing": 8}})
    return m, dist


class TestVectorBatchFidelity:
    """Coalesced envelopes delivered by vector kernels keep causality."""

    def check(self, m):
        spans = m.telemetry.snapshot_spans()
        by_sid = {sp.sid: sp for sp in spans}
        batches = [sp for sp in spans if sp.kind == "batch"]
        assert batches, "vector fast path + coalescing must produce batches"
        for b in batches:
            assert b.links and all(l in by_sid for l in b.links)
            assert all(by_sid[l].kind == "msg" for l in b.links)
        handles = [sp for sp in spans if sp.kind == "handle"]
        for h in handles:  # no orphans
            assert h.parent in by_sid and by_sid[h.parent].kind == "msg"
        # duplicates collapse: at most one logical handle per msg span
        per_msg = {}
        for h in handles:
            per_msg[h.parent] = per_msg.get(h.parent, 0) + 1
        assert all(c == 1 for c in per_msg.values())
        assert m.telemetry.pending_contexts() == 0

    def test_vector_batches(self):
        m, dist = sssp_vector_machine()
        self.check(m)
        assert dist[59] < float("inf")

    def test_vector_batches_under_chaos(self):
        """Drops/duplicates/splits of coalesced envelopes: retries keep
        context, suppressed duplicates never mint extra handle spans."""
        m, dist = sssp_vector_machine(
            chaos=ChaosConfig(seed=13, drop=0.1, duplicate=0.1, split=0.1)
        )
        self.check(m)
        assert dist[59] < float("inf")
        assert m.stats.chaos.faults_injected > 0

    def test_critical_path_tracks_graph_depth(self):
        """On a path graph the epoch critical chain grows with distance
        from the source — the paper's depth-proportional message chain."""
        m, _ = sssp_vector_machine()
        reports = critical_paths(m.telemetry.snapshot_spans())
        assert reports and reports[0].hops >= 20
