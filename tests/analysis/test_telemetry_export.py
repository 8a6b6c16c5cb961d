"""Exporters (Chrome trace, Prometheus), critical path, tracer lifecycle."""

import json

import pytest

from repro import Machine
from repro.analysis import (
    MessageTracer,
    chain_of,
    critical_paths,
    parse_prometheus,
    render_critical_paths,
    to_chrome_trace,
    to_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
    write_prometheus,
)
from repro.runtime import ChaosConfig


def chain_machine(depth=8, **mkw):
    m = Machine(4, **mkw)

    def hop(ctx, p):
        if p[0] < depth:
            ctx.send(fwd, (p[0] + 1,))

    fwd = m.register("fwd", hop, dest_rank_of=lambda p: p[0] % 4)
    with m.epoch() as ep:
        ep.invoke(fwd, (0,))
    return m


class TestChromeTrace:
    def test_valid_and_json_round_trips(self, tmp_path):
        m = chain_machine(telemetry="spans")
        out = tmp_path / "trace.json"
        obj = write_chrome_trace(m, str(out))
        assert validate_chrome_trace(obj) == []
        loaded = json.loads(out.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["n_ranks"] == 4

    def test_tracks_and_flows(self):
        m = chain_machine(telemetry="spans")
        obj = to_chrome_trace(m)
        events = obj["traceEvents"]
        pids = {e["pid"] for e in events}
        assert set(range(4)) <= pids and 4 in pids  # ranks + driver track
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names
        starts = {e["id"] for e in events if e["ph"] == "s"}
        ends = {e["id"] for e in events if e["ph"] == "f"}
        assert starts and starts == ends  # every causal arrow is closed

    def test_chaos_events_are_instants(self):
        m = chain_machine(
            telemetry="spans",
            chaos=ChaosConfig(seed=3, drop=0.3, duplicate=0.2),
        )
        obj = to_chrome_trace(m)
        inst = [e for e in obj["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] in ("fault", "retry") for e in inst)
        assert validate_chrome_trace(obj) == []

    def test_validator_catches_breakage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        errs = validate_chrome_trace(
            {"traceEvents": [
                {"ph": "X", "pid": 0, "tid": 0, "ts": 1.0},  # no name/dur
                {"ph": "q", "pid": 0, "tid": 0},  # unknown ph
                {"ph": "f", "id": 9, "name": "x", "ts": 0, "pid": 0, "tid": 0},
            ]}
        )
        assert len(errs) >= 3
        assert any("flow finish id 9" in e for e in errs)


class TestPrometheus:
    def test_export_lints_clean(self, tmp_path):
        m = chain_machine(telemetry="counters")
        text = write_prometheus(m, str(tmp_path / "m.prom"))
        samples, errors = parse_prometheus(text)
        assert errors == []
        assert samples[("repro_type_handler_calls", frozenset({("type", "fwd")}))] == 9.0
        assert ("repro_epochs", frozenset()) in samples
        phase_keys = [k for k in samples if k[0] == "repro_phase_seconds"]
        assert phase_keys

    def test_reflects_every_typestats_field(self):
        """New TypeStats counters must appear without touching the exporter."""
        import dataclasses

        from repro.runtime.stats import TypeStats

        m = chain_machine(telemetry="off")
        text = to_prometheus(m)
        for f in dataclasses.fields(TypeStats):
            assert f"repro_type_{f.name}{{" in text, f.name

    def test_reflects_chaos_fields(self):
        import dataclasses

        from repro.runtime.stats import ChaosStats

        m = chain_machine(telemetry="off")
        text = to_prometheus(m)
        for f in dataclasses.fields(ChaosStats):
            assert f"repro_chaos_{f.name} " in text, f.name

    def test_reflects_native_fields(self):
        """Every FusionStats counter (the former native tier's) exports as
        repro_fusion_* without touching the exporter (dataclass
        reflection, like TypeStats)."""
        import dataclasses

        from repro.runtime.stats import FusionStats

        m = chain_machine(telemetry="off")
        text = to_prometheus(m)
        for f in dataclasses.fields(FusionStats):
            assert f"repro_fusion_{f.name} " in text, f.name

    def test_native_counters_have_live_values(self, tmp_path):
        """A vector run's fusion counters, once the native tier's, land in
        the scrape with real values."""
        import math

        from repro.algorithms.sssp import bind_sssp
        from repro.graph import build_graph, erdos_renyi, uniform_weights

        s, t = erdos_renyi(30, 120, seed=3)
        w = uniform_weights(120, 1.0, 10.0, seed=4)
        g, wbg = build_graph(30, list(zip(s, t)), weights=w, n_ranks=2)
        m = Machine(2, fast_path="vector")
        bp = bind_sssp(m, g, wbg)
        dist = bp.map("dist")
        dist.fill(math.inf)
        dist[0] = 0.0
        relax = bp["relax"]
        relax.work = lambda ctx, v: relax.invoke_from(ctx, v)
        with m.epoch() as ep:
            relax.invoke(ep, 0)
        text = write_prometheus(m, str(tmp_path / "fusion.prom"))
        samples, errors = parse_prometheus(text)
        assert errors == []
        assert samples[("repro_fusion_fused_rounds", frozenset())] > 0

    def test_scrape_ignores_retired_cache_switch(self, monkeypatch):
        """The generated-kernel cache is gone: its old switch in the
        environment must not break a scrape, and no cache/compile gauge
        is exported."""
        # Spelled in parts: the tree names the retired variable nowhere else.
        monkeypatch.setenv("REPRO_KERNEL" + "_CACHE", "off")
        m = chain_machine(telemetry="off")
        samples, errors = parse_prometheus(to_prometheus(m))
        assert errors == []
        names = {name for name, _ in samples}
        assert "repro_health_property_map_bytes" in names
        assert not [n for n in names if "kernel" in n or "jit" in n]

    def test_lint_catches_problems(self):
        bad = (
            "# TYPE good counter\n"
            "good 1\n"
            "good 2\n"  # duplicate sample
            "orphan 3\n"  # no TYPE
            "bad__value{x=\"1\"} notanumber\n"
            "# TYPE empty gauge\n"
        )
        _, errors = parse_prometheus(bad)
        msgs = "\n".join(errors)
        assert "duplicate sample" in msgs
        assert "without TYPE" in msgs
        assert "non-numeric" in msgs
        assert "declared but has no samples" in msgs


class TestCriticalPath:
    def test_chain_depth_matches_forwarding_depth(self):
        m = chain_machine(depth=10, telemetry="spans")
        reports = critical_paths(m.telemetry.snapshot_spans())
        assert len(reports) == 1
        r = reports[0]
        # 11 msgs + 11 handles along the forwarding line: 21 causal edges
        assert r.hops == 21
        assert r.names[0] == "msg:fwd" and r.names[-1] == "handle:fwd"
        assert r.wall_seconds >= 0.0
        table = render_critical_paths(reports)
        assert "epoch" in table and "fwd" in table
        # chain_of reproduces the same path through parent edges
        chain = chain_of(m.telemetry.snapshot_spans(), r.sids[-1])
        assert [sp.sid for sp in chain] == list(r.sids)

    def test_empty(self):
        assert critical_paths([]) == []
        assert "no causal spans" in render_critical_paths([])

    def test_report_summary(self):
        m = chain_machine(depth=3, telemetry="spans")
        r = critical_paths(m.telemetry.snapshot_spans())[0]
        assert "hops" in r.summary()


class TestMessageTracerLifecycle:
    """The tracer is an uninstallable observer, not a permanent patch."""

    def make(self):
        m = Machine(4)
        mt = m.register("echo", lambda ctx, p: None,
                        dest_rank_of=lambda p: p[0] % 4)
        return m, mt

    def run(self, m, mt, k=5):
        with m.epoch() as ep:
            for i in range(k):
                ep.invoke(mt, (i,))

    def test_install_and_uninstall(self):
        m, mt = self.make()
        tr = MessageTracer.install(m)
        assert tr.installed
        self.run(m, mt)
        assert tr.count() == 5
        tr.uninstall()
        assert not tr.installed
        self.run(m, mt)
        assert tr.count() == 5  # stopped observing
        assert m.telemetry.wire_obs == []  # machine fully restored

    def test_double_attach_does_not_stack(self):
        m, mt = self.make()
        tr = MessageTracer.install(m)
        tr.attach()
        tr.attach()
        self.run(m, mt, k=3)
        assert tr.count() == 3  # each message observed exactly once
        tr.uninstall()

    def test_clear_resets_seq_and_hops(self):
        m, mt = self.make()
        tr = MessageTracer.install(m)
        self.run(m, mt)
        assert tr.events[-1].seq == 5
        tr.clear()
        assert tr.events == [] and tr.physical_hops == [] and tr._seq == 0
        self.run(m, mt, k=2)
        assert [e.seq for e in tr.events] == [1, 2]  # seq restarted

    def test_two_tracers_coexist(self):
        m, mt = self.make()
        a = MessageTracer.install(m)
        b = MessageTracer.install(m)
        self.run(m, mt, k=4)
        assert a.count() == b.count() == 4
        a.uninstall()
        self.run(m, mt, k=1)
        assert a.count() == 4 and b.count() == 5
        b.uninstall()

    def test_hop_observer_restored(self):
        # handler forwards cross-rank so real wire hops exist (driver
        # injections have src == -1 and are not physical hops)
        m = Machine(4)

        def hop(ctx, p):
            if p[0] < 8:
                ctx.send(mt, (p[0] + 1,))

        mt = m.register("echo", hop, dest_rank_of=lambda p: p[0] % 4)

        def run():
            with m.epoch() as ep:
                ep.invoke(mt, (0,))

        calls = []
        m.transport.hop_observer = lambda a, b: calls.append((a, b))
        tr = MessageTracer.install(m)
        run()
        # the tracer chains to the pre-existing observer while installed
        assert calls and tr.physical_hops == calls
        saved = list(calls)
        tr.uninstall()
        run()
        assert len(calls) > len(saved)  # original observer back in place
        assert tr.physical_hops == saved  # tracer stopped recording

    def test_rank_pairs_physical_vs_logical(self):
        m = Machine(4, routing="hypercube")

        def h(ctx, p):  # handler-to-handler sends ride the physical wire
            if p[0] < 12:
                ctx.send(mt, (p[0] + 3,))

        mt = m.register("echo", h, dest_rank_of=lambda p: p[0] % 4)
        tr = MessageTracer.install(m)
        with m.epoch() as ep:
            for i in range(8):
                ep.invoke(mt, (i,))
        physical = tr.rank_pairs(physical=True)
        assert physical  # forwarding produced real wire traffic
        for (a, b) in physical:
            # hypercube: only single-bit neighbours on the physical wire
            diff = a ^ b
            assert diff and (diff & (diff - 1)) == 0
        # rank 0 <-> rank 3 traffic is logical but not physical (2 bits)
        assert any((a ^ b) == 3 for a, b in tr.rank_pairs(physical=False))
        tr.uninstall()


class TestWorksAtEveryLevel:
    @pytest.mark.parametrize("level", ["off", "counters", "spans"])
    def test_tracer_level_independent(self, level):
        m = Machine(2, telemetry=level)
        mt = m.register("echo", lambda ctx, p: None,
                        dest_rank_of=lambda p: p[0] % 2)
        tr = MessageTracer.install(m)
        with m.epoch() as ep:
            ep.invoke(mt, (1,))
        assert tr.count() == 1
        tr.uninstall()
