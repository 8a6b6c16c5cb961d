"""ProcessTransport lifecycle: fork, respawn, shm cleanup, termination.

Differential correctness (maps/dependent sets vs the sim oracle) lives in
``tests/patterns/test_fastpath_differential.py`` and
``tests/harness/test_chaos_differential.py``; this file covers the
transport's own mechanics.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Machine
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.runtime import ChaosConfig, ProcessTransport
from repro.runtime.checkpoint import CheckpointConfig


@pytest.fixture
def pm():
    m = Machine(n_ranks=4, transport="process")
    yield m
    m.shutdown()


class TestLifecycle:
    def test_spawn_is_lazy(self, pm):
        t = pm.transport
        assert isinstance(t, ProcessTransport)
        assert not t._started
        assert t.pending_messages() == 0
        pm.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 4)
        with pm.epoch() as ep:
            ep.invoke("n", (1,))
        assert t._started
        assert len(t._procs) == 4

    def test_delivery_and_quiescence(self, pm):
        pm.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 4)
        with pm.epoch() as ep:
            for i in range(40):
                ep.invoke("n", (i,))
        assert pm.transport.quiescent()
        assert pm.stats.by_type["n"].handler_calls == 40

    def test_handler_chains_complete(self, pm):
        """Handler re-sends cross rank boundaries through the wire codec
        and the frame ledger still proves quiescence."""

        def relay(ctx, p):
            if p[0] > 0:
                ctx.send("relay", (p[0] - 1,))

        pm.register("relay", relay, dest_rank_of=lambda p: p[0] % 4)
        with pm.epoch() as ep:
            ep.invoke("relay", (60,))
        assert pm.stats.by_type["relay"].handler_calls == 61

    def test_respawn_on_late_registration(self, pm):
        pm.register("a", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 4)
        with pm.epoch() as ep:
            ep.invoke("a", (1,))
        pids_before = [p.pid for p in pm.transport._procs]
        # a new message type invalidates the forked snapshot: the next
        # send must respawn workers that know about it
        pm.register("b", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 4)
        with pm.epoch() as ep:
            ep.invoke("b", (2,))
            ep.invoke("a", (3,))
        pids_after = [p.pid for p in pm.transport._procs]
        assert pids_before != pids_after, "workers were not respawned"
        assert pm.stats.by_type["a"].handler_calls == 2
        assert pm.stats.by_type["b"].handler_calls == 1

    def test_work_hook_set_after_spawn_reaches_workers(self):
        """Workers fork with feedback appenders on the actions hooked at
        spawn time; a hook installed later must reach them before the
        action's next message, or its dependents are silently dropped."""
        from repro.algorithms import bfs_pattern, bfs_reference, bind_sssp
        from repro.graph import rmat
        from repro.patterns import bind
        from repro.strategies import fixed_point

        s, t = rmat(8, edge_factor=8, seed=1)
        w = uniform_weights(len(s), 1, 10, seed=2)
        g, wg = build_graph(256, list(zip(s, t)), weights=w, n_ranks=2)
        src = int(np.bincount(s, minlength=256).argmax())
        m = Machine(2, transport="process")
        try:
            sssp = bind_sssp(m, g, wg)
            bfs = bind(bfs_pattern(), m, g)
            assert bfs["hop"].work is None
            sssp.map("dist")[src] = 0.0
            fixed_point(m, sssp["relax"], [src])  # spawns; hop unhooked
            bfs.map("depth")[src] = 0.0
            fixed_point(m, bfs["hop"], [src])
            ref = bfs_reference(256, s, t, src)
            assert np.array_equal(bfs.map("depth").to_array(), ref)
            # Steady state: rerunning either action keeps the workers.
            pids = [p.pid for p in m.transport._procs]
            for bp, action, name in ((sssp, "relax", "dist"), (bfs, "hop", "depth")):
                bp.map(name).fill(np.inf)
                bp.map(name)[src] = 0.0
                fixed_point(m, bp[action], [src])
            assert [p.pid for p in m.transport._procs] == pids
            assert np.array_equal(bfs.map("depth").to_array(), ref)
        finally:
            m.shutdown()

    def test_shutdown_reaps_workers_and_shm(self):
        m = Machine(n_ranks=2, transport="process")
        m.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 2)
        with m.epoch() as ep:
            ep.invoke("n", (1,))
        procs = list(m.transport._procs)
        m.shutdown()
        assert all(p.exitcode is not None for p in procs)
        assert m.transport._procs == []
        assert m.transport._shm_by_map == {}
        # idempotent
        m.shutdown()

    def test_worker_death_raises(self, pm):
        pm.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 4)
        with pm.epoch() as ep:
            ep.invoke("n", (0,))
        pm.transport._procs[1].terminate()
        pm.transport._procs[1].join()
        with pytest.raises(RuntimeError, match="exited unexpectedly"):
            with pm.epoch() as ep:
                for i in range(8):
                    ep.invoke("n", (i,))
        # make the fixture's shutdown clean
        pm.transport._abort_cleanup()

    def test_crash_chaos_rejected(self):
        m = Machine(
            n_ranks=2,
            transport="process",
            chaos=ChaosConfig(crash_rank=1, crash_tick=5),
            detector="four_counter",
        )
        m.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 2)
        try:
            with pytest.raises(ValueError, match="rank-crash chaos"):
                with m.epoch() as ep:
                    ep.invoke("n", (1,))
        finally:
            m.shutdown()


class TestSharedMemoryMaps:
    def graph(self):
        s, t = erdos_renyi(60, 200, seed=3)
        w = uniform_weights(200, 1.0, 5.0, seed=4)
        return build_graph(60, list(zip(s, t)), weights=w, n_ranks=4)

    def test_results_survive_shutdown(self):
        """Worker-written shm segments are privatized back into the map
        before the segments are unlinked."""
        from repro.algorithms.sssp import sssp_fixed_point

        g, wg = self.graph()
        ref = sssp_fixed_point(Machine(4), g, wg, 0)
        m = Machine(4, transport="process")
        dist = sssp_fixed_point(m, g, wg, 0)
        assert np.array_equal(ref, dist)
        m.shutdown()  # unlinks shm
        # distances must still be readable after the segments are gone
        assert np.array_equal(ref, dist)

    def test_adopt_map_is_identity_deduped(self, pm):
        from repro.props import VertexPropertyMap

        g, _ = self.graph()
        vm = VertexPropertyMap(g, "f8", 0.0, name="x")
        pm.transport.adopt_map(vm)
        pm.transport.adopt_map(vm)
        assert sum(1 for e in pm.transport._adopted if e is vm) == 1


class TestCheckpointAndObservability:
    def test_checkpoint_capture_only(self, pm):
        st = pm.transport.checkpoint_state()
        assert st == {"frames_posted": 0, "frames_done": 0}
        pm.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 4)
        with pm.epoch() as ep:
            for i in range(8):
                ep.invoke("n", (i,))
        st = pm.transport.checkpoint_state()
        assert st["frames_posted"] >= 1
        assert st["frames_posted"] == st["frames_done"]  # quiescent

    def test_restore_state_stops_workers_and_releases_shm(self, pm):
        """restore_state is teardown-not-rewind: workers stop, shm maps
        are privatized, and the next send respawns against republished
        segments (the checkpoint manager re-applies map content at the
        next epoch entry)."""
        pm.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 4)
        with pm.epoch() as ep:
            for i in range(8):
                ep.invoke("n", (i,))
        st = pm.transport.checkpoint_state()
        assert pm.transport._started
        pm.transport.restore_state(st)
        assert not pm.transport._started
        assert pm.transport._shm_by_map == {}
        # the transport comes back on the next epoch
        with pm.epoch() as ep:
            ep.invoke("n", (1,))
        assert pm.stats.by_type["n"].handler_calls == 9

    def test_restore_flow_recovers_clobbered_map(self):
        """End-to-end checkpoint restore on the process transport: the
        manager tears the workers down via ``restore_state``, and the
        re-applied map content survives into the respawned workers."""
        from repro.algorithms.sssp import dijkstra_reference, sssp_fixed_point

        s, t = erdos_renyi(48, 130, seed=3)
        w = uniform_weights(130, 1.0, 8.0, seed=4)
        g, wg = build_graph(48, list(zip(s, t)), weights=w, n_ranks=2)
        ref = dijkstra_reference(48, s, t, w, 0)
        m = Machine(2, transport="process", checkpoint=CheckpointConfig(every=1))
        try:
            dist = sssp_fixed_point(m, g, wg, 0)
            assert np.array_equal(ref, dist)
            (dm,) = [pm for pm in g._vertex_maps if pm.name == "dist"]
            for r in range(g.n_ranks):
                dm.local_slice(r)[:] = -1.0
            m.checkpoints.restore()
            assert not m.transport._started
            with m.epoch():
                pass  # pending map restores re-apply at epoch entry
            assert np.array_equal(dm.to_array(), ref)
            assert m.stats.checkpoint.restores == 1
        finally:
            m.shutdown()

    def test_checkpoint_manager_composes(self):
        m = Machine(
            n_ranks=2,
            transport="process",
            checkpoint=CheckpointConfig(every=1),
        )
        try:
            m.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 2)
            for _ in range(2):
                with m.epoch() as ep:
                    ep.invoke("n", (1,))
            assert len(m.checkpoints.checkpoints) >= 1
        finally:
            m.shutdown()

    def test_telemetry_spans_collected_from_workers(self):
        m = Machine(n_ranks=2, transport="process", telemetry="spans")
        try:
            m.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 2)
            with m.epoch() as ep:
                for i in range(6):
                    ep.invoke("n", (i,))
            spans = list(m.telemetry.spans)
            assert len(spans) > 0
            # worker-side handler spans were shipped home in sync blobs:
            # 'handle' spans carry the executing worker's rank
            handled_on = {sp.rank for sp in spans if sp.kind == "handle"}
            assert handled_on == {0, 1}
        finally:
            m.shutdown()

    def test_wire_summary_shape(self, pm):
        pm.register(
            "upd",
            lambda ctx, p: None,
            dest_rank_of=lambda p: p[0] % 4,
            coalescing=8,
        )
        with pm.epoch() as ep:
            for i in range(32):
                ep.invoke("upd", (i, float(i)))
        ws = pm.transport.wire_summary()
        assert ws["frames_out"] > 0
        assert ws["rows_out"] >= 32
        assert ws["bytes_per_logical"] > 0
        assert "upd" in ws["schemas"]
        assert ws["schemas"]["upd"]["binary_frames"] > 0


class TestDetectors:
    @pytest.mark.parametrize("detector", ["four_counter", "safra"])
    def test_nontrivial_detectors_prove_termination(self, detector):
        m = Machine(n_ranks=4, transport="process", detector=detector)
        try:

            def relay(ctx, p):
                if p[0] > 0:
                    ctx.send("relay", (p[0] - 1,))

            m.register("relay", relay, dest_rank_of=lambda p: p[0] % 4)
            with m.epoch() as ep:
                ep.invoke("relay", (30,))
            assert m.stats.by_type["relay"].handler_calls == 31
            assert m.detector.control_messages > 0
        finally:
            m.shutdown()


class TestSingleRank:
    def test_single_rank_short_circuits_codec(self):
        """With one rank every handler-to-handler hop is local and skips
        the codec entirely (this is the codec-free 1-rank benchmark
        baseline); only the driver's injections cross the parent/worker
        queue as frames."""
        m = Machine(n_ranks=1, transport="process")
        try:

            def relay(ctx, p):
                if p[0] > 0:
                    ctx.send("relay", (p[0] - 1,))

            m.register("relay", relay, dest_rank_of=lambda p: 0)
            with m.epoch() as ep:
                ep.invoke("relay", (63,))
            assert m.stats.by_type["relay"].handler_calls == 64
            ws = m.transport.wire_summary()
            # 64 logical messages, but only the injected one was encoded
            assert ws["rows_out"] == 1, "worker-local hops must skip the codec"
        finally:
            m.shutdown()
