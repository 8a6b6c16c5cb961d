"""GraphEngine lifecycle: submit/status/cancel, admission control,
validation, failure isolation, and clean shutdown."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import Machine
from repro.algorithms import (
    bfs_fixed_point,
    cc_label_propagation,
    pagerank,
    sssp_fixed_point,
)
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.service import EngineBusy, GraphEngine, UnknownJob


def instance(n=40, m=130, seed=3, n_ranks=4):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1, 10, seed=seed + 1)
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=n_ranks)


@pytest.fixture()
def engine():
    g, wg = instance()
    eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
    try:
        yield eng, g, wg
    finally:
        eng.close()


def idle_engine(**kw):
    """An engine whose worker thread never starts: jobs stay queued, so
    queue-state transitions are deterministic."""
    g, wg = instance()
    eng = GraphEngine(Machine(4, fast_path="vector"), g, wg, start=False, **kw)
    eng._running = True  # accept submissions without draining them
    return eng, g, wg


class TestSubmitAndResults:
    def test_sssp_job_round_trip(self, engine):
        eng, g, wg = engine
        job = eng.submit("sssp", {"source": 0})
        assert job.job_id.startswith("job-")
        assert job.wait(timeout=30)
        assert job.status == "done" and job.error is None
        assert job.graph_version == 0
        ref = sssp_fixed_point(Machine(4, fast_path="vector"), g, wg, 0)
        assert np.array_equal(job.result, ref)

    def test_bfs_and_cc_and_pagerank(self, engine):
        eng, g, _ = engine
        jobs = [
            eng.submit("bfs", {"source": 2}),
            eng.submit("cc"),
            eng.submit("pagerank", {"iterations": 5}),
        ]
        for job in jobs:
            assert job.wait(timeout=30) and job.status == "done", job.error
        ref = bfs_fixed_point(Machine(4, fast_path="vector"), g, 2)
        assert np.array_equal(jobs[0].result, ref)
        assert len(jobs[1].result) == g.n_vertices
        assert len(jobs[2].result) == g.n_vertices

    def test_job_lookup_and_listing(self, engine):
        eng, _, _ = engine
        job = eng.submit("bfs", {"source": 0})
        assert eng.job(job.job_id) is job
        assert job in eng.jobs()
        with pytest.raises(UnknownJob):
            eng.job("job-999999")

    def test_snapshot_is_json_shaped(self, engine):
        eng, _, _ = engine
        job = eng.submit("bfs", {"source": 0})
        job.wait(timeout=30)
        snap = job.snapshot()
        assert snap["status"] == "done"
        assert snap["algorithm"] == "bfs"
        assert "result" not in snap  # snapshots never carry payloads
        assert isinstance(job.result_payload(), list)


class TestValidation:
    def test_rejects_unknown_algorithm(self, engine):
        eng, _, _ = engine
        with pytest.raises(ValueError, match="unknown algorithm"):
            eng.submit("triangle-count", {})

    def test_rejects_bad_sources(self, engine):
        eng, g, _ = engine
        with pytest.raises(ValueError, match="integer 'source'"):
            eng.submit("sssp", {})
        with pytest.raises(ValueError, match="integer 'source'"):
            eng.submit("sssp", {"source": "zero"})
        with pytest.raises(ValueError, match="integer 'source'"):
            eng.submit("bfs", {"source": True})
        with pytest.raises(ValueError, match="out of range"):
            eng.submit("bfs", {"source": g.n_vertices})

    def test_rejects_unknown_params(self, engine):
        eng, _, _ = engine
        with pytest.raises(ValueError, match="unknown sssp params"):
            eng.submit("sssp", {"source": 0, "delta": 4.0})
        with pytest.raises(ValueError, match="unknown pagerank params"):
            eng.submit("pagerank", {"alpha": 0.9})

    @pytest.mark.parametrize("params, match", [
        ({"iterations": 2.5}, "'iterations' must be an integer >= 1"),
        ({"iterations": True}, "'iterations' must be an integer >= 1"),
        ({"iterations": 0}, "'iterations' must be an integer >= 1"),
        ({"iterations": -3}, "'iterations' must be an integer >= 1"),
        ({"damping": 7.0}, r"'damping' must be a real in \[0, 1\]"),
        ({"damping": -0.1}, r"'damping' must be a real in \[0, 1\]"),
        ({"damping": float("nan")}, r"'damping' must be a real in \[0, 1\]"),
        ({"damping": False}, r"'damping' must be a real in \[0, 1\]"),
        ({"tol": -1e-9}, "'tol' must be a real >= 0"),
        ({"tol": "0"}, "'tol' must be a real >= 0"),
    ])
    def test_rejects_bad_pagerank_params(self, engine, params, match):
        eng, _, _ = engine
        with pytest.raises(ValueError, match=match):
            eng.submit("pagerank", params)

    def test_accepts_pagerank_params_at_their_bounds(self, engine):
        eng, _, _ = engine
        job = eng.submit("pagerank", {"iterations": 1, "damping": 1, "tol": 0})
        assert job.wait(timeout=30) and job.status == "done"

    def test_sssp_needs_weights(self):
        g, _ = instance()
        eng = GraphEngine(Machine(4), g)  # no weights loaded
        try:
            with pytest.raises(ValueError, match="without edge weights"):
                eng.submit("sssp", {"source": 0})
            job = eng.submit("bfs", {"source": 0})  # bfs still fine
            assert job.wait(timeout=30) and job.status == "done"
        finally:
            eng.close()


class TestAdmissionControl:
    def test_engine_busy_past_max_pending(self):
        eng, _, _ = idle_engine(max_pending=3)
        for i in range(3):
            eng.submit("bfs", {"source": i})
        with pytest.raises(EngineBusy, match="queue full"):
            eng.submit("bfs", {"source": 3})
        assert eng.machine.stats.service.jobs_rejected == 1
        assert eng.stats_snapshot()["queue_depth"] == 3

    def test_cancellation_frees_a_slot(self):
        eng, _, _ = idle_engine(max_pending=2)
        first = eng.submit("bfs", {"source": 0})
        eng.submit("bfs", {"source": 1})
        assert eng.cancel(first.job_id) is True
        assert first.status == "cancelled" and first.done.is_set()
        eng.submit("bfs", {"source": 2})  # admitted again


class TestCancel:
    def test_cancel_queued_job(self):
        eng, _, _ = idle_engine()
        job = eng.submit("bfs", {"source": 0})
        assert eng.cancel(job.job_id) is True
        assert job.status == "cancelled"
        assert eng.machine.stats.service.jobs_cancelled == 1

    def test_cannot_cancel_finished_job(self, engine):
        eng, _, _ = engine
        job = eng.submit("bfs", {"source": 0})
        assert job.wait(timeout=30)
        assert eng.cancel(job.job_id) is False
        assert job.status == "done"

    def test_cancel_unknown_job(self, engine):
        eng, _, _ = engine
        with pytest.raises(UnknownJob):
            eng.cancel("job-424242")


class TestFailureIsolation:
    def test_failed_mutation_does_not_kill_worker(self, engine):
        eng, _, _ = engine
        bad = eng.submit("mutate", {"delete": [[0, 1]], "strict": True})
        assert bad.wait(timeout=30)
        # The instance almost surely lacks edge (0,1); if it exists the
        # mutation legitimately succeeds - either way the engine survives.
        if bad.status == "failed":
            assert bad.error
            assert eng.machine.stats.service.jobs_failed == 1
        after = eng.submit("bfs", {"source": 0})
        assert after.wait(timeout=30) and after.status == "done"


class TestClose:
    def test_close_cancels_queued_and_rejects_new(self):
        eng, _, _ = idle_engine()
        job = eng.submit("bfs", {"source": 0})
        eng.close()
        assert job.status == "cancelled"
        with pytest.raises(RuntimeError, match="closed"):
            eng.submit("bfs", {"source": 1})

    def test_owns_machine_shutdown(self):
        g, wg = instance()
        m = Machine(4, transport="threads")
        eng = GraphEngine(m, g, wg, owns_machine=True)
        job = eng.submit("sssp", {"source": 0})
        assert job.wait(timeout=30) and job.status == "done"
        eng.close()

    def test_context_manager(self):
        g, wg = instance()
        with GraphEngine(Machine(4), g, wg) as eng:
            job = eng.submit("bfs", {"source": 0})
            assert job.wait(timeout=30) and job.status == "done"


class TestStatsSnapshot:
    def test_shape_and_counters(self, engine):
        eng, _, _ = engine
        job = eng.submit("sssp", {"source": 0})
        assert job.wait(timeout=30)
        snap = eng.stats_snapshot()
        assert snap["service"]["jobs_submitted"] == 1
        assert snap["service"]["jobs_completed"] == 1
        assert snap["graph_version"] == 0
        assert snap["max_pending"] == 256
        assert snap["cache"]["entries"] == 1
        assert snap["transport"] == "SimTransport"


class TestOneJobPerRun:
    """The worker claims the queue head and runs it alone: jobs start in
    submission order and each reports the accounting of its own run."""

    def test_jobs_start_in_submission_order(self):
        g, wg = instance()
        with GraphEngine(Machine(4, fast_path="vector"), g, wg) as eng:
            with eng._cv:  # hold the executor until all three are queued
                jobs = [
                    eng.submit("sssp", {"source": 0}),
                    eng.submit("pagerank", {"iterations": 3}),
                    eng.submit("sssp", {"source": 5}),
                ]
            for job in jobs:
                assert job.wait(timeout=30) and job.status == "done", job.error
        starts = [j.started_at for j in jobs]
        assert starts == sorted(starts) and len(set(starts)) == 3, starts
        assert [j.batch_id for j in jobs] == [1, 2, 3]

    def test_each_job_reports_its_own_run(self):
        g, wg = instance()
        m = Machine(4, fast_path="vector")
        with GraphEngine(m, g, wg) as eng:
            with eng._cv:
                ranks = eng.submit("pagerank", {"iterations": 3})
                jobs = [eng.submit("sssp", {"source": s}) for s in (0, 5)]
            for job in [ranks, *jobs]:
                assert job.wait(timeout=30) and job.status == "done", job.error
        for job in jobs:
            with GraphEngine(Machine(4, fast_path="vector"), g, wg) as alone:
                ref = alone.submit("sssp", dict(job.params))
                assert ref.wait(timeout=30) and ref.status == "done", ref.error
            assert np.array_equal(job.result, ref.result)
            assert job.messages_sent > 0
            assert (job.messages_sent, job.handler_calls) == (
                ref.messages_sent,
                ref.handler_calls,
            )
        runs = [ranks, *jobs]
        for before, after in zip(runs, runs[1:]):
            assert before.epoch_first <= before.epoch_last < after.epoch_first
        events = [e for e in m.flight.events() if e["kind"] == "job_run"]
        assert [e["job"] for e in events] == [j.job_id for j in runs]
        assert [e["sent"] for e in events] == [j.messages_sent for j in runs]


class TestBindOnce:
    """Every family binds its pattern once per engine: repeated computed
    jobs, a mutation and a resize leave the message registry, the graph's
    vertex maps and (on ``process``) the worker fleet alone, and every
    result equals a fresh run on a fresh machine."""

    @staticmethod
    def fresh(g, weights, algorithm, params):
        m = Machine(g.n_ranks, fast_path="vector")
        if algorithm == "sssp":
            return sssp_fixed_point(m, g, weights, params["source"])
        if algorithm == "bfs":
            return bfs_fixed_point(m, g, params["source"])
        if algorithm == "cc":
            return cc_label_propagation(m, g)
        return pagerank(m, g, **params)

    @pytest.mark.parametrize("transport", ("sim", "process"))
    def test_registry_maps_and_spawns_stay_flat(self, transport):
        g, wg = instance(n_ranks=2)
        m = Machine(2, transport=transport, fast_path="vector")
        spawns = []
        if transport == "process":
            spawn = m.transport._spawn
            m.transport._spawn = lambda: (spawns.append(1), spawn())
        eng = GraphEngine(m, g, wg)
        sizes = []

        def round_(k):
            eng.cache.invalidate()  # every job computes
            specs = [
                ("sssp", {"source": k}),
                ("bfs", {"source": k + 1}),
                ("cc", {}),
                ("pagerank", {"iterations": 3 + k}),
            ]
            jobs = [eng.submit(a, p) for a, p in specs]
            for job in jobs:
                assert job.wait(timeout=60) and job.status == "done", job.error
            gc.collect()
            sizes.append((len(m.registry), len(g._vertex_maps), len(spawns)))
            weights = eng._weight.to_array()
            for job, (a, p) in zip(jobs, specs):
                ref = self.fresh(g, weights, a, p)
                if a == "pagerank" and transport == "process":
                    # Float sums follow the (nondeterministic) arrival
                    # order across worker processes, fresh run or not.
                    assert np.allclose(job.result, ref, rtol=0, atol=1e-15)
                else:
                    assert np.array_equal(job.result, ref), a

        try:
            round_(0)
            round_(1)
            assert eng.submit("mutate", {"insert": [[0, 39, 0.5]]}).wait(60)
            round_(2)
            round_(3)
            job = eng.submit("rebalance", {"n_ranks": 4})
            assert job.wait(60) and job.status == "done", job.error
            round_(4)
            round_(5)
        finally:
            eng.close()
            m.shutdown()
        registry, vmaps, _ = sizes[0]
        assert all(s[:2] == (registry, vmaps) for s in sizes), sizes
        if transport == "process":
            # One respawn per graph change (the fleet is released for
            # map migration and resized), none per job.
            n = [s[2] for s in sizes]
            assert n[1] == n[0] and n[3] == n[2] and n[5] == n[4], n
            assert n[2] == n[1] + 1 and n[4] == n[3] + 1, n
