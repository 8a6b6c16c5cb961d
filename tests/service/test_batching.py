"""Queued engine jobs == fresh single-source runs, bit-identically.

Jobs are queued while the engine's condition lock is held (the lock is
re-entrant, so the test thread can submit while the worker is shut out);
on release the worker claims them one at a time, in submission order, and
runs each as its own ``fixed_point`` run.  Every result must be
``np.array_equal`` to the plain single-source strategy on a fresh machine,
across transports x fast paths, and every computed job must report a run
of its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Machine
from repro.algorithms import bfs_fixed_point, sssp_fixed_point
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.service import GraphEngine

from ..tiers import CELLS, FUSED, tier

SOURCES = (0, 5, 11, 17, 23, 29)


def instance(n=40, m=130, seed=3, n_ranks=4):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1, 10, seed=seed + 1)
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=n_ranks)


def submit_as_group(eng, algorithm, sources):
    """Queue one job per source atomically, so the worker finds them all
    queued (the engine's Condition lock is re-entrant)."""
    with eng._cv:
        return [eng.submit(algorithm, {"source": s}) for s in sources]


def wait_all(jobs, timeout=60):
    for job in jobs:
        assert job.wait(timeout=timeout), f"{job.job_id} never finished"
        assert job.status == "done", (job.job_id, job.status, job.error)


def assert_one_run_each(jobs):
    """Each job ran alone, in submission order."""
    assert all(j.batch_size == 1 and j.messages_sent > 0 for j in jobs)
    ids = [j.batch_id for j in jobs]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("mode", CELLS)
    @pytest.mark.parametrize("transport", ("sim", "threads"))
    def test_sssp_bit_identical(self, transport, mode):
        g, wg = instance()
        fast_path = tier(mode)
        eng = GraphEngine(Machine(4, transport=transport, fast_path=fast_path), g, wg)
        try:
            jobs = submit_as_group(eng, "sssp", SOURCES)
            wait_all(jobs)
            for job, src in zip(jobs, SOURCES):
                ref = sssp_fixed_point(Machine(4, fast_path=fast_path), g, wg, src)
                assert np.array_equal(job.result, ref)
            assert_one_run_each(jobs)
            assert eng.machine.stats.service.batches_executed == len(SOURCES)
        finally:
            eng.close()

    @pytest.mark.parametrize("mode", ("off", "vector", FUSED))
    def test_sssp_bit_identical_process(self, mode):
        g, wg = instance()
        m = Machine(4, transport="process", fast_path=tier(mode))
        eng = GraphEngine(m, g, wg)
        try:
            jobs = submit_as_group(eng, "sssp", SOURCES)
            wait_all(jobs)
            for job, src in zip(jobs, SOURCES):
                ref = sssp_fixed_point(Machine(4, fast_path=tier(mode)), g, wg, src)
                assert np.array_equal(job.result, ref)
            assert m.stats.service.batches_executed == len(SOURCES)
        finally:
            eng.close()
            m.shutdown()

    def test_bfs_batch(self):
        g, _ = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, None)
        try:
            jobs = submit_as_group(eng, "bfs", SOURCES[:4])
            wait_all(jobs)
            assert [j.batch_id for j in jobs] == [1, 2, 3, 4]
            assert_one_run_each(jobs)
            for job, src in zip(jobs, SOURCES):
                ref = bfs_fixed_point(Machine(4, fast_path="vector"), g, src)
                assert np.array_equal(job.result, ref)
        finally:
            eng.close()


class TestMutationBarrier:
    def test_jobs_never_batch_across_a_mutation(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
        try:
            with eng._cv:
                pre = [eng.submit("sssp", {"source": s}) for s in SOURCES[:2]]
                mut = eng.submit("mutate", {"insert": [[0, 1, 0.25]]})
                post = [eng.submit("sssp", {"source": s}) for s in SOURCES[:2]]
            wait_all(pre + [mut] + post)
            assert all(j.graph_version == 0 for j in pre)
            assert mut.result["graph_version"] == 1
            assert all(j.graph_version == 1 for j in post)
            # every job ran alone, pre before post
            assert_one_run_each(pre + post)
            assert eng.machine.stats.service.mutations_applied == 1
        finally:
            eng.close()

    def test_post_mutation_results_see_new_edge(self):
        # a tiny path graph where the inserted shortcut provably changes
        # the distance map
        edges = [(0, 1), (1, 2), (2, 3)]
        w = [5.0, 5.0, 5.0]
        g, wg = build_graph(4, edges, weights=w, n_ranks=2)
        eng = GraphEngine(Machine(2, fast_path="vector"), g, wg)
        try:
            before = eng.submit("sssp", {"source": 0})
            wait_all([before])
            assert before.result[3] == 15.0
            mut = eng.submit("mutate", {"insert": [[0, 3, 1.0]]})
            after = eng.submit("sssp", {"source": 0})
            wait_all([mut, after])
            assert after.result[3] == 1.0
            assert after.graph_version == 1
        finally:
            eng.close()
