"""Versioned result cache: keying, budgets, and invalidation.

The integration half drives the full service loop the satellite asks
for: submit -> populate -> hit -> ``apply_mutations`` version bump ->
miss -> recompute, plus the subtler queued-mutation path where the
version bumps at an epoch boundary *inside* a job's run, and
checkpoint/restore of an engine-owned machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Machine
from repro.graph import MutationBatch, build_graph, erdos_renyi, uniform_weights
from repro.service import GraphEngine, ResultCache
from repro.service.cache import canonical_params, result_nbytes


def instance(n=40, m=130, seed=3, n_ranks=4):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1, 10, seed=seed + 1)
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=n_ranks)


def wait_done(*jobs, timeout=60):
    for job in jobs:
        assert job.wait(timeout=timeout)
        assert job.status == "done", (job.job_id, job.status, job.error)


class TestCacheUnit:
    def test_param_order_is_canonical(self):
        a = ResultCache.key(0, "pagerank", {"damping": 0.9, "iterations": 5})
        b = ResultCache.key(0, "pagerank", {"iterations": 5, "damping": 0.9})
        assert a == b
        assert canonical_params({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_hit_miss_counters_optional_stats(self):
        c = ResultCache()  # no stats wired: counters are skipped
        k = ResultCache.key(0, "bfs", {"source": 1})
        assert c.get(k) is None
        c.put(k, np.zeros(4))
        assert np.array_equal(c.get(k), np.zeros(4))
        assert len(c) == 1

    def test_entry_lru_eviction(self):
        c = ResultCache(max_entries=2)
        keys = [ResultCache.key(0, "bfs", {"source": i}) for i in range(3)]
        c.put(keys[0], np.zeros(4))
        c.put(keys[1], np.ones(4))
        c.get(keys[0])  # touch: 0 becomes most-recent
        c.put(keys[2], np.full(4, 2.0))
        assert c.get(keys[1]) is None  # the LRU victim
        assert c.get(keys[0]) is not None

    def test_byte_budget_eviction(self):
        c = ResultCache(max_bytes=100)
        big = np.zeros(10)  # 80 bytes each
        c.put(ResultCache.key(0, "bfs", {"source": 0}), big)
        c.put(ResultCache.key(0, "bfs", {"source": 1}), big)
        assert len(c) == 1  # 160 > 100: first entry evicted
        assert c.resident_bytes == 80

    def test_byte_budget_keeps_at_least_one(self):
        c = ResultCache(max_bytes=8)
        c.put(ResultCache.key(0, "bfs", {"source": 0}), np.zeros(100))
        assert len(c) == 1  # oversize singletons stay resident

    def test_invalidate_scopes_to_other_versions(self):
        c = ResultCache()
        c.put(ResultCache.key(0, "bfs", {"source": 0}), np.zeros(4))
        c.put(ResultCache.key(0, "bfs", {"source": 1}), np.zeros(4))
        c.put(ResultCache.key(1, "bfs", {"source": 0}), np.ones(4))
        assert c.invalidate(current_version=1) == 2
        assert len(c) == 1
        assert c.get(ResultCache.key(1, "bfs", {"source": 0})) is not None
        assert c.invalidate() == 1  # no version: clear everything
        assert len(c) == 0 and c.resident_bytes == 0

    def test_result_nbytes(self):
        assert result_nbytes(np.zeros(10)) == 80
        assert result_nbytes({"a": 1}) == len('{"a": 1}')
        assert result_nbytes(object()) == 256

    def test_bad_budgets(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class TestEngineCacheLoop:
    def test_hit_after_populate_then_miss_after_mutation(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
        try:
            svc = eng.machine.stats.service
            first = eng.submit("sssp", {"source": 0})
            wait_done(first)
            assert not first.cache_hit and svc.cache_misses == 1

            repeat = eng.submit("sssp", {"source": 0})
            wait_done(repeat)
            assert repeat.cache_hit and svc.cache_hits == 1
            assert repeat.batch_size == 0  # never touched the machine
            assert np.array_equal(repeat.result, first.result)

            mut = eng.submit("mutate", {"insert": [[0, 1, 0.01]]})
            wait_done(mut)
            assert svc.cache_invalidations >= 1

            recomputed = eng.submit("sssp", {"source": 0})
            wait_done(recomputed)
            assert not recomputed.cache_hit
            assert recomputed.graph_version == 1
            assert recomputed.result[1] <= 0.01 + first.result[1]
        finally:
            eng.close()

    def test_distinct_params_are_distinct_entries(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
        try:
            a = eng.submit("pagerank", {"iterations": 3})
            b = eng.submit("pagerank", {"iterations": 4})
            wait_done(a, b)
            assert not b.cache_hit
            assert eng.cache.snapshot()["entries"] == 2
        finally:
            eng.close()

    def test_cached_batch_members_short_circuit(self):
        """Queued repeats of cached jobs run nothing."""
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
        try:
            with eng._cv:
                first = [eng.submit("sssp", {"source": s}) for s in (0, 5, 11)]
            wait_done(*first)
            epochs_after_first = len(eng.machine.stats.epochs)
            with eng._cv:
                again = [eng.submit("sssp", {"source": s}) for s in (0, 5, 11)]
            wait_done(*again)
            assert all(j.cache_hit for j in again)
            assert len(eng.machine.stats.epochs) == epochs_after_first
        finally:
            eng.close()

    def test_queued_mutation_does_not_poison_cache(self):
        """``Machine.queue_mutations`` applies at the epoch boundary
        inside a running job: the in-flight result belongs to the OLD
        graph and must be keyed there, and the next identical submission
        must recompute against the new version."""
        edges = [(0, 1), (1, 2), (2, 3)]
        g, wg = build_graph(4, edges, weights=[5.0, 5.0, 5.0], n_ranks=2)
        eng = GraphEngine(Machine(2, fast_path="vector"), g, wg)
        try:
            batch = MutationBatch()
            batch.insert_edge(0, 3, 1.0)
            eng.machine.queue_mutations(batch, weight_map=eng._weight)
            # this run drains against v0, then the boundary applies the
            # mutation and bumps to v1
            stale = eng.submit("sssp", {"source": 0})
            wait_done(stale)
            assert stale.graph_version == 0
            assert stale.result[3] == 15.0  # pre-mutation fixed point
            assert g.version == 1

            fresh = eng.submit("sssp", {"source": 0})
            wait_done(fresh)
            assert not fresh.cache_hit, "served a pre-mutation result"
            assert fresh.graph_version == 1
            assert fresh.result[3] == 1.0  # sees the inserted shortcut
        finally:
            eng.close()

    def test_cache_gauges_exported(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
        try:
            job = eng.submit("bfs", {"source": 0})
            wait_done(job)
            assert eng.machine.stats.service.cache_entries == 1
            assert eng.machine.stats.service.cache_bytes > 0
            from repro.analysis.telemetry_export import to_prometheus

            body = to_prometheus(eng.machine)
            assert "repro_service_cache_entries 1" in body
            assert "repro_service_jobs_completed 1" in body
        finally:
            eng.close()


class TestCheckpointedEngine:
    def test_checkpoint_restore_of_engine_owned_machine(self):
        """An engine on a checkpointing machine keeps serving correct,
        cache-consistent results after a restore rolls map contents
        back: results come from fresh fixed points (maps are refilled per
        run) and the versioned cache stays coherent."""
        g, wg = instance()
        m = Machine(4, fast_path="vector", checkpoint=True)
        eng = GraphEngine(m, g, wg)
        try:
            first = eng.submit("sssp", {"source": 0})
            wait_done(first)
            assert m.checkpoints.latest() is not None

            # clobber every checkpointed map, then roll back
            for pm in m.checkpoints.maps().values():
                if np.issubdtype(np.asarray(pm.to_array()).dtype, np.floating):
                    pm.fill(-1.0)
            m.checkpoints.restore()
            with m.epoch():
                pass  # boundary applies the pending restore

            repeat = eng.submit("sssp", {"source": 0})
            wait_done(repeat)
            assert repeat.cache_hit  # same version: cache still valid
            assert np.array_equal(repeat.result, first.result)

            other = eng.submit("sssp", {"source": 5})
            wait_done(other)
            assert not other.cache_hit
            ref = eng.submit("bfs", {"source": 0})
            wait_done(ref)
            assert m.stats.checkpoint.restores == 1
        finally:
            eng.close()
            m.shutdown()
