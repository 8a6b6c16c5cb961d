"""Differential tests for SSSP/BFS jobs on the service engine.

K single-source jobs queued on one :class:`~repro.service.GraphEngine`
must each be **bit-identical** (``np.array_equal``, never merely close) to
a fresh ``sssp_fixed_point``/``bfs_fixed_point`` run, across every
transport x fast-path combination and under chaos schedules with reliable
delivery, while the engine reuses one binding per family.  The engine
binds ``relax``/``hop`` behind a coalescing layer the fresh runs do not
have, so these cells also check that the layer is invisible in results.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Machine
from repro.algorithms import bfs_fixed_point, sssp_fixed_point
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.runtime import ChaosConfig
from repro.service import GraphEngine

from ..tiers import CELLS, cell_seed, tier

MODES = CELLS
SOURCES = (0, 7, 19, 33)

CHAOS_KW = dict(drop=0.12, duplicate=0.10, reorder=0.10, reorder_window=4)


def er(n=36, m=110, seed=0, weights=False):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1, 10, seed=seed + 1) if weights else None
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=4, partition="cyclic")


def run_jobs(eng, algorithm, sources):
    """Queue one job per source and stack their results in source order."""
    jobs = [eng.submit(algorithm, {"source": int(s)}) for s in sources]
    for job in jobs:
        assert job.wait(timeout=60), f"{job.job_id} never finished"
        assert job.status == "done", (job.job_id, job.status, job.error)
    return np.stack([job.result for job in jobs])


def rerun_jobs(eng, algorithm, sources):
    """:func:`run_jobs` with the result cache emptied first, so every job
    runs on the engine's (reused) binding."""
    eng.cache.invalidate()
    return run_jobs(eng, algorithm, sources)


# Single-source oracles computed once per (family, mode) and shared.
_oracle_cache: dict = {}


def sssp_oracle(mode: str) -> np.ndarray:
    if ("sssp", mode) not in _oracle_cache:
        g, wg = er(weights=True)
        _oracle_cache[("sssp", mode)] = np.stack(
            [
                sssp_fixed_point(Machine(4, fast_path=tier(mode)), g, wg, s)
                for s in SOURCES
            ]
        )
    return _oracle_cache[("sssp", mode)]


def bfs_oracle(mode: str) -> np.ndarray:
    if ("bfs", mode) not in _oracle_cache:
        g, _ = er()
        _oracle_cache[("bfs", mode)] = np.stack(
            [bfs_fixed_point(Machine(4, fast_path=tier(mode)), g, s) for s in SOURCES]
        )
    return _oracle_cache[("bfs", mode)]


class TestFusedEqualsSequential:
    """K engine jobs == K independent runs, on sim and threads."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("transport", ("sim", "threads"))
    def test_sssp(self, transport, mode):
        g, wg = er(weights=True)
        m = Machine(4, transport=transport, fast_path=tier(mode))
        with GraphEngine(m, g, wg) as eng:
            rows = run_jobs(eng, "sssp", SOURCES)
        assert rows.shape == (len(SOURCES), g.n_vertices)
        assert np.array_equal(rows, sssp_oracle(mode))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("transport", ("sim", "threads"))
    def test_bfs(self, transport, mode):
        g, _ = er()
        m = Machine(4, transport=transport, fast_path=tier(mode))
        with GraphEngine(m, g) as eng:
            rows = run_jobs(eng, "bfs", SOURCES)
        assert np.array_equal(rows, bfs_oracle(mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_sssp_with_coalescing(self, mode):
        """The engine's ``relax`` binding coalesces; the oracle's does not."""
        g, wg = er(weights=True)
        m = Machine(4, fast_path=tier(mode))
        with GraphEngine(m, g, wg) as eng:
            rows = run_jobs(eng, "sssp", SOURCES)
        assert m.stats.total.coalesced_flushes > 0
        assert np.array_equal(rows, sssp_oracle(mode))

    def test_k1_degenerates_to_single_source(self):
        g, wg = er(weights=True)
        with GraphEngine(Machine(4, fast_path="vector"), g, wg) as eng:
            rows = run_jobs(eng, "sssp", [SOURCES[1]])
        assert rows.shape == (1, g.n_vertices)
        assert np.array_equal(rows[0], sssp_oracle("vector")[1])

    def test_duplicate_sources_share_columns(self):
        """A repeated source is served from the cache, not run again."""
        g, wg = er(weights=True)
        with GraphEngine(Machine(4, fast_path="vector"), g, wg) as eng:
            rows = run_jobs(eng, "sssp", [0, 0, 7])
            assert eng.machine.stats.service.cache_hits == 1
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], sssp_oracle("vector")[0])
        assert np.array_equal(rows[2], sssp_oracle("vector")[1])


class TestProcessTransport:
    """Engine jobs on real forked ranks, including live-worker reuse."""

    @pytest.mark.parametrize("mode", MODES)
    def test_sssp_and_rerun(self, mode):
        g, wg = er(weights=True)
        m = Machine(4, transport="process", fast_path=tier(mode))
        eng = GraphEngine(m, g, wg)
        try:
            rows = run_jobs(eng, "sssp", SOURCES)
            assert np.array_equal(rows, sssp_oracle(mode))
            # The rerun reuses the cached binding: the shm-backed distance
            # map is refilled in place and the live workers see it without
            # a respawn.
            pids = [p.pid for p in m.transport._procs]
            again = rerun_jobs(eng, "sssp", SOURCES)
            assert np.array_equal(again, sssp_oracle(mode))
            assert [p.pid for p in m.transport._procs] == pids
        finally:
            eng.close()
            m.shutdown()

    @pytest.mark.parametrize("mode", ("off", "vector"))
    def test_bfs(self, mode):
        g, _ = er()
        m = Machine(4, transport="process", fast_path=tier(mode))
        eng = GraphEngine(m, g)
        try:
            assert np.array_equal(run_jobs(eng, "bfs", SOURCES), bfs_oracle(mode))
        finally:
            eng.close()
            m.shutdown()


class TestUnderChaos:
    """Drops, duplicates, and reorders with reliable delivery: every
    job's fixed point must still match the fault-free oracle bit-for-bit."""

    SEEDS = tuple(range(8))

    def chaos_machine(self, mode, seed):
        chaos = ChaosConfig(seed=cell_seed(mode, seed), **CHAOS_KW)
        return Machine(4, fast_path=tier(mode), chaos=chaos, reliable=True)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sssp(self, mode, seed):
        g, wg = er(weights=True)
        m = self.chaos_machine(mode, seed)
        with GraphEngine(m, g, wg) as eng:
            rows = run_jobs(eng, "sssp", SOURCES)
        assert np.array_equal(rows, sssp_oracle(mode))
        assert m.stats.chaos.faults_injected > 0

    @pytest.mark.parametrize("mode", ("off", "vector"))
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_bfs(self, mode, seed):
        g, _ = er()
        with GraphEngine(self.chaos_machine(mode, seed), g) as eng:
            assert np.array_equal(run_jobs(eng, "bfs", SOURCES), bfs_oracle(mode))


class TestRunnerReuse:
    def test_runner_cached_per_width(self):
        """One binding per family serves every job: the registry does not
        grow after the first job of each family."""
        g, wg = er(weights=True)
        m = Machine(4, fast_path="vector")
        with GraphEngine(m, g, wg) as eng:
            run_jobs(eng, "sssp", SOURCES)
            run_jobs(eng, "bfs", SOURCES)
            size = len(m.registry)
            for k in (4, 2, 1, 3):
                rerun_jobs(eng, "sssp", SOURCES[:k])
                rerun_jobs(eng, "bfs", SOURCES[:k])
        assert len(m.registry) == size
        assert len(m.bound_patterns) == 2

    def test_refill_after_reuse_is_exact(self):
        """A second run through a cached binding starts from a refilled
        map, not stale distances from the previous run."""
        g, wg = er(weights=True)
        with GraphEngine(Machine(4, fast_path="vector"), g, wg) as eng:
            first = run_jobs(eng, "sssp", SOURCES)
            flipped = rerun_jobs(eng, "sssp", tuple(reversed(SOURCES)))
        assert np.array_equal(flipped, first[::-1])

    def test_width_mismatch_raises(self):
        g, wg = er(weights=True)
        with GraphEngine(Machine(4), g, wg) as eng:
            for bad in (g.n_vertices, -1):
                with pytest.raises(ValueError, match="out of range"):
                    eng.submit("sssp", {"source": bad})
                with pytest.raises(ValueError, match="out of range"):
                    eng.submit("bfs", {"source": bad})
            assert eng.machine.stats.service.jobs_submitted == 0

    def test_bad_family_and_width(self):
        g, wg = er(weights=True)
        with GraphEngine(Machine(4), g, wg) as eng:
            with pytest.raises(ValueError, match="integer 'source'"):
                eng.submit("sssp", {})
            with pytest.raises(ValueError, match="integer 'source'"):
                eng.submit("bfs", {"source": [0, 7]})
            with pytest.raises(ValueError, match="unknown algorithm"):
                eng.submit("apsp", {"source": 0})


class TestUnreachable:
    def test_unreachable_vertices_stay_inf(self):
        # two disjoint components: sources in one leave the other at inf
        edges = [(0, 1), (1, 2), (3, 4)]
        g, _ = build_graph(5, edges, n_ranks=2)
        with GraphEngine(Machine(2, fast_path="vector"), g) as eng:
            rows = run_jobs(eng, "bfs", [0, 3])
        assert rows[0][2] == 2.0 and math.isinf(rows[0][3])
        assert rows[1][4] == 1.0 and math.isinf(rows[1][0])
