"""Differential tests for multi-source fused SSSP/BFS.

The fused K-wide runners must be **bit-identical** (``np.array_equal``,
never merely close) to K independent single-source runs of the existing
fixed-point strategies, across every transport x fast-path combination
and under chaos schedules with reliable delivery.  This is the service
layer's correctness backbone: the batching scheduler may freely fuse
concurrent queries only because fusion is provably invisible.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Machine
from repro.algorithms import bfs_fixed_point, sssp_fixed_point
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.runtime import ChaosConfig
from repro.strategies import MultiSourceRunner, bfs_multi, sssp_multi

from ..tiers import CELLS, cell_seed, tier

MODES = CELLS
SOURCES = (0, 7, 19, 33)

CHAOS_KW = dict(drop=0.12, duplicate=0.10, reorder=0.10, reorder_window=4)


def er(n=36, m=110, seed=0, weights=False):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1, 10, seed=seed + 1) if weights else None
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=4, partition="cyclic")


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
    """One fused run == K independent runs, on sim and threads."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("transport", ("sim", "threads"))
    def test_sssp(self, transport, mode):
        g, wg = er(weights=True)
        rows = sssp_multi(
            Machine(4, transport=transport, fast_path=tier(mode)), g, wg, SOURCES
        )
        assert rows.shape == (len(SOURCES), g.n_vertices)
        assert np.array_equal(rows, sssp_oracle(mode))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("transport", ("sim", "threads"))
    def test_bfs(self, transport, mode):
        g, _ = er()
        m = Machine(4, transport=transport, fast_path=tier(mode))
        rows = bfs_multi(m, g, SOURCES)
        assert np.array_equal(rows, bfs_oracle(mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_sssp_with_coalescing(self, mode):
        g, wg = er(weights=True)
        m = Machine(4, fast_path=tier(mode))
        rows = sssp_multi(m, g, wg, SOURCES, coalescing=64)
        assert np.array_equal(rows, sssp_oracle(mode))

    def test_k1_degenerates_to_single_source(self):
        g, wg = er(weights=True)
        rows = sssp_multi(Machine(4, fast_path="vector"), g, wg, [SOURCES[1]])
        assert rows.shape == (1, g.n_vertices)
        assert np.array_equal(rows[0], sssp_oracle("vector")[1])

    def test_duplicate_sources_share_columns(self):
        g, wg = er(weights=True)
        rows = sssp_multi(Machine(4, fast_path="vector"), g, wg, [0, 0, 7])
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], sssp_oracle("vector")[0])
        assert np.array_equal(rows[2], sssp_oracle("vector")[1])


class TestProcessTransport:
    """Fused runs on real forked ranks, including live-worker reuse."""

    @pytest.mark.parametrize("mode", MODES)
    def test_sssp_and_rerun(self, mode):
        g, wg = er(weights=True)
        m = Machine(4, transport="process", fast_path=tier(mode))
        try:
            rows = sssp_multi(m, g, wg, SOURCES)
            assert np.array_equal(rows, sssp_oracle(mode))
            # Second run reuses the registered runner: same graph version,
            # so the shm-backed distance map is refilled in place and the
            # live workers see it without a respawn.
            again = sssp_multi(m, g, wg, SOURCES)
            assert np.array_equal(again, sssp_oracle(mode))
        finally:
            m.shutdown()

    @pytest.mark.parametrize("mode", ("off", "vector"))
    def test_bfs(self, mode):
        g, _ = er()
        m = Machine(4, transport="process", fast_path=tier(mode))
        try:
            assert np.array_equal(bfs_multi(m, g, SOURCES), bfs_oracle(mode))
        finally:
            m.shutdown()


class TestUnderChaos:
    """Drops, duplicates, and reorders with reliable delivery: the fused
    fixed point must still match the fault-free oracle bit-for-bit."""

    SEEDS = tuple(range(8))

    def chaos_machine(self, mode, seed):
        chaos = ChaosConfig(seed=cell_seed(mode, seed), **CHAOS_KW)
        return Machine(4, fast_path=tier(mode), chaos=chaos, reliable=True)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sssp(self, mode, seed):
        g, wg = er(weights=True)
        m = self.chaos_machine(mode, seed)
        rows = sssp_multi(m, g, wg, SOURCES)
        assert np.array_equal(rows, sssp_oracle(mode))
        assert m.stats.chaos.faults_injected > 0

    @pytest.mark.parametrize("mode", ("off", "vector"))
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_bfs(self, mode, seed):
        g, _ = er()
        m = self.chaos_machine(mode, seed)
        assert np.array_equal(bfs_multi(m, g, SOURCES), bfs_oracle(mode))


class TestRunnerReuse:
    def test_runner_cached_per_width(self):
        g, wg = er(weights=True)
        m = Machine(4, fast_path="vector")
        sssp_multi(m, g, wg, SOURCES)
        sssp_multi(m, g, wg, SOURCES)  # same width: reuse
        sssp_multi(m, g, wg, SOURCES[:2])  # new width: one more runner
        cache = m._multi_source_runners
        assert set(cache) == {("sssp", 4, None), ("sssp", 2, None)}
        # the 4-wide message type registered exactly once
        names = [r.name for r in cache.values()]
        assert len(names) == len(set(names))

    def test_refill_after_reuse_is_exact(self):
        """A second run through a cached runner starts from a refilled
        map, not stale distances from the previous run."""
        g, wg = er(weights=True)
        m = Machine(4, fast_path="vector")
        first = sssp_multi(m, g, wg, SOURCES)
        flipped = sssp_multi(m, g, wg, tuple(reversed(SOURCES)))
        assert np.array_equal(flipped, first[::-1])

    def test_width_mismatch_raises(self):
        g, wg = er(weights=True)
        m = Machine(4)
        runner = MultiSourceRunner(m, "sssp", 3)
        with pytest.raises(ValueError, match="3-wide"):
            runner.run(g, wg, [0, 1])

    def test_bad_family_and_width(self):
        m = Machine(2)
        with pytest.raises(ValueError, match="family"):
            MultiSourceRunner(m, "pagerank", 2)
        with pytest.raises(ValueError, match=">= 1"):
            MultiSourceRunner(m, "sssp", 0)


class TestUnreachable:
    def test_unreachable_vertices_stay_inf(self):
        # two disjoint components: sources in one leave the other at inf
        edges = [(0, 1), (1, 2), (3, 4)]
        g, _ = build_graph(5, edges, n_ranks=2)
        rows = bfs_multi(Machine(2, fast_path="vector"), g, [0, 3])
        assert rows[0][2] == 2.0 and math.isinf(rows[0][3])
        assert rows[1][4] == 1.0 and math.isinf(rows[1][0])
