"""Differential tests for multi-source SSSP/BFS.

The ``(K, n)`` rows of ``sssp_multi``/``bfs_multi`` must be
**bit-identical** (``np.array_equal``, never merely close) to K
independent single-source runs of the fixed-point strategies, across
every transport x fast-path combination and under chaos schedules with
reliable delivery, while reusing one binding per machine.  This is the
service layer's correctness backbone: the batching scheduler groups
concurrent queries only because grouping is invisible in the results.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Machine
from repro.algorithms import bfs_fixed_point, sssp_fixed_point
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.runtime import ChaosConfig
from repro.strategies import bfs_multi, sssp_multi

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
    """One multi-source call == K independent runs, on sim and threads."""

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
    """Multi-source runs on real forked ranks, including live-worker reuse."""

    @pytest.mark.parametrize("mode", MODES)
    def test_sssp_and_rerun(self, mode):
        g, wg = er(weights=True)
        m = Machine(4, transport="process", fast_path=tier(mode))
        try:
            rows = sssp_multi(m, g, wg, SOURCES)
            assert np.array_equal(rows, sssp_oracle(mode))
            # Second call reuses the cached binding: the shm-backed
            # distance map is refilled in place and the live workers see
            # it without a respawn.
            pids = [p.pid for p in m.transport._procs]
            again = sssp_multi(m, g, wg, SOURCES)
            assert np.array_equal(again, sssp_oracle(mode))
            assert [p.pid for p in m.transport._procs] == pids
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
    """Drops, duplicates, and reorders with reliable delivery: every
    row's fixed point must still match the fault-free oracle bit-for-bit."""

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
        """One binding per family serves every width: the registry does
        not grow after the first call."""
        g, wg = er(weights=True)
        m = Machine(4, fast_path="vector")
        sssp_multi(m, g, wg, SOURCES)
        bfs_multi(m, g, SOURCES)
        size = len(m.registry)
        for k in (4, 2, 1, 3):
            sssp_multi(m, g, wg, SOURCES[:k])
            bfs_multi(m, g, SOURCES[:k])
        assert len(m.registry) == size
        assert len(m.bound_patterns) == 2

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
        for bad in (g.n_vertices, -1):
            with pytest.raises(ValueError, match="out of range"):
                sssp_multi(m, g, wg, [0, bad])
            with pytest.raises(ValueError, match="out of range"):
                bfs_multi(m, g, [bad])

    def test_bad_family_and_width(self):
        g, wg = er(weights=True)
        m = Machine(2)
        with pytest.raises(ValueError, match="at least one source"):
            sssp_multi(m, g, wg, [])
        with pytest.raises(ValueError, match="at least one source"):
            bfs_multi(m, g, ())


class TestUnreachable:
    def test_unreachable_vertices_stay_inf(self):
        # two disjoint components: sources in one leave the other at inf
        edges = [(0, 1), (1, 2), (3, 4)]
        g, _ = build_graph(5, edges, n_ranks=2)
        rows = bfs_multi(Machine(2, fast_path="vector"), g, [0, 3])
        assert rows[0][2] == 2.0 and math.isinf(rows[0][3])
        assert rows[1][4] == 1.0 and math.isinf(rows[1][0])
