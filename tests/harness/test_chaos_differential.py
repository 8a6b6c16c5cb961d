"""Chaos differential tests: algorithms under faults == fault-free oracle.

SSSP, BFS, CC (label propagation), and PageRank are each run under a
``ChaosTransport`` injecting drops, duplicates, and reorders, with the
reliable-delivery layer restoring exactly-once semantics.  The resulting
property maps must be **bit-identical** (``np.array_equal``, not merely
close) to a fault-free run on the interpreted ``off`` oracle, across every
cell of the tier axis (:mod:`tests.tiers`) and 25+ chaos seeds.

PageRank is the sharpest check here: its ``acc += contrib`` accumulation
is not idempotent, so a single duplicated or lost message shifts every
subsequent rank vector.  The monotone min-update algorithms (SSSP, BFS,
CC) instead stress retry/ack interleavings with termination detection.

Because reorder/delay faults legitimately permute handler invocation
order, the PageRank instance is built over *dyadic rationals*: every
out-degree is a power of two and damping is 0.5, so every intermediate
value is exactly representable and float addition incurs no rounding.
That makes the accumulation associative — any divergence from the oracle
is then a genuine lost/duplicated message, never an ULP artifact.
"""

from __future__ import annotations

import random

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
from repro.runtime import ChaosConfig

from ..tiers import CELLS, FUSED, cell_seed, tier

MODES = CELLS
SEEDS = tuple(range(25))  # >= 25 chaos seeds (acceptance floor)

CHAOS_KW = dict(drop=0.12, duplicate=0.10, reorder=0.10, reorder_window=4)


def chaos_machine(seed: int, mode: str) -> Machine:
    return Machine(
        4,
        fast_path=tier(mode),
        chaos=ChaosConfig(seed=cell_seed(mode, seed), **CHAOS_KW),
        reliable=True,
    )


def er(n=36, m=110, seed=0, weights=False, undirected=False):
    s, t = erdos_renyi(n, m, seed=seed)
    edges = list(zip(s, t))
    if undirected:
        edges = edges + [(b, a) for a, b in edges]
    w = None
    if weights:
        w = uniform_weights(len(edges), 1, 10, seed=seed + 1)
    return build_graph(n, edges, weights=w, n_ranks=4, partition="cyclic")


# Oracles run on the ``off`` tier, once per algorithm, shared by every cell.
_oracle_cache: dict = {}


def oracle(key, builder):
    if key not in _oracle_cache:
        _oracle_cache[key] = builder()
    return _oracle_cache[key]


class TestSSSPUnderChaos:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, mode, seed):
        g, wg = er(weights=True)
        ref = oracle(
            "sssp", lambda: sssp_fixed_point(Machine(4, fast_path="off"), g, wg, 0)
        )
        got = sssp_fixed_point(chaos_machine(seed, mode), g, wg, 0)
        assert np.array_equal(ref, got)


class TestBFSUnderChaos:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, mode, seed):
        g, _ = er()
        ref = oracle("bfs", lambda: bfs_fixed_point(Machine(4, fast_path="off"), g, 0))
        got = bfs_fixed_point(chaos_machine(seed, mode), g, 0)
        assert np.array_equal(ref, got)


class TestCCUnderChaos:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, mode, seed):
        g, _ = er(n=30, m=45, undirected=True)
        ref = oracle("cc", lambda: cc_label_propagation(Machine(4, fast_path="off"), g))
        got = cc_label_propagation(chaos_machine(seed, mode), g)
        assert np.array_equal(ref, got)


def dyadic_graph(n=16, seed=9):
    """Graph whose out-degrees are all powers of two.  With damping=0.5
    every PageRank intermediate is an exact dyadic rational, so the
    accumulation is associative and reordering cannot shift a single bit."""
    rng = random.Random(seed)
    edges = []
    for v in range(n):
        deg = rng.choice((1, 2, 4, 8))
        edges += [(v, u) for u in rng.sample([u for u in range(n) if u != v], deg)]
    g, _ = build_graph(n, edges, n_ranks=4, partition="cyclic")
    return g


def pagerank_off(g):
    return pagerank(Machine(4, fast_path="off"), g, damping=0.5, iterations=10, tol=None)


class TestPageRankUnderChaos:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, mode, seed):
        g = dyadic_graph()
        ref = oracle("pr", lambda: pagerank_off(g))
        got = pagerank(
            chaos_machine(seed, mode), g, damping=0.5, iterations=10, tol=None
        )
        assert np.array_equal(ref, got)


class TestProcessTransportUnderChaos:
    """The same differential oracle, but with chaos injected inside real
    worker *processes*: faults fire on the binary wire between forked
    ranks (and on the parent's driver sends), retransmissions cross the
    codec, and the merged worker-side chaos counters prove the faults
    actually happened.  Maps must still be bit-identical to the
    fault-free deterministic sim run.
    """

    PROC_SEEDS = SEEDS[:5]  # >= 5 seeds (acceptance floor for process)

    def proc_chaos_machine(self, seed: int, mode: str) -> Machine:
        return Machine(
            4,
            transport="process",
            fast_path=tier(mode),
            chaos=ChaosConfig(seed=cell_seed(mode, seed), **CHAOS_KW),
            reliable=True,
        )

    @pytest.mark.parametrize("mode", ("off", "vector", FUSED))
    @pytest.mark.parametrize("seed", PROC_SEEDS)
    def test_sssp_bit_identical(self, mode, seed):
        g, wg = er(weights=True)
        ref = oracle(
            "sssp", lambda: sssp_fixed_point(Machine(4, fast_path="off"), g, wg, 0)
        )
        m = self.proc_chaos_machine(seed, mode)
        try:
            got = sssp_fixed_point(m, g, wg, 0)
            faults = m.stats.chaos.faults_injected
        finally:
            m.shutdown()
        assert np.array_equal(ref, got)
        assert faults > 0, "no faults observed in worker processes"

    @pytest.mark.parametrize("seed", PROC_SEEDS)
    def test_pagerank_bit_identical(self, seed):
        """Non-idempotent accumulation across forked ranks: a single lost
        or duplicated frame on the binary wire shifts the rank vector."""
        g = dyadic_graph()
        ref = oracle("pr", lambda: pagerank_off(g))
        m = self.proc_chaos_machine(seed, "vector")
        try:
            got = pagerank(m, g, damping=0.5, iterations=10, tol=None)
            faults = m.stats.chaos.faults_injected
        finally:
            m.shutdown()
        assert np.array_equal(ref, got)
        assert faults > 0


class TestFaultsWereInjected:
    """Guard against a silently inert chaos layer: at least one seed must
    actually exercise every configured fault kind."""

    @pytest.mark.parametrize("mode", MODES)
    def test_fault_mix_observed(self, mode):
        totals = {"dropped": 0, "duplicated": 0, "reordered": 0, "retries": 0}
        for seed in SEEDS[:5]:
            g, wg = er(weights=True)
            m = chaos_machine(seed, mode)
            sssp_fixed_point(m, g, wg, 0)
            c = m.stats.chaos
            totals["dropped"] += c.dropped
            totals["duplicated"] += c.duplicated
            totals["reordered"] += c.reordered
            totals["retries"] += c.retries
        for field, total in totals.items():
            assert total > 0, f"no {field} observed across 5 chaos seeds"
