"""Differential tests for the partitioners (docs/PARTITION.md).

Vertex placement is a performance knob, never a semantic one: every
partitioner must produce **bit-identical property maps** on every
transport, fast path, and chaos schedule tried here.  The oracle is the
block partition on the sim transport with the interpreted walk.

Dependent-vertex sets are compared only *within* a partition (across
fast paths), not across partitions — message arrival order legitimately
differs between placements, and with it which relaxations re-fire.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.bfs import bfs_pattern
from repro.algorithms.sssp import bind_sssp, dijkstra_reference
from repro.graph import PARTITIONS, build_graph, rmat, uniform_weights
from repro.patterns import bind
from repro.runtime import ChaosConfig
from repro.runtime.machine import FAST_PATHS, Machine

from ..tiers import CELLS, tier

KINDS = sorted(PARTITIONS)
MODES = list(FAST_PATHS)


def instance(partition, scale=7, edge_factor=6, seed=5, n_ranks=4):
    """A power-law instance — the graph family the skew-aware
    partitioners exist for."""
    s, t = rmat(scale, edge_factor=edge_factor, seed=seed, permute=False)
    w = uniform_weights(len(s), 1.0, 10.0, seed=seed + 1)
    g, wbg = build_graph(
        1 << scale,
        list(zip(s, t)),
        weights=w,
        n_ranks=n_ranks,
        partition=partition,
    )
    return g, wbg, s, t


def run_sssp(machine, graph, wbg, source=0, layers=None):
    bp = bind_sssp(machine, graph, wbg, layers=layers)
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[source] = 0.0
    seen: set[int] = set()
    action = bp["relax"]

    def hook(ctx, w):
        seen.add(int(w))
        action.invoke_from(ctx, w)

    action.work = hook
    with machine.epoch() as ep:
        action.invoke(ep, source)
    return dist.to_array(), seen


def run_bfs(machine, graph, layers=None):
    bp = bind(bfs_pattern(), machine, graph, layers=layers)
    depth = bp.map("depth")
    depth[0] = 0.0
    action = bp["hop"]
    with machine.epoch() as ep:
        action.invoke(ep, 0)
    return depth.to_array()


@pytest.fixture(scope="module")
def oracle():
    """Block partition, sim transport, interpreted walk + the sequential
    reference; every other cell must match the map bit-for-bit."""
    g, wbg, s, t = instance("block")
    dist, _ = run_sssp(Machine(4, fast_path="off"), g, wbg)
    w_in = np.empty(len(s))
    from collections import defaultdict

    pool = defaultdict(list)
    for gid, ss, tt in g.edges():
        pool[(ss, tt)].append(wbg[gid])
    for i, (ss, tt) in enumerate(zip(s.tolist(), t.tolist())):
        w_in[i] = pool[(ss, tt)].pop()
    ref = dijkstra_reference(g.n_vertices, s, t, w_in, 0)
    finite = np.isfinite(dist)
    assert np.allclose(dist[finite], ref[finite])
    return dist


@pytest.mark.parametrize("fast_path", CELLS)
@pytest.mark.parametrize("kind", KINDS)
def test_sssp_partitioners_sim(kind, fast_path, oracle):
    g, wbg, _, _ = instance(kind)
    m = Machine(4, fast_path=tier(fast_path))
    dist, _ = run_sssp(m, g, wbg, layers={"relax": {"coalescing": 16}})
    assert np.array_equal(oracle, dist), f"dist mismatch {kind}/{fast_path}"


@pytest.mark.parametrize("kind", KINDS)
def test_deps_invariant_across_fast_paths(kind):
    """Within one placement the dependent set is schedule-determined and
    must agree across the execution tiers.  The unfused tier must also be
    accounting-transparent (it changes *how* messages are delivered, never
    how many); the vector tier fuses rank-local edges without messages, so
    it sends fewer."""
    g, wbg, _, _ = instance(kind)
    results = {}
    for fp in MODES:
        m = Machine(4, fast_path=fp)
        dist, deps = run_sssp(m, g, wbg)
        summary = {
            k: v for k, v in m.stats.summary().items()
            if "seconds" not in k  # wall time is inherently noisy
        }
        results[fp] = (dist, deps, summary)
    dist0, deps0, summ0 = results["off"]
    for fp in MODES[1:]:
        dist, deps, summ = results[fp]
        assert np.array_equal(dist0, dist), f"{kind}: dist off vs {fp}"
        assert deps0 == deps, f"{kind}: deps off vs {fp}"
    assert results["compiled"][2] == summ0, f"{kind}: logical counters off vs compiled"
    assert results["vector"][2]["sent_total"] < summ0["sent_total"]


@pytest.mark.parametrize("kind", KINDS)
def test_sssp_partitioners_threads(kind, oracle):
    g, wbg, _, _ = instance(kind)
    m = Machine(4, transport="threads", fast_path="vector")
    try:
        dist, _ = run_sssp(m, g, wbg, layers={"relax": {"coalescing": 16}})
    finally:
        m.shutdown()
    assert np.array_equal(oracle, dist), f"dist mismatch threads/{kind}"


@pytest.mark.parametrize("kind", KINDS)
def test_sssp_partitioners_process(kind, oracle):
    g, wbg, _, _ = instance(kind)
    m = Machine(4, transport="process", fast_path="vector")
    try:
        dist, _ = run_sssp(m, g, wbg, layers={"relax": {"coalescing": 16}})
    finally:
        m.shutdown()
    assert np.array_equal(oracle, dist), f"dist mismatch process/{kind}"


@pytest.mark.parametrize("chaos_seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["degree", "grid2d"])
def test_sssp_partitioners_chaos(kind, chaos_seed, oracle):
    """Faults on the wire must be absorbed identically regardless of
    placement (reliable delivery is placement-blind)."""
    g, wbg, _, _ = instance(kind)
    m = Machine(
        4,
        fast_path="vector",
        chaos=ChaosConfig(
            seed=chaos_seed, drop=0.08, duplicate=0.10, reorder=0.08, split=0.20
        ),
        reliable=True,
    )
    dist, _ = run_sssp(m, g, wbg, layers={"relax": {"coalescing": 16}})
    assert np.array_equal(oracle, dist), f"{kind} chaos seed {chaos_seed}"
    assert m.stats.chaos.faults_injected > 0


@pytest.mark.parametrize("kind", KINDS)
def test_bfs_partitioners_sim(kind):
    g0, _, _, _ = instance("block", seed=11)
    ref = run_bfs(Machine(4), g0)
    g, _, _, _ = instance(kind, seed=11)
    depth = run_bfs(Machine(4, fast_path="vector"), g)
    assert np.array_equal(ref, depth), f"depth mismatch {kind}"


class TestMutationsOnDegreePartitions:
    """Incremental recompute over mutation batches stays bit-identical
    to from-scratch when the graph lives on a data-dependent partition
    (placements for *new* vertices come from Partition.grow)."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("partition", ["degree", "grid2d"])
    def test_sssp_bit_identical(self, partition, seed):
        from tests.harness.schedule_explorer import (
            MutationConfig,
            run_mutation_config,
        )

        cfg = MutationConfig(
            algorithm="sssp",
            fast_path="vector",
            mutation_seed=seed,
            partition=partition,
        )
        mismatches = run_mutation_config(cfg)
        assert not mismatches, f"{cfg.describe()}: {mismatches}"

    @pytest.mark.parametrize("seed", range(2))
    def test_bfs_bit_identical(self, seed):
        from tests.harness.schedule_explorer import (
            MutationConfig,
            run_mutation_config,
        )

        cfg = MutationConfig(
            algorithm="bfs",
            fast_path="compiled",
            mutation_seed=seed,
            partition="degree",
        )
        mismatches = run_mutation_config(cfg)
        assert not mismatches, f"{cfg.describe()}: {mismatches}"
