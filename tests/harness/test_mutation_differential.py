"""Mutation differential tests: incremental recompute == from-scratch.

Each test applies a seeded random :class:`MutationBatch` (edge deletes,
inserts, weight updates, vertex additions — degree-preserving swaps for
PageRank) to a graph whose algorithm has already reached its fixed point,
runs the matching ``*_delta_restart`` strategy, and asserts the result is
**bit-identical** (``np.array_equal``) to a from-scratch run of the same
algorithm on the (same, now mutated) graph.

Grid: 25 mutation seeds × 4 tier cells (:mod:`tests.tiers`) per algorithm
on the sim transport (the graph seed also varies per cell, so each algorithm
sees 100 distinct seeded batches), plus threads-transport, chaos-adversary,
and process-transport subsets.  The sweep machinery lives in
:mod:`tests.harness.schedule_explorer` (CLI: ``--mutations``) so CI can
rotate the seed and ddmin-shrink failing op lists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Machine
from repro.algorithms.bfs import bfs_fixed_point, bfs_pattern, bfs_reference
from repro.algorithms.cc import cc_label_propagation
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import bind_sssp, dijkstra_on_graph, sssp_fixed_point
from repro.graph import MutationBatch, build_graph
from repro.patterns import bind
from repro.props.property_map import weight_map_from_array
from repro.strategies import (
    IncrementalPageRank,
    bfs_delta_restart,
    fixed_point,
    sssp_delta_restart,
)

from ..tiers import CELLS, tier
from .schedule_explorer import (
    MUTATION_ALGOS,
    MutationConfig,
    MutationShrinker,
    _ddmin,
    random_mutation_ops,
    run_mutation_config,
    sweep_mutations,
)

MODES = CELLS
SEEDS = tuple(range(25))  # 25 seeds x 4 cells = 100 batches per algorithm


def config(algorithm: str, mode: str, seed: int, **kw) -> MutationConfig:
    # vary the graph per mode too: every (mode, seed) cell is a distinct
    # seeded (graph, batch) combination
    return MutationConfig(
        algorithm=algorithm,
        fast_path=tier(mode),
        mutation_seed=seed,
        graph_seed=3 + MODES.index(mode),
        **kw,
    )


class TestSSSPMutationDifferential:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, mode, seed):
        assert run_mutation_config(config("sssp", mode, seed)) == []


class TestBFSMutationDifferential:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, mode, seed):
        assert run_mutation_config(config("bfs", mode, seed)) == []


class TestCCMutationDifferential:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, mode, seed):
        assert run_mutation_config(config("cc", mode, seed)) == []


class TestPageRankMutationDifferential:
    """Degree-preserving swaps on a dyadic graph: the incremental replay
    must match the from-scratch power iteration bit-for-bit (exact
    arithmetic; any divergence is a real patching bug, never an ULP)."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, mode, seed):
        assert run_mutation_config(config("pagerank", mode, seed)) == []


class TestThreadsTransport:
    """Same differential, with the incremental side on real threads."""

    @pytest.mark.parametrize("algorithm", MUTATION_ALGOS)
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_bit_identical(self, algorithm, seed):
        cfg = MutationConfig(
            algorithm=algorithm,
            fast_path="vector",
            transport="threads",
            mutation_seed=seed,
        )
        assert run_mutation_config(cfg) == []


class TestUnderChaos:
    """The incremental run rides a chaos adversary (drops, duplicates,
    reorders + reliable delivery); the from-scratch oracle is fault-free.
    Delta-restart must be exactly as fault-independent as a full run."""

    @pytest.mark.parametrize("algorithm", MUTATION_ALGOS)
    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_bit_identical(self, algorithm, seed):
        cfg = MutationConfig(
            algorithm=algorithm,
            fast_path="compiled",
            mutation_seed=seed,
            chaos_seed=seed,
        )
        assert run_mutation_config(cfg) == []


class TestProcessTransport:
    """Mutations against forked worker processes: apply_mutations must
    stop the workers, release the shared-memory property maps, and the
    delta-restart's epochs must respawn them against the patched graph."""

    @pytest.mark.parametrize("algorithm", ("sssp", "pagerank"))
    def test_bit_identical(self, algorithm):
        cfg = MutationConfig(
            algorithm=algorithm,
            fast_path="vector",
            transport="process",
            mutation_seed=0,
        )
        assert run_mutation_config(cfg) == []


class TestConnectedVertexGrowth:
    """The random sweep only adds isolated vertices (so shrunk op subsets
    stay valid); these tests wire new vertices into the graph in the same
    batch and check the incremental result against an oracle."""

    def test_bfs_reaches_new_vertices(self):
        g, _ = build_graph(
            20, [(i, i + 1) for i in range(19)], n_ranks=4, partition="cyclic"
        )
        m = Machine(4)
        m.attach_graph(g)
        bp = bind(bfs_pattern(), m, g)
        bp.map("depth")[0] = 0.0
        fixed_point(m, bp["hop"], [0])
        batch = MutationBatch()
        batch.add_vertices(3)
        batch.insert_edge(0, 20)   # reachable at depth 1
        batch.insert_edge(20, 21)  # ... and 2
        batch.delete_edge(4, 5)    # disconnect the old tail
        delta = m.apply_mutations(batch)
        rep = bfs_delta_restart(m, bp, delta, 0)
        s, t = g.edge_arrays()
        assert np.array_equal(rep.values, bfs_reference(g.n_vertices, s, t, 0))
        assert rep.values[20] == 1.0 and rep.values[21] == 2.0
        assert np.isinf(rep.values[22])  # vertex 22 stayed isolated
        assert np.isinf(rep.values[5])  # tail cut off

    def test_sssp_through_new_vertex(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        weights = np.array([2.0, 2.0, 2.0, 10.0])
        g, wbg = build_graph(4, edges, weights=weights, n_ranks=4, partition="cyclic")
        wm = weight_map_from_array(g, wbg)
        m = Machine(4)
        m.attach_graph(g)
        bp = bind_sssp(m, g, wm)
        sssp_fixed_point(m, g, wm, 0, bound=bp)
        batch = MutationBatch()
        batch.add_vertices(1)
        batch.insert_edge(0, 4, weight=1.0)  # new shortcut 0 -> 4 -> 3
        batch.insert_edge(4, 3, weight=1.0)
        batch.delete_edge(1, 2)
        delta = m.apply_mutations(batch, weight_map=wm)
        rep = sssp_delta_restart(m, bp, delta, 0)
        assert np.array_equal(rep.values, dijkstra_on_graph(g, wm.to_array(), 0))
        assert rep.values[3] == 2.0 and rep.values[4] == 1.0
        assert np.isinf(rep.values[2])

    def test_pagerank_vertex_growth_falls_back(self):
        # doubling n keeps 1/n dyadic, so even the full-restart fallback
        # is bit-comparable against the from-scratch oracle
        edges = [(v, (v + 1) % 16) for v in range(16)]
        g, _ = build_graph(16, edges, n_ranks=4, partition="cyclic")
        m = Machine(4)
        m.attach_graph(g)
        ipr = IncrementalPageRank(m, g, damping=0.5, iterations=8)
        ipr.run()
        batch = MutationBatch()
        batch.add_vertices(16)
        for i in range(16):
            batch.insert_edge(16 + i, i)
        delta = m.apply_mutations(batch)
        rep = ipr.recompute(delta)
        assert rep.full_restart
        m2 = Machine(4)
        ref = pagerank(m2, g, damping=0.5, iterations=8, tol=None)
        assert np.array_equal(rep.values, ref)

    def test_cc_merge_and_split(self):
        # two components; delete the bridge inside one, insert a new one
        edges = [(0, 1), (1, 2), (3, 4)]
        g, _ = build_graph(5, edges, directed=False, n_ranks=4, partition="cyclic")
        m = Machine(4)
        m.attach_graph(g)
        comp = cc_label_propagation(m, g)
        assert comp.tolist() == [0, 0, 0, 3, 3]
        from repro.algorithms.cc import cc_label_pattern
        from repro.strategies import cc_delta_restart

        m2 = Machine(4)
        g2, _ = build_graph(5, edges, directed=False, n_ranks=4, partition="cyclic")
        m2.attach_graph(g2)
        bp = bind(cc_label_pattern(), m2, g2)
        cmap = bp.map("comp")
        for v in g2.vertices():
            cmap[v] = v
        fixed_point(m2, bp["spread"], list(g2.vertices()))
        batch = MutationBatch(undirected=True)
        batch.delete_edge(1, 2)  # split {0,1,2} -> {0,1}, {2}
        batch.insert_edge(2, 3)  # merge {2} into {3,4}
        delta = m2.apply_mutations(batch)
        rep = cc_delta_restart(m2, bp, delta)
        assert rep.values.tolist() == [0, 0, 2, 2, 2]


class TestShrinker:
    def test_ddmin_isolates_culprit(self):
        culprit = ("delete", 1, 2)
        ops = (
            ("insert", 0, 1),
            culprit,
            ("grow", 2),
            ("update", 3, 4, 5.0),
            ("delete", 7, 8),
        )
        assert _ddmin(ops, lambda subset: culprit in subset) == (culprit,)

    def test_refuses_passing_ops(self):
        cfg = MutationConfig(algorithm="bfs", mutation_seed=0)
        shrinker = MutationShrinker(cfg)
        with pytest.raises(ValueError):
            shrinker.shrink(random_mutation_ops(cfg))
        assert shrinker.tests_run == 1


class TestSweepPlumbing:
    def test_sweep_covers_grid(self):
        cfgs = sweep_mutations(mutation_seeds=(0, 1), fast_paths=("off", "vector"))
        assert len(cfgs) == len(MUTATION_ALGOS) * 2 * 2
        assert len(set(cfgs)) == len(cfgs)

    def test_ops_are_deterministic(self):
        cfg = MutationConfig(algorithm="sssp", mutation_seed=11)
        assert random_mutation_ops(cfg) == random_mutation_ops(cfg)
