"""Partitions: owner/local-index consistency across all distributions."""

import numpy as np
import pytest

from repro.graph import (
    PARTITIONS,
    BlockPartition,
    CyclicPartition,
    DegreeAwarePartition,
    Grid2DPartition,
    HashPartition,
    make_partition,
    partition_name,
    partition_quality,
)
from repro.graph.generators import rmat
from repro.graph.partition import gini, grid_shape


@pytest.mark.parametrize("kind", sorted(PARTITIONS))
@pytest.mark.parametrize("n,p", [(1, 1), (10, 3), (17, 4), (100, 7), (5, 8)])
class TestPartitionInvariants:
    def test_every_vertex_has_exactly_one_owner_slot(self, kind, n, p):
        part = make_partition(kind, n, p)
        seen = set()
        for v in range(n):
            r = part.owner(v)
            assert 0 <= r < p
            li = part.local_index(v)
            assert 0 <= li < part.rank_size(r)
            assert part.to_global(r, li) == v
            seen.add((r, li))
        assert len(seen) == n

    def test_rank_sizes_sum_to_n(self, kind, n, p):
        part = make_partition(kind, n, p)
        assert sum(part.rank_size(r) for r in range(p)) == n

    def test_local_vertices_cover_all(self, kind, n, p):
        part = make_partition(kind, n, p)
        union = np.concatenate([part.local_vertices(r) for r in range(p)])
        assert sorted(union.tolist()) == list(range(n))

    def test_vectorized_matches_scalar(self, kind, n, p):
        part = make_partition(kind, n, p)
        vs = np.arange(n, dtype=np.int64)
        np.testing.assert_array_equal(
            part.owner_array(vs), [part.owner(v) for v in range(n)]
        )
        np.testing.assert_array_equal(
            part.local_index_array(vs), [part.local_index(v) for v in range(n)]
        )

    def test_vectorized_bounds_match_scalar(self, kind, n, p):
        """``owner_array``/``local_index_array`` reject what ``owner()``
        rejects: the columnar message path resolves whole columns at once
        and must not turn a bad vertex id into a wrapped-around index."""
        part = make_partition(kind, n, p)
        for bad in (n, -1):
            with pytest.raises(IndexError, match="out of range"):
                part.owner(bad)
            for method in (part.owner_array, part.local_index_array):
                with pytest.raises(IndexError, match="out of range"):
                    method(np.array([0, bad]))
        empty = np.empty(0, dtype=np.int64)
        assert len(part.owner_array(empty)) == 0
        assert len(part.local_index_array(empty)) == 0


class TestPartitionSpecifics:
    def test_block_is_contiguous(self):
        part = BlockPartition(10, 3)
        # 10 = 4 + 3 + 3
        assert [part.owner(v) for v in range(10)] == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_cyclic_is_round_robin(self):
        part = CyclicPartition(7, 3)
        assert [part.owner(v) for v in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_hash_is_deterministic(self):
        a = HashPartition(50, 4)
        b = HashPartition(50, 4)
        assert [a.owner(v) for v in range(50)] == [b.owner(v) for v in range(50)]

    def test_hash_spreads_contiguous_ids(self):
        part = HashPartition(1000, 4)
        owners = [part.owner(v) for v in range(1000)]
        counts = np.bincount(owners, minlength=4)
        assert counts.min() > 150  # roughly balanced

    def test_out_of_range_vertex(self):
        part = BlockPartition(5, 2)
        with pytest.raises(IndexError):
            part.owner(5)
        with pytest.raises(IndexError):
            part.owner(-1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown partition"):
            make_partition("diagonal", 10, 2)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            BlockPartition(-1, 2)
        with pytest.raises(ValueError):
            BlockPartition(10, 0)


def _powerlaw(scale=9, p=4, seed=7):
    src, trg = rmat(scale, edge_factor=8, seed=seed, permute=False)
    n = 1 << scale
    degrees = np.bincount(src, minlength=n)
    return n, src, trg, degrees


class TestDegreeAware:
    def test_balances_edge_loads_on_powerlaw(self):
        """The whole point: near-equal out-arc mass per rank where a
        block layout concentrates the hubs."""
        n, src, trg, degrees = _powerlaw()
        block = BlockPartition(n, 4)
        deg = DegreeAwarePartition(n, 4, degrees=degrees)
        q_block = partition_quality(block, src, trg)
        q_deg = partition_quality(deg, src, trg)
        assert q_deg.max_edge_share < q_block.max_edge_share
        assert q_deg.max_edge_share < 1.1  # near-perfect balance
        assert q_deg.edge_gini < q_block.edge_gini

    def test_deterministic(self):
        n, src, trg, degrees = _powerlaw()
        a = DegreeAwarePartition(n, 4, degrees=degrees)
        b = DegreeAwarePartition(n, 4, degrees=degrees)
        np.testing.assert_array_equal(
            a.owner_array(np.arange(n)), b.owner_array(np.arange(n))
        )

    def test_uniform_costs_without_degrees(self):
        """degrees=None falls back to unit costs: still a valid balanced
        vertex split."""
        part = DegreeAwarePartition(20, 4)
        counts = np.bincount(part.owner_array(np.arange(20)), minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_grow_keeps_existing_placement(self):
        n, _, _, degrees = _powerlaw(scale=7)
        part = DegreeAwarePartition(n, 4, degrees=degrees)
        before = part.owner_array(np.arange(n))
        grown = part.grow(n + 13)
        np.testing.assert_array_equal(grown.owner_array(np.arange(n)), before)
        assert grown.n_vertices == n + 13
        # new vertices all placed somewhere valid
        owners = grown.owner_array(np.arange(n, n + 13))
        assert ((owners >= 0) & (owners < 4)).all()

    def test_grow_cannot_shrink(self):
        part = DegreeAwarePartition(10, 2)
        with pytest.raises(ValueError, match="shrink"):
            part.grow(5)


class TestGrid2D:
    def test_owner_is_row_times_cols_plus_col(self):
        n, _, _, degrees = _powerlaw(scale=7)
        part = Grid2DPartition(n, 6, degrees=degrees)
        assert (part.rows, part.cols) == (2, 3)
        owners = part.owner_array(np.arange(n))
        assert ((owners >= 0) & (owners < 6)).all()

    def test_scatters_hub_neighborhood_across_columns(self):
        """Contiguous ids (a hub's neighborhood under block layouts)
        land in more than one column."""
        part = Grid2DPartition(512, 4)
        cols = part.owner_array(np.arange(64)) % part.cols
        assert len(set(cols.tolist())) > 1

    def test_grow_keeps_existing_placement(self):
        n, _, _, degrees = _powerlaw(scale=7)
        part = Grid2DPartition(n, 4, degrees=degrees)
        before = part.owner_array(np.arange(n))
        grown = part.grow(n + 9)
        np.testing.assert_array_equal(grown.owner_array(np.arange(n)), before)
        assert (grown.rows, grown.cols) == (part.rows, part.cols)

    def test_grid_shape(self):
        assert grid_shape(1) == (1, 1)
        assert grid_shape(4) == (2, 2)
        assert grid_shape(6) == (2, 3)
        assert grid_shape(7) == (1, 7)
        assert grid_shape(8) == (2, 4)
        assert grid_shape(12) == (3, 4)


class TestQualityMetrics:
    def test_gini_bounds(self):
        assert gini([5, 5, 5, 5]) == 0.0
        assert gini([]) == 0.0
        assert gini([0, 0, 0]) == 0.0
        assert 0.7 < gini([100, 0, 0, 0, 0, 0, 0, 0]) <= 1.0
        assert gini([1, 2, 3]) < gini([0, 0, 6])

    def test_edge_cut_known_placement(self):
        # 0,1 on rank 0; 2,3 on rank 1 (block over 4 vertices, 2 ranks)
        part = BlockPartition(4, 2)
        src = np.array([0, 0, 2, 2])
        trg = np.array([1, 2, 3, 0])  # local, cut, local, cut
        q = partition_quality(part, src, trg)
        assert q.edge_cut == 0.5
        assert q.edges_by_rank == [2, 2]

    def test_replication_counts_mirrors(self):
        """A vertex targeted by arcs stored on a remote rank is seen by
        both ranks: replication > 1."""
        part = BlockPartition(4, 2)
        src = np.array([0, 2])
        trg = np.array([2, 0])  # both arcs cut
        q = partition_quality(part, src, trg)
        assert q.replication > 1.0

    def test_empty_edge_list(self):
        q = partition_quality(BlockPartition(4, 2), np.array([]), np.array([]))
        assert q.edge_cut == 0.0
        assert q.n_edges == 0

    def test_partition_name_roundtrip(self):
        for kind in PARTITIONS:
            part = make_partition(kind, 16, 4)
            assert partition_name(part) == kind

    def test_quality_as_dict_json_safe(self):
        import json

        n, src, trg, degrees = _powerlaw(scale=7)
        part = DegreeAwarePartition(n, 4, degrees=degrees)
        q = partition_quality(part, src, trg, kind="degree")
        json.dumps(q.as_dict())  # must not raise
