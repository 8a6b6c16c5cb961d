"""The columnar graph build against a per-edge reference builder.

``RefBuilder`` below is the per-edge construction the bulk path replaced:
one ``add_edge`` call per arc, each rank's global sources rebuilt with one
``Partition.to_global`` call per arc, and the in-adjacency of bidirectional
storage collected arc by arc from the per-arc ``(gid, src, trg)`` walk.  The
hypothesis gate requires every ``LocalCSR`` array, ``gid_of_input`` and the
weights to come out equal, dtype included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cc import _is_symmetric
from repro.graph import GraphBuilder, build_graph, from_edges
from repro.graph.csr import LocalCSR
from repro.graph.distributed import DistributedGraph
from repro.graph.partition import PARTITIONS, make_partition


class RefBuilder:
    """Per-edge reference: validates, filters and stores one arc at a time."""

    def __init__(self, n, *, directed=True, allow_self_loops=True, deduplicate=False):
        self.n_vertices = n
        self.directed = directed
        self.allow_self_loops = allow_self_loops
        self.deduplicate = deduplicate
        self._src, self._trg, self._weights = [], [], []
        self._has_weights = None

    def add_edge(self, u, v, weight=None):
        if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
            raise ValueError(f"edge ({u}, {v}) out of range [0, {self.n_vertices})")
        if u == v and not self.allow_self_loops:
            return self
        if self._has_weights is None:
            self._has_weights = weight is not None
        elif self._has_weights != (weight is not None):
            raise ValueError("either all edges have weights or none do")
        self._src.append(u)
        self._trg.append(v)
        if weight is not None:
            self._weights.append(float(weight))
        return self

    def add_edges(self, edges, weights=None):
        if weights is None:
            for u, v in edges:
                self.add_edge(int(u), int(v))
        else:
            for (u, v), w in zip(edges, weights):
                self.add_edge(int(u), int(v), float(w))
        return self

    def columns(self):
        """(src, trg, weights) after undirected closure and deduplication."""
        src = np.asarray(self._src, dtype=np.int64)
        trg = np.asarray(self._trg, dtype=np.int64)
        w = np.asarray(self._weights, dtype=np.float64) if self._has_weights else None
        if not self.directed:
            non_loop = src != trg
            src, trg, w = (
                np.concatenate([src, trg[non_loop]]),
                np.concatenate([trg, src[non_loop]]),
                np.concatenate([w, w[non_loop]]) if w is not None else None,
            )
        if self.deduplicate and len(src):
            key = src * np.int64(self.n_vertices) + trg
            _, keep = np.unique(key, return_index=True)
            keep.sort()
            src, trg = src[keep], trg[keep]
            if w is not None:
                w = w[keep]
        return src, trg, w

    def build(self, *, n_ranks, partition, bidirectional):
        src, trg, w = self.columns()
        graph, gid_of_input = ref_from_edges(
            self.n_vertices, src, trg, n_ranks, partition, bidirectional
        )
        if w is None:
            return graph, gid_of_input, None
        weight_by_gid = np.empty(graph.n_edges, dtype=np.float64)
        weight_by_gid[gid_of_input] = w
        return graph, gid_of_input, weight_by_gid


def ref_from_edges(n, src, trg, n_ranks, partition, bidirectional):
    cls = PARTITIONS[partition]
    degrees = np.bincount(src, minlength=n) if cls.data_dependent else None
    part = make_partition(partition, n, n_ranks, degrees)
    owners = part.owner_array(src)
    local_src_all = part.local_index_array(src)
    locals_ = []
    edge_offsets = np.zeros(part.n_ranks + 1, dtype=np.int64)
    gid_of_input = np.empty(len(src), dtype=np.int64)
    offset = 0
    for rank in range(part.n_ranks):
        mine = np.flatnonzero(owners == rank)
        n_local = part.rank_size(rank)
        order = np.argsort(local_src_all[mine], kind="stable")
        sorted_local_src = local_src_all[mine][order]
        indptr = np.zeros(n_local + 1, dtype=np.int64)
        np.cumsum(np.bincount(sorted_local_src, minlength=n_local), out=indptr[1:])
        gid_of_input[mine[order]] = offset + np.arange(len(mine))
        global_sources = np.array(
            [part.to_global(rank, int(ls)) for ls in sorted_local_src], dtype=np.int64
        )
        locals_.append(
            LocalCSR(n_local, indptr, trg[mine][order], global_sources, offset)
        )
        offset += len(mine)
        edge_offsets[rank + 1] = offset
    graph = DistributedGraph(part, locals_, edge_offsets)
    if bidirectional:
        ref_add_in_edges(graph)
    return graph, gid_of_input


def ref_arcs(graph):
    """The per-arc (gid, src, trg) walk."""
    for rank, csr in enumerate(graph.locals):
        base = int(graph.edge_offsets[rank])
        for i in range(csr.n_edges):
            s, t = csr.arc_by_local_eid(i)
            yield base + i, s, t


def ref_add_in_edges(graph):
    part = graph.partition
    buckets = [[] for _ in range(graph.n_ranks)]
    for gid, s, t in ref_arcs(graph):
        buckets[part.owner(t)].append((part.local_index(t), s, gid))
    for rank, items in enumerate(buckets):
        csr = graph.locals[rank]
        n_local = csr.n_local
        if items:
            arr = np.array(items, dtype=np.int64)
            arr = arr[np.argsort(arr[:, 0], kind="stable")]
            counts = np.bincount(arr[:, 0], minlength=n_local)
            in_indptr = np.zeros(n_local + 1, dtype=np.int64)
            np.cumsum(counts, out=in_indptr[1:])
            csr.in_indptr = in_indptr
            csr.in_sources = arr[:, 1].copy()
            csr.in_edge_gids = arr[:, 2].copy()
        else:
            csr.in_indptr = np.zeros(n_local + 1, dtype=np.int64)
            csr.in_sources = np.empty(0, dtype=np.int64)
            csr.in_edge_gids = np.empty(0, dtype=np.int64)


CSR_ARRAYS = (
    "indptr",
    "targets",
    "local_sources",
    "in_indptr",
    "in_sources",
    "in_edge_gids",
)


def assert_same_array(a, b, what):
    if a is None or b is None:
        assert a is None and b is None, what
        return
    assert a.dtype == b.dtype, what
    assert (a.shape, a.strides) == (b.shape, b.strides), what
    assert np.array_equal(a, b), what


def assert_same_graph(got, ref):
    assert got.n_ranks == ref.n_ranks
    assert np.array_equal(got.edge_offsets, ref.edge_offsets)
    for rank, (a, b) in enumerate(zip(got.locals, ref.locals)):
        assert a.n_local == b.n_local
        assert a.edge_offset == b.edge_offset
        for name in CSR_ARRAYS:
            assert_same_array(getattr(a, name), getattr(b, name), (rank, name))


@st.composite
def build_cases(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 60))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))
    weighted = draw(st.booleans())
    weights = (
        draw(st.lists(st.floats(0.0, 100.0), min_size=m, max_size=m))
        if weighted
        else None
    )
    # Split the batch into chunks fed through different input forms.
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=3)))
    bounds = [0, *cuts, m]
    forms = draw(
        st.lists(
            st.sampled_from(["list", "zip", "ndarray", "add_edge"]),
            min_size=len(bounds) - 1,
            max_size=len(bounds) - 1,
        )
    )
    return dict(
        n=n,
        edges=edges,
        weights=weights,
        chunks=list(zip(bounds, bounds[1:], forms)),
        directed=draw(st.booleans()),
        allow_self_loops=draw(st.booleans()),
        deduplicate=draw(st.booleans()),
        bidirectional=draw(st.booleans()),
        partition=draw(st.sampled_from(sorted(PARTITIONS))),
        n_ranks=draw(st.integers(1, 4)),
    )


def feed(builder, case):
    edges, weights = case["edges"], case["weights"]
    for lo, hi, form in case["chunks"]:
        part = edges[lo:hi]
        w = None if weights is None else weights[lo:hi]
        if form == "add_edge":
            for i, (u, v) in enumerate(part):
                builder.add_edge(u, v, None if w is None else w[i])
        elif form == "list":
            builder.add_edges(part, w)
        elif form == "zip":
            us, vs = [e[0] for e in part], [e[1] for e in part]
            builder.add_edges(zip(us, vs), None if w is None else np.asarray(w))
        else:
            builder.add_edges(np.array(part, dtype=np.int64).reshape(-1, 2), w)


@given(case=build_cases())
@settings(max_examples=300, deadline=None)
def test_columnar_build_matches_per_edge_reference(case):
    opts = dict(
        directed=case["directed"],
        allow_self_loops=case["allow_self_loops"],
        deduplicate=case["deduplicate"],
    )
    build_opts = dict(
        n_ranks=case["n_ranks"],
        partition=case["partition"],
        bidirectional=case["bidirectional"],
    )
    ref = RefBuilder(case["n"], **opts)
    feed(ref, case)
    ref_graph, ref_gids, ref_w = ref.build(**build_opts)

    got = GraphBuilder(case["n"], **opts)
    feed(got, case)
    assert got.n_pending_edges == len(ref._src)
    graph, w = got.build(**build_opts)

    assert_same_graph(graph, ref_graph)
    assert_same_array(w, ref_w, "weights")
    src, trg, _ = ref.columns()
    _, gids = from_edges(case["n"], src, trg, **build_opts)
    assert_same_array(gids, ref_gids, "gid_of_input")
    # The per-arc walk stays public and yields the reference's tuples.
    assert list(graph.edges()) == list(ref_arcs(ref_graph))


# -- errors, atomicity and order ------------------------------------------------


def raised(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_out_of_range_message_matches_reference_and_stores_nothing():
    edges = [(0, 1), (1, 2), (0, 3), (4, 0)]
    b = GraphBuilder(3)
    got = raised(lambda: b.add_edges(edges))
    assert got == raised(lambda: RefBuilder(3).add_edges(edges))
    assert got == "edge (0, 3) out of range [0, 3)"
    assert b.n_pending_edges == 0
    assert raised(lambda: b.add_edges(np.array([[0, 1], [-1, 2]]))) == (
        "edge (-1, 2) out of range [0, 3)"
    )
    assert raised(lambda: b.add_edges([(0, 2**70)])) == (
        f"edge (0, {2**70}) out of range [0, 3)"
    )
    assert b.n_pending_edges == 0


def test_mixed_weights_message_matches_reference():
    for builder in (GraphBuilder(3), RefBuilder(3)):
        builder.add_edges([(0, 1)], [1.0])
        assert raised(lambda: builder.add_edges([(1, 2)])) == (
            "either all edges have weights or none do"
        )
    b = GraphBuilder(3)
    b.add_edge(0, 1)
    assert raised(lambda: b.add_edges([(1, 2), (2, 0)], [1.0, 2.0])) == (
        "either all edges have weights or none do"
    )
    assert b.n_pending_edges == 1


def test_weights_of_another_length_are_rejected():
    with pytest.raises(ValueError, match="one entry per edge"):
        build_graph(3, [(0, 1), (1, 2)], weights=[1.0])
    with pytest.raises(ValueError, match="one entry per edge"):
        build_graph(3, [(0, 1)], weights=[1.0, 2.0])
    b = GraphBuilder(3)
    with pytest.raises(ValueError, match="one entry per edge"):
        b.add_edges(np.array([[0, 1], [1, 2]]), np.ones((2, 1)))
    assert b.n_pending_edges == 0


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (1, 2, 0)],
        [(0, 1), 2],
        [(0,), (1, 2, 0)],  # lengths that add up to whole pairs
        np.zeros((2, 3), dtype=np.int64),
        np.arange(4),
    ],
)
def test_an_item_that_is_not_a_pair_is_rejected(edges):
    b = GraphBuilder(3)
    b.add_edge(0, 1)
    with pytest.raises(ValueError, match="pair|shape"):
        b.add_edges(edges)
    assert b.n_pending_edges == 1


def test_interleaved_add_edge_and_add_edges_keep_call_order():
    b = GraphBuilder(3)
    b.add_edge(2, 0, 1.0)
    b.add_edges(zip([0, 1], [1, 2]), np.array([2.0, 3.0]))
    b.add_edge(1, 0, 4.0)
    b.add_edges(np.array([[1, 1]]), [5.0])
    graph, w = b.build(n_ranks=1)
    assert [(s, t) for _gid, s, t in graph.edges()] == [
        (0, 1), (1, 2), (1, 0), (1, 1), (2, 0)
    ]
    assert w.tolist() == [2.0, 3.0, 4.0, 5.0, 1.0]


def test_pending_count_skips_dropped_self_loops():
    b = GraphBuilder(4, allow_self_loops=False)
    b.add_edges([(0, 0), (0, 1), (2, 2), (2, 3)], [1.0, 2.0, 3.0, 4.0])
    b.add_edge(3, 3)  # dropped before the weight check, as per edge
    assert b.n_pending_edges == 2
    b.add_edges(np.array([[1, 1]]))  # a batch of dropped loops stores nothing
    assert b.n_pending_edges == 2


def test_is_symmetric_sees_one_missing_reverse_arc():
    both = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]
    graph, _ = build_graph(3, both, n_ranks=2)
    assert _is_symmetric(graph)
    graph, _ = build_graph(3, both + [(0, 2)], n_ranks=2)
    assert not _is_symmetric(graph)
    graph, _ = build_graph(3, [(0, 2)], directed=False, n_ranks=2)
    assert _is_symmetric(graph)
