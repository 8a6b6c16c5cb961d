"""Vertex partitions: mapping global vertex ids to (rank, local index).

The paper assumes "a distributed graph, where every node stores a portion
of vertices and their outgoing edges" (Sec. III-A) and derives message
addressing from vertex ownership (Sec. IV-D).  Five deterministic
distributions are provided; all support O(1) owner and index queries and
are vectorized over numpy arrays for bulk graph construction.

Two of them are *data dependent* (``data_dependent = True``): they accept
the graph's out-degree vector and place vertices so per-rank stored-edge
load is balanced rather than per-rank vertex count — the first-order
lever on power-law graphs, where a handful of hubs otherwise pin one
rank's wall-clock (docs/PARTITION.md).  Without degrees they degrade to a
deterministic uniform-cost assignment so ``make_partition(kind, n, p)``
always works.

:func:`partition_quality` measures any placement against the stored edge
list: edge cut, vertex replication factor, per-rank vertex/edge loads,
Gini coefficients, and the max-rank edge-load share that the partition
benchmarks gate on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np


class Partition:
    """Base class: a distribution of ``n_vertices`` over ``n_ranks``."""

    #: True for partitioners whose placement depends on the graph's degree
    #: vector (``__init__`` accepts ``degrees=``); the graph builder feeds
    #: them out-degrees computed from the edge list being loaded.
    data_dependent = False

    def __init__(self, n_vertices: int, n_ranks: int) -> None:
        if n_vertices < 0:
            raise ValueError("n_vertices must be >= 0")
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.n_vertices = n_vertices
        self.n_ranks = n_ranks

    # -- scalar interface ---------------------------------------------------
    def owner(self, v: int) -> int:
        raise NotImplementedError

    def local_index(self, v: int) -> int:
        raise NotImplementedError

    def rank_size(self, rank: int) -> int:
        raise NotImplementedError

    def to_global(self, rank: int, local: int) -> int:
        raise NotImplementedError

    # -- vectorized interface -------------------------------------------------
    def owner_array(self, vs: np.ndarray) -> np.ndarray:
        return np.fromiter((self.owner(int(v)) for v in vs), dtype=np.int64, count=len(vs))

    def local_index_array(self, vs: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self.local_index(int(v)) for v in vs), dtype=np.int64, count=len(vs)
        )

    # -- iteration ------------------------------------------------------------
    def local_vertices(self, rank: int) -> np.ndarray:
        """Global ids of the vertices owned by ``rank`` (ascending)."""
        raise NotImplementedError

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.n_vertices})")

    def check_vertices(self, vs: np.ndarray) -> np.ndarray:
        """Array form of :meth:`check_vertex`; returns ``vs`` as an ndarray."""
        vs = np.asarray(vs)
        if vs.size and (vs.min() < 0 or vs.max() >= self.n_vertices):
            bad = vs[(vs < 0) | (vs >= self.n_vertices)].flat[0]
            raise IndexError(f"vertex {bad} out of range [0, {self.n_vertices})")
        return vs

    # -- growth -----------------------------------------------------------------
    def grow(self, n_vertices: int) -> "Partition":
        """A partition of ``n_vertices`` >= current size over the same ranks.

        Mutation batches that add vertices call this instead of
        ``type(self)(n, p)`` so data-dependent partitioners can keep their
        existing (degree-derived) placement and only assign the new ids.
        Arithmetic partitions just rebuild — their mapping is a pure
        function of ``(n, p)``.
        """
        if n_vertices < self.n_vertices:
            raise ValueError("grow cannot shrink a partition")
        return type(self)(n_vertices, self.n_ranks)


class BlockPartition(Partition):
    """Contiguous blocks: rank r owns [r*ceil(n/p), ...) (Graph500 style)."""

    def __init__(self, n_vertices: int, n_ranks: int) -> None:
        super().__init__(n_vertices, n_ranks)
        # Balanced blocks: first (n % p) ranks get one extra vertex.
        base, extra = divmod(n_vertices, n_ranks)
        sizes = np.full(n_ranks, base, dtype=np.int64)
        sizes[:extra] += 1
        self._starts = np.zeros(n_ranks + 1, dtype=np.int64)
        np.cumsum(sizes, out=self._starts[1:])
        self._sizes = sizes
        # O(1) arithmetic owner lookup (hot path: every message send)
        self._base = base
        self._extra = extra
        self._split = extra * (base + 1)  # first id owned by a base-size rank

    def owner(self, v: int) -> int:
        self.check_vertex(v)
        if v < self._split:
            return v // (self._base + 1)
        return self._extra + (v - self._split) // self._base

    def local_index(self, v: int) -> int:
        self.check_vertex(v)
        if v < self._split:
            return v % (self._base + 1)
        return (v - self._split) % self._base

    def rank_size(self, rank: int) -> int:
        return int(self._sizes[rank])

    def to_global(self, rank: int, local: int) -> int:
        return int(self._starts[rank]) + local

    def owner_array(self, vs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._starts, self.check_vertices(vs), side="right") - 1

    def local_index_array(self, vs: np.ndarray) -> np.ndarray:
        vs = self.check_vertices(vs)
        return vs - self._starts[np.searchsorted(self._starts, vs, side="right") - 1]

    def local_vertices(self, rank: int) -> np.ndarray:
        return np.arange(self._starts[rank], self._starts[rank + 1], dtype=np.int64)


class CyclicPartition(Partition):
    """Round-robin: vertex v lives on rank v mod p (good load balance for
    skewed-degree graphs like R-MAT)."""

    def owner(self, v: int) -> int:
        self.check_vertex(v)
        return v % self.n_ranks

    def local_index(self, v: int) -> int:
        return v // self.n_ranks

    def rank_size(self, rank: int) -> int:
        n, p = self.n_vertices, self.n_ranks
        return (n - rank + p - 1) // p if n > rank else 0

    def to_global(self, rank: int, local: int) -> int:
        return local * self.n_ranks + rank

    def owner_array(self, vs: np.ndarray) -> np.ndarray:
        return self.check_vertices(vs) % self.n_ranks

    def local_index_array(self, vs: np.ndarray) -> np.ndarray:
        return self.check_vertices(vs) // self.n_ranks

    def local_vertices(self, rank: int) -> np.ndarray:
        return np.arange(rank, self.n_vertices, self.n_ranks, dtype=np.int64)


class TablePartition(Partition):
    """Shared base for partitions defined by an explicit owner table.

    Subclasses compute ``owners`` (one rank per vertex) any way they like;
    local indices are assigned in ascending global-id order per rank, so
    the table alone pins the whole mapping deterministically.
    """

    def __init__(
        self, n_vertices: int, n_ranks: int, owners: np.ndarray
    ) -> None:
        super().__init__(n_vertices, n_ranks)
        self._owners = np.asarray(owners, dtype=np.int64)
        if self._owners.shape != (n_vertices,):
            raise ValueError("owner table must have one entry per vertex")
        # Per-rank local index: stable order by global id.
        self._local = np.zeros(n_vertices, dtype=np.int64)
        self._locals_by_rank: list[np.ndarray] = []
        for r in range(n_ranks):
            mine = np.flatnonzero(self._owners == r)
            self._local[mine] = np.arange(len(mine))
            self._locals_by_rank.append(mine)

    def owner(self, v: int) -> int:
        self.check_vertex(v)
        return int(self._owners[v])

    def local_index(self, v: int) -> int:
        self.check_vertex(v)
        return int(self._local[v])

    def rank_size(self, rank: int) -> int:
        return len(self._locals_by_rank[rank])

    def to_global(self, rank: int, local: int) -> int:
        return int(self._locals_by_rank[rank][local])

    def owner_array(self, vs: np.ndarray) -> np.ndarray:
        return self._owners[self.check_vertices(vs)]

    def local_index_array(self, vs: np.ndarray) -> np.ndarray:
        return self._local[self.check_vertices(vs)]

    def local_vertices(self, rank: int) -> np.ndarray:
        return self._locals_by_rank[rank]


class HashPartition(TablePartition):
    """Multiplicative-hash distribution (decorrelates ids from placement).

    Uses a fixed odd multiplier (Knuth's 2^64 golden-ratio constant) so the
    distribution is deterministic across runs and machines.
    """

    _MULT = 0x9E3779B97F4A7C15

    def __init__(self, n_vertices: int, n_ranks: int) -> None:
        ids = np.arange(n_vertices, dtype=np.uint64)
        hashed = (ids * np.uint64(self._MULT)) >> np.uint64(40)
        owners = (hashed % np.uint64(n_ranks)).astype(np.int64)
        super().__init__(n_vertices, n_ranks, owners)


def _vertex_costs(n_vertices: int, degrees) -> np.ndarray:
    """Per-vertex placement cost: out-degree plus one unit for the vertex
    itself (so degree-0 vertices still spread instead of all tying)."""
    if degrees is None:
        return np.ones(n_vertices, dtype=np.int64)
    degs = np.asarray(degrees, dtype=np.int64)
    if degs.shape != (n_vertices,):
        raise ValueError("degrees must have one entry per vertex")
    if len(degs) and degs.min() < 0:
        raise ValueError("degrees must be non-negative")
    return degs + 1


def _lpt_assign(costs: np.ndarray, n_bins: int) -> np.ndarray:
    """Longest-processing-time greedy bin-pack: heaviest vertex first onto
    the least-loaded bin.  Ties break on (load, bin id) then (cost, id),
    so the assignment is deterministic across runs and machines."""
    owners = np.zeros(len(costs), dtype=np.int64)
    if n_bins == 1 or len(costs) == 0:
        return owners
    order = np.lexsort((np.arange(len(costs)), -costs))
    heap = [(0, b) for b in range(n_bins)]
    for v in order:
        load, b = heapq.heappop(heap)
        owners[v] = b
        heapq.heappush(heap, (load + int(costs[v]), b))
    return owners


class DegreeAwarePartition(TablePartition):
    """Degree-aware balanced-edge 1D partitioning.

    Greedy LPT bin-pack of vertices (cost = out-degree + 1) onto ranks:
    heaviest first, always to the least-loaded rank.  On power-law graphs
    this splits the hub mass across ranks instead of letting the block
    layout concentrate it; every rank stores a near-equal number of
    out-arcs, which is what bounds per-rank handler work.
    """

    data_dependent = True

    def __init__(
        self, n_vertices: int, n_ranks: int, *, degrees=None
    ) -> None:
        costs = _vertex_costs(n_vertices, degrees)
        super().__init__(n_vertices, n_ranks, _lpt_assign(costs, n_ranks))
        self._costs = costs

    def grow(self, n_vertices: int) -> "DegreeAwarePartition":
        if n_vertices < self.n_vertices:
            raise ValueError("grow cannot shrink a partition")
        grown = object.__new__(DegreeAwarePartition)
        costs = np.ones(n_vertices, dtype=np.int64)
        costs[: self.n_vertices] = self._costs
        # Keep existing placements; drop the new (degree-unknown) vertices
        # onto the currently lightest ranks, heap-ordered like the build.
        owners = np.empty(n_vertices, dtype=np.int64)
        owners[: self.n_vertices] = self._owners
        loads = np.zeros(self.n_ranks, dtype=np.int64)
        np.add.at(loads, self._owners, self._costs)
        heap = [(int(loads[r]), r) for r in range(self.n_ranks)]
        heapq.heapify(heap)
        for v in range(self.n_vertices, n_vertices):
            load, r = heapq.heappop(heap)
            owners[v] = r
            heapq.heappush(heap, (load + 1, r))
        TablePartition.__init__(grown, n_vertices, self.n_ranks, owners)
        grown._costs = costs
        return grown


class Grid2DPartition(TablePartition):
    """2D (grid) edge partitioning realized as vertex ownership.

    Ranks form an R x C grid (R = the largest divisor of p that is <=
    sqrt(p)).  A vertex's *row* comes from a degree-balanced LPT split
    over the R row-groups; its *column* hashes the id over C, scattering
    hub neighborhoods across a row's ranks.  Owner = row * C + col.

    The runtime invariant that ALL out-arcs of v are stored at owner(v)
    is preserved — the grid shapes ownership, it does not split an arc
    list across ranks — so every transport, fast path, and the wire codec
    work unchanged.  The mirror cost this induces (ranks that see a
    vertex only through stored arcs) is measured, not materialized:
    :func:`partition_quality` reports it as the replication factor.
    """

    data_dependent = True
    _MULT = HashPartition._MULT

    def __init__(
        self, n_vertices: int, n_ranks: int, *, degrees=None
    ) -> None:
        rows, cols = grid_shape(n_ranks)
        costs = _vertex_costs(n_vertices, degrees)
        row_of = _lpt_assign(costs, rows)
        ids = np.arange(n_vertices, dtype=np.uint64)
        hashed = (ids * np.uint64(self._MULT)) >> np.uint64(40)
        col_of = (hashed % np.uint64(cols)).astype(np.int64)
        super().__init__(n_vertices, n_ranks, row_of * cols + col_of)
        self.rows = rows
        self.cols = cols
        self._costs = costs

    def grow(self, n_vertices: int) -> "Grid2DPartition":
        if n_vertices < self.n_vertices:
            raise ValueError("grow cannot shrink a partition")
        grown = object.__new__(Grid2DPartition)
        costs = np.ones(n_vertices, dtype=np.int64)
        costs[: self.n_vertices] = self._costs
        owners = np.empty(n_vertices, dtype=np.int64)
        owners[: self.n_vertices] = self._owners
        # New vertices: lightest row group, hashed column (like the build).
        row_loads = np.zeros(self.rows, dtype=np.int64)
        np.add.at(row_loads, self._owners // self.cols, self._costs)
        heap = [(int(row_loads[r]), r) for r in range(self.rows)]
        heapq.heapify(heap)
        new_ids = np.arange(self.n_vertices, n_vertices, dtype=np.uint64)
        hashed = (new_ids * np.uint64(self._MULT)) >> np.uint64(40)
        new_cols = (hashed % np.uint64(self.cols)).astype(np.int64)
        for i, v in enumerate(range(self.n_vertices, n_vertices)):
            load, row = heapq.heappop(heap)
            owners[v] = row * self.cols + int(new_cols[i])
            heapq.heappush(heap, (load + 1, row))
        TablePartition.__init__(grown, n_vertices, self.n_ranks, owners)
        grown.rows = self.rows
        grown.cols = self.cols
        grown._costs = costs
        return grown


def grid_shape(n_ranks: int) -> tuple[int, int]:
    """(rows, cols) with rows * cols == n_ranks and rows the largest
    divisor <= sqrt(n_ranks) (4 -> 2x2, 6 -> 2x3, 7 -> 1x7, 8 -> 2x4)."""
    rows = 1
    for r in range(1, int(np.sqrt(n_ranks)) + 1):
        if n_ranks % r == 0:
            rows = r
    return rows, n_ranks // rows


PARTITIONS = {
    "block": BlockPartition,
    "cyclic": CyclicPartition,
    "hash": HashPartition,
    "degree": DegreeAwarePartition,
    "grid2d": Grid2DPartition,
}


def partition_name(part: Partition) -> str:
    """Registry name of a partition instance (class name for customs)."""
    for name, cls in PARTITIONS.items():
        if type(part) is cls:
            return name
    return type(part).__name__


def make_partition(
    kind: str, n_vertices: int, n_ranks: int, degrees=None
) -> Partition:
    try:
        cls = PARTITIONS[kind]
    except KeyError:
        raise ValueError(
            f"unknown partition {kind!r}; pick one of {sorted(PARTITIONS)}"
        ) from None
    if cls.data_dependent:
        return cls(n_vertices, n_ranks, degrees=degrees)
    return cls(n_vertices, n_ranks)


# -- quality metrics ------------------------------------------------------------


def gini(values) -> float:
    """Gini coefficient of a load vector: 0.0 = perfectly even, -> 1.0 as
    one bin holds everything.  O(n log n) via the sorted-rank identity."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = len(vals)
    total = float(vals.sum())
    if n <= 1 or total <= 0.0:
        return 0.0
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * (ranks * vals).sum() / (n * total)) - (n + 1) / n)


@dataclass
class PartitionQuality:
    """Placement quality of one partition against a stored edge list."""

    kind: str
    n_ranks: int
    n_vertices: int
    n_edges: int
    edge_cut: float  # fraction of arcs whose endpoints live on
    # different ranks (each becomes a remote send)
    replication: float  # mean #ranks that see each vertex (owner +
    # ranks storing arcs targeting it); 1.0 = no mirrors
    vertex_gini: float  # inequality of per-rank owned-vertex counts
    edge_gini: float  # inequality of per-rank stored-arc counts
    max_edge_share: float  # max-rank stored arcs / mean — the skew
    # factor that bounds parallel speedup
    vertices_by_rank: list[int] = field(default_factory=list)
    edges_by_rank: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_ranks": self.n_ranks,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "edge_cut": self.edge_cut,
            "replication": self.replication,
            "vertex_gini": self.vertex_gini,
            "edge_gini": self.edge_gini,
            "max_edge_share": self.max_edge_share,
            "vertices_by_rank": list(self.vertices_by_rank),
            "edges_by_rank": list(self.edges_by_rank),
        }


def partition_quality(
    part: Partition, src, trg, *, kind: str | None = None
) -> PartitionQuality:
    """Measure ``part`` against the arc list ``(src, trg)``.

    Arcs are stored at ``owner(src)`` (the runtime's owner-computes
    invariant), so per-rank edge load is the out-degree mass each rank
    owns, the edge cut is the fraction of arcs with a remote target, and
    a vertex is *replicated* onto every rank that stores an arc pointing
    at it.
    """
    src = np.asarray(src, dtype=np.int64)
    trg = np.asarray(trg, dtype=np.int64)
    p = part.n_ranks
    n = part.n_vertices
    vertices_by_rank = [part.rank_size(r) for r in range(p)]
    if len(src):
        src_owner = np.asarray(part.owner_array(src), dtype=np.int64)
        trg_owner = np.asarray(part.owner_array(trg), dtype=np.int64)
        edges_by_rank = np.bincount(src_owner, minlength=p)
        cut = float((src_owner != trg_owner).sum() / len(src))
        # Distinct (vertex, rank) pairs where the rank sees the vertex as
        # a stored-arc target but does not own it -> mirror copies.
        pairs = np.unique(trg[src_owner != trg_owner] * p + src_owner[src_owner != trg_owner])
        replication = float((n + len(pairs)) / n) if n else 1.0
        mean_edges = len(src) / p
        max_share = float(edges_by_rank.max() / mean_edges)
    else:
        edges_by_rank = np.zeros(p, dtype=np.int64)
        cut = 0.0
        replication = 1.0
        max_share = 1.0
    return PartitionQuality(
        kind=kind or type(part).__name__,
        n_ranks=p,
        n_vertices=n,
        n_edges=len(src),
        edge_cut=cut,
        replication=replication,
        vertex_gini=gini(vertices_by_rank),
        edge_gini=gini(edges_by_rank),
        max_edge_share=max_share,
        vertices_by_rank=[int(x) for x in vertices_by_rank],
        edges_by_rank=[int(x) for x in edges_by_rank],
    )


def graph_quality(graph) -> PartitionQuality:
    """:func:`partition_quality` of a built graph's own partition."""
    src, trg = graph.edge_arrays()
    return partition_quality(
        graph.partition, src, trg, kind=partition_name(graph.partition)
    )
