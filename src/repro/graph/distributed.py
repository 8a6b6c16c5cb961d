"""The distributed graph: vertex-centric, owner-computes storage.

Matches the paper's computational model (Sec. III-A, IV): every rank
stores a portion of the vertices and all their outgoing edges (plus
incoming edges under *bidirectional* storage — "bidirectional describes
the storage model rather than a property of the graph"); vertex and edge
property values live with the owning rank, and all reads/writes happen
there inside message handlers.

Edge identity: every stored out-arc has a global edge id (gid).  For an
undirected graph the builder materializes both arcs and the *same* weight
on both, so patterns over ``adj``/``out_edges`` behave as expected.
"""

from __future__ import annotations

import weakref
from typing import Iterator

import numpy as np

from .csr import LocalCSR, build_csr
from .partition import PARTITIONS, Partition, make_partition


class DistributedGraph:
    """A directed graph distributed over ``n_ranks`` ranks.

    Build via :func:`from_edges` (or :class:`~repro.graph.builder.GraphBuilder`).
    """

    def __init__(
        self,
        partition: Partition,
        locals_: list[LocalCSR],
        edge_offsets: np.ndarray,
    ) -> None:
        self.partition = partition
        self.locals = locals_
        self.edge_offsets = edge_offsets  # len n_ranks + 1; gid -> rank via searchsorted
        # Monotone mutation counter: bumped by graph.mutate.apply_batch so
        # caches / checkpoints / telemetry keyed on graph content can detect
        # that the topology changed underneath them.
        self.version = 0
        # Live property maps and lock maps over this graph, tracked weakly so
        # apply_batch can migrate their storage when the topology changes.
        self._vertex_maps: "weakref.WeakSet" = weakref.WeakSet()
        self._edge_maps: "weakref.WeakSet" = weakref.WeakSet()
        self._lockmaps: "weakref.WeakSet" = weakref.WeakSet()

    # -- basic shape -----------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self.partition.n_vertices

    @property
    def n_edges(self) -> int:
        return int(self.edge_offsets[-1])

    @property
    def n_ranks(self) -> int:
        return self.partition.n_ranks

    @property
    def bidirectional(self) -> bool:
        return bool(self.locals) and self.locals[0].bidirectional

    def vertices(self) -> Iterator[int]:
        return iter(range(self.n_vertices))

    def local_vertices(self, rank: int) -> np.ndarray:
        return self.partition.local_vertices(rank)

    # -- ownership ---------------------------------------------------------------
    def owner(self, v: int) -> int:
        return self.partition.owner(v)

    def local_index(self, v: int) -> int:
        return self.partition.local_index(v)

    def edge_owner(self, gid: int) -> int:
        """Rank storing arc ``gid`` (the rank owning its source vertex)."""
        if not 0 <= gid < self.n_edges:
            raise IndexError(f"edge gid {gid} out of range [0, {self.n_edges})")
        return int(np.searchsorted(self.edge_offsets, gid, side="right") - 1)

    # -- traversal (must be called at the owning rank in handler code) -----------
    def out_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(edge gids, target ids) of v's out-arcs."""
        rank = self.owner(v)
        local = self.partition.local_index(v)
        csr = self.locals[rank]
        return csr.out_edge_gids(local), csr.out_targets(local)

    def in_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(edge gids, source ids) of v's in-arcs (bidirectional storage)."""
        rank = self.owner(v)
        local = self.partition.local_index(v)
        csr = self.locals[rank]
        return csr.in_gid_list(local), csr.in_source_list(local)

    def adj(self, v: int) -> np.ndarray:
        """Adjacent vertices via out-arcs (use undirected builds for true
        adjacency, as the paper's CC example does)."""
        _, targets = self.out_edges(v)
        return targets

    def out_degree(self, v: int) -> int:
        rank = self.owner(v)
        return self.locals[rank].out_degree(self.partition.local_index(v))

    # -- edge endpoint lookups -----------------------------------------------------
    def src(self, gid: int) -> int:
        rank = self.edge_owner(gid)
        return self.locals[rank].arc_by_local_eid(gid - int(self.edge_offsets[rank]))[0]

    def trg(self, gid: int) -> int:
        rank = self.edge_owner(gid)
        return self.locals[rank].arc_by_local_eid(gid - int(self.edge_offsets[rank]))[1]

    def edge_local_index(self, gid: int) -> tuple[int, int]:
        """(owning rank, local arc index) of a gid."""
        rank = self.edge_owner(gid)
        return rank, gid - int(self.edge_offsets[rank])

    # -- whole-graph conveniences (driver/test side) ---------------------------------
    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (gid, src, trg) over all stored arcs, in gid order.

        A per-arc convenience for tests and small graphs; whole-graph
        readers use :meth:`edge_arrays`.
        """
        for rank, csr in enumerate(self.locals):
            base = int(self.edge_offsets[rank])
            yield from zip(
                range(base, base + csr.n_edges),
                csr.local_sources.tolist(),
                csr.targets.tolist(),
            )

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, trg) global-id arrays over all stored arcs, in gid order.

        Concatenating the per-rank arrays yields gid order because rank
        ``r``'s arcs occupy gids ``edge_offsets[r]:edge_offsets[r+1]``.
        """
        if not self.locals or self.n_edges == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        src = np.concatenate([csr.local_sources for csr in self.locals])
        trg = np.concatenate([csr.targets for csr in self.locals])
        return np.asarray(src, dtype=np.int64), np.asarray(trg, dtype=np.int64)

    def degree_histogram(self) -> np.ndarray:
        """Out-degree of every vertex by global id (CSR ``indptr``
        differences; local index order is ascending global id)."""
        degs = np.zeros(self.n_vertices, dtype=np.int64)
        for rank, csr in enumerate(self.locals):
            degs[self.partition.local_vertices(rank)] = np.diff(csr.indptr)
        return degs

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DistributedGraph(n={self.n_vertices}, m={self.n_edges}, "
            f"ranks={self.n_ranks}, bidirectional={self.bidirectional})"
        )


def from_edges(
    n_vertices: int,
    sources,
    targets,
    *,
    n_ranks: int = 4,
    partition: str | Partition = "block",
    bidirectional: bool = False,
) -> tuple["DistributedGraph", np.ndarray]:
    """Build a distributed graph from parallel source/target arrays.

    Returns ``(graph, gid_of_input)`` where ``gid_of_input[i]`` is the
    global edge id assigned to input arc ``i`` — callers use it to place
    per-edge data (weights) into edge property maps.
    """
    src = np.asarray(sources, dtype=np.int64)
    trg = np.asarray(targets, dtype=np.int64)
    if src.shape != trg.shape:
        raise ValueError("sources and targets must have the same length")
    if len(src) and (src.min() < 0 or src.max() >= n_vertices):
        raise ValueError("source vertex id out of range")
    if len(trg) and (trg.min() < 0 or trg.max() >= n_vertices):
        raise ValueError("target vertex id out of range")

    if isinstance(partition, Partition):
        part = partition
    else:
        # Data-dependent partitioners (degree-aware, 2D) place vertices by
        # out-degree mass; feed them the degrees of the arcs being loaded.
        cls = PARTITIONS.get(partition)
        degrees = (
            np.bincount(src, minlength=n_vertices)
            if cls is not None and cls.data_dependent
            else None
        )
        part = make_partition(partition, n_vertices, n_ranks, degrees)
    owners = part.owner_array(src)
    local_src_all = part.local_index_array(src)

    locals_: list[LocalCSR] = []
    edge_offsets = np.zeros(part.n_ranks + 1, dtype=np.int64)
    gid_of_input = np.empty(len(src), dtype=np.int64)

    offset = 0
    for rank in range(part.n_ranks):
        mine = np.flatnonzero(owners == rank)
        n_local = part.rank_size(rank)
        indptr, sorted_trg, order = build_csr(n_local, local_src_all[mine], trg[mine])
        # input arc i (within 'mine') landed at sorted position order^-1
        arcs = mine[order]
        gid_of_input[arcs] = offset + np.arange(len(mine))
        locals_.append(LocalCSR(n_local, indptr, sorted_trg, src[arcs], offset))
        offset += len(mine)
        edge_offsets[rank + 1] = offset

    graph = DistributedGraph(part, locals_, edge_offsets)
    if bidirectional:
        _add_in_edges(graph)
    return graph, gid_of_input


def _add_in_edges(graph: DistributedGraph) -> None:
    """Materialize per-rank in-adjacency (paper's bidirectional storage).

    Each rank keeps the arcs whose target it owns, grouped by the target's
    local index; within a target, arcs stay in gid order (stable sort).
    """
    part = graph.partition
    src, trg = graph.edge_arrays()  # gid order, so position == gid
    trg_owner = part.owner_array(trg)
    trg_local = part.local_index_array(trg)
    for rank, csr in enumerate(graph.locals):
        gids = np.flatnonzero(trg_owner == rank)
        csr.in_indptr, csr.in_sources, order = build_csr(
            csr.n_local, trg_local[gids], src[gids]
        )
        csr.in_edge_gids = gids[order]
