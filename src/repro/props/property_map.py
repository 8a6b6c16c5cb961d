"""Property maps: the paper's fundamental data abstraction (Sec. III-B).

A property map associates vertices or edges with arbitrary values,
"including vertices and edges".  Storage is distributed: each rank holds
the values of the vertices/edges it owns, and — per the paper's owner-
computes rule — reads and writes must happen at the owning rank inside
message handlers.

Strictness: with ``strict=True`` every access must present the accessing
rank and it must equal the owner; the pattern executor does this, which
turns locality bugs in compiled plans into loud errors instead of silent
shared-memory reads (this simulation *could* read any value from
anywhere — a real machine could not, so we police it).

Scalar maps are numpy-backed per rank (fast bulk init/extract); ``object``
maps hold Python lists for set-valued properties like predecessor sets.

Edge-map mirror reads: under bidirectional storage the paper replicates
incoming edges (and hence their property values) at the target's rank, so
reading an in-edge's property at the *target* owner is legal; writes are
owner-only.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..graph.distributed import DistributedGraph


class LocalityError(RuntimeError):
    """An access violated the owner-computes locality rule."""


def _make_storage(n: int, dtype, default):
    if dtype is object or dtype == "object":
        # A callable default is a per-slot factory (mutable defaults such
        # as set() must not be shared between slots).
        if callable(default):
            return [default() for _ in range(n)]
        return [default] * n
    arr = np.empty(n, dtype=dtype)
    arr[:] = default
    return arr


class VertexPropertyMap:
    """Distributed per-vertex values."""

    def __init__(
        self,
        graph: DistributedGraph,
        dtype="f8",
        default: Any = 0,
        *,
        name: str = "vprop",
        strict: bool = False,
    ) -> None:
        self.graph = graph
        self.dtype = dtype
        self.default = default
        self.name = name
        self.strict = strict
        self._slices = [
            _make_storage(graph.partition.rank_size(r), dtype, default)
            for r in range(graph.n_ranks)
        ]
        #: Optional :class:`~repro.runtime.checkpoint.DirtyTracker`
        #: installed by a CheckpointManager; every write path marks the
        #: chunks it touches so incremental snapshots skip clean ones.
        self.dirty = None
        reg = getattr(graph, "_vertex_maps", None)
        if reg is not None:
            reg.add(self)

    # -- locality checks -----------------------------------------------------
    def _locate(self, v: int, rank: Optional[int], writing: bool) -> tuple[int, int]:
        owner = self.graph.owner(v)
        if rank is not None and rank != owner:
            raise LocalityError(
                f"{self.name}[{v}] accessed at rank {rank} but owned by {owner}"
            )
        if rank is None and self.strict:
            raise LocalityError(
                f"{self.name}[{v}]: strict map requires the accessing rank"
            )
        return owner, self.graph.local_index(v)

    # -- element access ----------------------------------------------------------
    def get(self, v: int, rank: Optional[int] = None):
        owner, local = self._locate(v, rank, writing=False)
        return self._slices[owner][local]

    def set(self, v: int, value, rank: Optional[int] = None) -> None:
        owner, local = self._locate(v, rank, writing=True)
        self._slices[owner][local] = value
        if self.dirty is not None:
            self.dirty.mark(owner, local)

    def __getitem__(self, v: int):
        return self.get(v)

    def __setitem__(self, v: int, value) -> None:
        self.set(v, value)

    # -- bulk access (driver-side: initialization and extraction) ------------------
    def fill(self, value) -> None:
        for s in self._slices:
            if isinstance(s, np.ndarray):
                s[:] = value
            else:
                for i in range(len(s)):
                    s[i] = value
        if self.dirty is not None:
            self.dirty.mark_all()

    def to_array(self):
        """Gather all values into one global array/list ordered by vertex id."""
        if self.dtype is object or self.dtype == "object":
            out: list = [None] * self.graph.n_vertices
        else:
            out = np.empty(self.graph.n_vertices, dtype=self.dtype)
        for r in range(self.graph.n_ranks):
            globals_ = self.graph.partition.local_vertices(r)
            s = self._slices[r]
            if isinstance(out, np.ndarray):
                out[globals_] = s
            else:
                for g, val in zip(globals_, s):
                    out[int(g)] = val
        return out

    def from_array(self, values) -> None:
        for r in range(self.graph.n_ranks):
            globals_ = self.graph.partition.local_vertices(r)
            s = self._slices[r]
            if isinstance(s, np.ndarray):
                s[:] = np.asarray(values)[globals_]
            else:
                for i, g in enumerate(globals_):
                    s[i] = values[int(g)]
        if self.dirty is not None:
            self.dirty.mark_all()

    def local_slice(self, rank: int):
        """This rank's raw storage (handler-side bulk operations)."""
        return self._slices[rank]

    def get_many(self, vs: np.ndarray, rank: int) -> np.ndarray:
        """Values of the vertices ``vs``, all owned by ``rank`` (numeric
        maps; the bulk form of ``get(v, rank=rank)``)."""
        part = self.graph.partition
        if (part.owner_array(vs) != rank).any():
            raise LocalityError(f"{self.name}: vertices not all owned by rank {rank}")
        return self._slices[rank][part.local_index_array(vs)]

    def reset_rank(self, rank: int) -> None:
        """Re-initialize one rank's storage to defaults (its memory is
        gone — used by crash recovery before a checkpoint restore)."""
        self._slices[rank] = _make_storage(
            self.graph.partition.rank_size(rank), self.dtype, self.default
        )
        if self.dirty is not None:
            self.dirty.mark_all(rank)

    # -- external (shared-memory) storage adoption ---------------------------
    @property
    def is_numeric(self) -> bool:
        """True when per-rank storage is a numpy array (shm-adoptable)."""
        return not (self.dtype is object or self.dtype == "object")

    def adopt_rank_storage(self, rank: int, arr: np.ndarray) -> None:
        """Swap rank ``rank``'s backing array for an externally-allocated
        one (e.g. a view over ``multiprocessing.shared_memory``), copying
        current content in.  All reads/writes — including the vector fast
        path's :meth:`scatter_extremum` — then operate on the new buffer
        in place, so a process-backed transport sees every update without
        any serialization."""
        old = self._slices[rank]
        if not isinstance(old, np.ndarray):
            raise TypeError(f"{self.name}: object maps cannot adopt external storage")
        if arr.shape != old.shape or arr.dtype != old.dtype:
            raise ValueError(
                f"{self.name}: storage mismatch for rank {rank}: "
                f"{arr.shape}/{arr.dtype} vs {old.shape}/{old.dtype}"
            )
        np.copyto(arr, old)
        self._slices[rank] = arr

    def privatize(self) -> None:
        """Copy externally-backed slices back onto the private heap.

        Called when a shared-memory segment is about to be unlinked so the
        map outlives its transport (result extraction, checkpoint replay,
        further sim runs on the same maps)."""
        for r, s in enumerate(self._slices):
            if isinstance(s, np.ndarray) and not s.flags.owndata:
                self._slices[r] = s.copy()

    def scatter_extremum(
        self, rank: int, local_idx: np.ndarray, values: np.ndarray, *, minimize: bool = True
    ) -> np.ndarray:
        """Bulk ``map[i] = min(map[i], val)`` (or max) at the owning rank.

        ``local_idx`` may contain duplicates; ``np.minimum.at`` applies the
        unbuffered elementwise extremum, which is exactly the sequential
        result of merging every (index, value) pair one at a time — the
        batch form of the paper's merged eval+modify handler.  Returns a
        boolean mask (aligned with ``local_idx``) marking elements whose
        destination slot holds a different value after the scatter; callers
        uniquify destinations for change/dependency accounting.

        Like :meth:`local_slice`, this is a handler-side bulk operation at
        a known rank: the caller asserts locality (the executor only ever
        passes destinations the addressing layer routed here) and holds the
        relevant locks.
        """
        arr = self._slices[rank]
        before = arr[local_idx]  # fancy indexing copies
        if self.dirty is not None:
            self.dirty.mark_array(rank, local_idx)
        idx = local_idx
        # ``cand < cur`` is False for a NaN candidate, so it never wins;
        # ``np.minimum`` would propagate it.  A sum of squares is NaN iff
        # some value is, and is the cheapest probe (one call per batch).
        if values.dtype.kind == "f" and (sq := values.dot(values)) != sq:
            ok = ~np.isnan(values)
            idx, values = local_idx[ok], values[ok]
        if minimize:
            np.minimum.at(arr, idx, values)
            return arr[local_idx] < before
        np.maximum.at(arr, idx, values)
        return arr[local_idx] > before

    def scatter_add(self, rank: int, local_idx: np.ndarray, values: np.ndarray) -> None:
        """Bulk ``map[i] += val`` at the owning rank.

        ``np.add.at`` is unbuffered and applies the (index, value) pairs
        one at a time in index order, duplicates included, so each float
        sum is bitwise the sequential per-row ``old + val`` — the batch
        form of the merged ``+=`` handler.  Same contract as
        :meth:`scatter_extremum`: the caller asserts locality and holds
        the locks.
        """
        if self.dirty is not None:
            self.dirty.mark_array(rank, local_idx)
        np.add.at(self._slices[rank], local_idx, values)

    def __len__(self) -> int:
        return self.graph.n_vertices

    def __repr__(self) -> str:  # pragma: no cover
        return f"VertexPropertyMap({self.name!r}, dtype={self.dtype})"


class EdgePropertyMap:
    """Distributed per-edge values, indexed by global edge id."""

    def __init__(
        self,
        graph: DistributedGraph,
        dtype="f8",
        default: Any = 0,
        *,
        name: str = "eprop",
        strict: bool = False,
    ) -> None:
        self.graph = graph
        self.dtype = dtype
        self.default = default
        self.name = name
        self.strict = strict
        self._slices = [
            _make_storage(graph.locals[r].n_edges, dtype, default)
            for r in range(graph.n_ranks)
        ]
        #: Optional dirty tracker (see :class:`VertexPropertyMap.dirty`).
        self.dirty = None
        reg = getattr(graph, "_edge_maps", None)
        if reg is not None:
            reg.add(self)

    def _locate(self, gid: int, rank: Optional[int], writing: bool) -> tuple[int, int]:
        owner, local = self.graph.edge_local_index(gid)
        if rank is not None and rank != owner:
            # Mirror read: bidirectional storage replicates in-edges (and
            # their property values) at the target rank.
            if (
                not writing
                and self.graph.bidirectional
                and rank == self.graph.owner(self.graph.trg(gid))
            ):
                return owner, local
            raise LocalityError(
                f"{self.name}[e{gid}] {'written' if writing else 'read'} at rank "
                f"{rank} but stored at {owner}"
            )
        if rank is None and self.strict:
            raise LocalityError(
                f"{self.name}[e{gid}]: strict map requires the accessing rank"
            )
        return owner, local

    def get(self, gid: int, rank: Optional[int] = None):
        owner, local = self._locate(gid, rank, writing=False)
        return self._slices[owner][local]

    def set(self, gid: int, value, rank: Optional[int] = None) -> None:
        owner, local = self._locate(gid, rank, writing=True)
        self._slices[owner][local] = value
        if self.dirty is not None:
            self.dirty.mark(owner, local)

    def __getitem__(self, gid: int):
        return self.get(gid)

    def __setitem__(self, gid: int, value) -> None:
        self.set(gid, value)

    def fill(self, value) -> None:
        for s in self._slices:
            if isinstance(s, np.ndarray):
                s[:] = value
            else:
                for i in range(len(s)):
                    s[i] = value
        if self.dirty is not None:
            self.dirty.mark_all()

    def to_array(self):
        if self.dtype is object or self.dtype == "object":
            out: list = [None] * self.graph.n_edges
            for r in range(self.graph.n_ranks):
                base = int(self.graph.edge_offsets[r])
                for i, val in enumerate(self._slices[r]):
                    out[base + i] = val
            return out
        out = np.empty(self.graph.n_edges, dtype=self.dtype)
        for r in range(self.graph.n_ranks):
            base = int(self.graph.edge_offsets[r])
            out[base : base + len(self._slices[r])] = self._slices[r]
        return out

    def from_array(self, values) -> None:
        vals = values
        for r in range(self.graph.n_ranks):
            base = int(self.graph.edge_offsets[r])
            s = self._slices[r]
            if isinstance(s, np.ndarray):
                s[:] = np.asarray(vals)[base : base + len(s)]
            else:
                for i in range(len(s)):
                    s[i] = vals[base + i]
        if self.dirty is not None:
            self.dirty.mark_all()

    def local_slice(self, rank: int):
        return self._slices[rank]

    def reset_rank(self, rank: int) -> None:
        """Re-initialize one rank's storage to defaults (crash recovery)."""
        self._slices[rank] = _make_storage(
            self.graph.locals[rank].n_edges, self.dtype, self.default
        )
        if self.dirty is not None:
            self.dirty.mark_all(rank)

    # -- external (shared-memory) storage adoption ---------------------------
    @property
    def is_numeric(self) -> bool:
        """True when per-rank storage is a numpy array (shm-adoptable)."""
        return not (self.dtype is object or self.dtype == "object")

    def adopt_rank_storage(self, rank: int, arr: np.ndarray) -> None:
        """Swap one rank's backing array for an external buffer (see
        :meth:`VertexPropertyMap.adopt_rank_storage`)."""
        old = self._slices[rank]
        if not isinstance(old, np.ndarray):
            raise TypeError(f"{self.name}: object maps cannot adopt external storage")
        if arr.shape != old.shape or arr.dtype != old.dtype:
            raise ValueError(
                f"{self.name}: storage mismatch for rank {rank}: "
                f"{arr.shape}/{arr.dtype} vs {old.shape}/{old.dtype}"
            )
        np.copyto(arr, old)
        self._slices[rank] = arr

    def privatize(self) -> None:
        """Copy externally-backed slices back onto the private heap (see
        :meth:`VertexPropertyMap.privatize`)."""
        for r, s in enumerate(self._slices):
            if isinstance(s, np.ndarray) and not s.flags.owndata:
                self._slices[r] = s.copy()

    def __len__(self) -> int:
        return self.graph.n_edges

    def __repr__(self) -> str:  # pragma: no cover
        return f"EdgePropertyMap({self.name!r}, dtype={self.dtype})"


def weight_map_from_array(
    graph: DistributedGraph, weight_by_gid, *, name: str = "weight", strict: bool = False
) -> EdgePropertyMap:
    """Wrap a gid-aligned weight array (from the builder) as an edge map."""
    pm = EdgePropertyMap(graph, dtype="f8", default=0.0, name=name, strict=strict)
    pm.from_array(np.asarray(weight_by_gid, dtype=np.float64))
    return pm
