"""Graph mutations: batched topology changes applied between epochs.

The paper's model (and everything downstream of it — fast-path plans,
shared-memory transports, checkpoints) assumes a frozen CSR.  Production
graph services do not get that luxury: edges appear, disappear, and
change weight while the engine is running.  This module is the bridge:
a :class:`MutationBatch` collects edge inserts/deletes/weight updates
and vertex additions, and :func:`apply_batch` applies the whole batch
*in place* on a :class:`~repro.graph.distributed.DistributedGraph` at a
quiescent moment, patching each rank's ``LocalCSR``, migrating every
registered property map, and bumping ``graph.version``.

Key design points:

* **Partition-aware routing.** Each surviving/new arc is routed to the
  rank owning its source under the (possibly rebuilt) partition.  Ranks
  with no structural change keep their ``LocalCSR`` object — only the
  ``edge_offset`` is shifted — so downstream-of-an-insert ranks pay
  O(1), not a rebuild.
* **In-place patching.** ``graph.partition``, ``graph.locals``,
  ``graph.edge_offsets`` and every map's per-rank slices are replaced on
  the *same* objects the fast paths closed over, so compiled/vector
  plans see the new topology without rebinding.
* **Gid remapping.** Deletes and inserts shift global edge ids; the
  returned :class:`MutationDelta` carries ``gid_map`` (old gid → new gid,
  ``-1`` for removed arcs) and the exact lists of inserted/removed/
  updated arcs that incremental strategies
  (:mod:`repro.strategies.incremental`) need for affected-frontier
  computation.

Driver-level orchestration (quiescence checks, transport invalidation,
cache resets, checkpoint re-registration) lives in
``Machine.apply_mutations`` — calling :func:`apply_batch` directly is
only safe on a graph no machine is actively computing on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .csr import LocalCSR, build_csr
from .distributed import DistributedGraph, _add_in_edges


class MutationError(ValueError):
    """A mutation batch is invalid for the graph it is applied to."""


# Op tuples: ("insert", u, v, weight|None) / ("delete", u, v, strict)
#            / ("update", u, v, weight)    / ("add_vertices", k)


class MutationBatch:
    """An ordered collection of topology mutations.

    ``undirected=True`` symmetrizes every edge op (insert/delete/update
    applies to both arcs, matching undirected builds which materialize
    both directions); self-loops are not doubled.

    Deleting the same (u, v) pair twice within one batch is an idempotent
    no-op; deleting an absent pair raises :class:`MutationError` unless
    ``strict=False``.  Deleting a pair with parallel arcs removes *all*
    of them.
    """

    def __init__(self, *, undirected: bool = False) -> None:
        self.undirected = undirected
        self.ops: list[tuple] = []
        self.vertices_added = 0

    # -- recording -----------------------------------------------------------
    def insert_edge(self, u: int, v: int, weight: Optional[float] = None) -> "MutationBatch":
        self._check_ids(u, v)
        self.ops.append(("insert", int(u), int(v), weight))
        return self

    def delete_edge(self, u: int, v: int, *, strict: bool = True) -> "MutationBatch":
        self._check_ids(u, v)
        self.ops.append(("delete", int(u), int(v), bool(strict)))
        return self

    def update_weight(self, u: int, v: int, weight: float) -> "MutationBatch":
        self._check_ids(u, v)
        self.ops.append(("update", int(u), int(v), float(weight)))
        return self

    def add_vertices(self, k: int) -> "MutationBatch":
        if k < 0:
            raise MutationError("add_vertices: k must be >= 0")
        self.vertices_added += int(k)
        return self

    @staticmethod
    def _check_ids(u: int, v: int) -> None:
        if u < 0 or v < 0:
            raise MutationError(f"vertex ids must be >= 0, got ({u}, {v})")

    def __len__(self) -> int:
        return len(self.ops) + (1 if self.vertices_added else 0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MutationBatch(ops={len(self.ops)}, +vertices={self.vertices_added}, "
            f"undirected={self.undirected})"
        )

    # -- checkpoint round-trip -----------------------------------------------
    def to_state(self) -> dict:
        """Plain-data form (stable_dumps-able) for checkpoint capture."""
        return {
            "undirected": self.undirected,
            "vertices_added": self.vertices_added,
            "ops": [tuple(op) for op in self.ops],
        }

    @classmethod
    def from_state(cls, state: dict) -> "MutationBatch":
        batch = cls(undirected=bool(state["undirected"]))
        batch.vertices_added = int(state["vertices_added"])
        batch.ops = [tuple(op) for op in state["ops"]]
        return batch


@dataclass
class MutationDelta:
    """What :func:`apply_batch` actually did — consumed by incremental
    strategies to compute affected frontiers.

    Arc lists hold global vertex ids; ``removed``/``updated`` report the
    *old* weight (``None`` when no weight map was attached) so decremental
    SSSP can test tightness against the pre-mutation distances.
    """

    inserted: list[tuple[int, int, Optional[float]]] = field(default_factory=list)
    removed: list[tuple[int, int, Optional[float]]] = field(default_factory=list)
    updated: list[tuple[int, int, float, float]] = field(default_factory=list)  # (u, v, old, new)
    n_vertices_before: int = 0
    n_vertices_after: int = 0
    version: int = 0
    #: old gid -> new gid; -1 for removed arcs.  Empty when the old graph
    #: had no edges.
    gid_map: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: new gid of each inserted arc, aligned with ``inserted``.
    inserted_gids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    @property
    def added_vertices(self) -> range:
        return range(self.n_vertices_before, self.n_vertices_after)


def _expand_ops(batch: MutationBatch) -> list[tuple]:
    """Symmetrize ops for undirected batches (skip reverse of self-loops)."""
    if not batch.undirected:
        return list(batch.ops)
    out: list[tuple] = []
    for op in batch.ops:
        out.append(op)
        kind, u, v = op[0], op[1], op[2]
        if u != v:
            out.append((kind, v, u) + op[3:])
    return out


def _check_private(pm, what: str) -> None:
    """Refuse to migrate shared-memory-backed storage (satellite: growing a
    map whose slices are views into a live shm segment would write past or
    desync the segment other processes still map)."""
    for s in pm._slices:
        if isinstance(s, np.ndarray) and not s.flags.owndata:
            raise ValueError(
                f"{pm.name}: cannot {what} while rank storage is adopted by a "
                "shared-memory transport; use Machine.apply_mutations (it "
                "quiesces and releases the segments first) or call "
                "transport.invalidate_graph() / pm.privatize() before "
                "apply_batch"
            )


def apply_batch(
    graph: DistributedGraph,
    batch: MutationBatch,
    *,
    weight_map=None,
    default_weight: float = 1.0,
) -> MutationDelta:
    """Apply ``batch`` to ``graph`` in place; returns a :class:`MutationDelta`.

    ``weight_map`` is the edge property map carrying weights (if any): it
    receives inserted-arc weights (``default_weight`` when the insert gave
    none) and weight updates, and supplies the old weights recorded in the
    delta.  Every other edge map registered on the graph is migrated with
    its own default for inserted arcs; vertex maps grow with their default
    when vertices are added.

    The caller is responsible for quiescence — no in-flight messages, no
    active epoch (``Machine.apply_mutations`` enforces this).
    """
    part = graph.partition
    n_old = graph.n_vertices
    n_ranks = graph.n_ranks
    m_old = graph.n_edges
    old_offsets = graph.edge_offsets.copy()
    # Rebuilt LocalCSRs come back without in-arrays, so record the storage
    # model before touching anything.
    was_bidirectional = graph.bidirectional

    ops = _expand_ops(batch)
    n_new = n_old + batch.vertices_added

    # -- validate ------------------------------------------------------------
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, u, v, w = op
            if u >= n_new or v >= n_new:
                raise MutationError(
                    f"insert ({u}, {v}): vertex id out of range [0, {n_new}) "
                    "(add_vertices before inserting arcs to new vertices)"
                )
            if w is not None and weight_map is None:
                raise MutationError(
                    f"insert ({u}, {v}) carries a weight but no weight_map "
                    "was passed to apply"
                )
        else:
            _, u, v = op[0], op[1], op[2]
            if u >= n_old or v >= n_old:
                raise MutationError(
                    f"{kind} ({u}, {v}): vertex id out of range [0, {n_old})"
                )
            if kind == "update" and weight_map is None:
                raise MutationError(
                    f"update_weight ({u}, {v}) requires a weight_map"
                )

    # -- snapshot old arcs and weights (gid order) ---------------------------
    old_src, old_trg = graph.edge_arrays()
    if weight_map is not None:
        _check_private(weight_map, "apply mutations")
        w_work = np.asarray(weight_map.to_array(), dtype=np.float64).copy()
        # Old weights reported in the delta are always the *start-of-batch*
        # values: incremental strategies test path tightness against the
        # pre-mutation distances, so a chained update→delete must not leak
        # an intermediate weight that was never in effect.
        w_orig = w_work.copy()
    else:
        w_work = w_orig = None

    # Keys uniquely identify (u, v) pairs: endpoints of old arcs are < n_new.
    keys = old_src * n_new + old_trg if m_old else np.empty(0, dtype=np.int64)
    keep = np.ones(m_old, dtype=bool)
    deleted_pairs: set[tuple[int, int]] = set()
    delta = MutationDelta(n_vertices_before=n_old, n_vertices_after=n_new)
    ins_src: list[int] = []
    ins_trg: list[int] = []
    ins_w: list[float] = []

    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, u, v, w = op
            wv = default_weight if w is None else float(w)
            ins_src.append(u)
            ins_trg.append(v)
            ins_w.append(wv)
            delta.inserted.append((u, v, wv if weight_map is not None else None))
        elif kind == "delete":
            _, u, v, strict = op
            hits = np.flatnonzero((keys == u * n_new + v) & keep)
            if len(hits) == 0:
                if (u, v) in deleted_pairs or not strict:
                    continue  # idempotent repeat / relaxed mode
                raise MutationError(f"delete ({u}, {v}): no such arc")
            deleted_pairs.add((u, v))
            keep[hits] = False
            for i in hits:
                delta.removed.append(
                    (u, v, float(w_orig[i]) if w_orig is not None else None)
                )
        elif kind == "update":
            _, u, v, w = op
            hits = np.flatnonzero((keys == u * n_new + v) & keep)
            if len(hits) == 0:
                raise MutationError(f"update_weight ({u}, {v}): no such arc")
            for i in hits:
                delta.updated.append((u, v, float(w_orig[i]), float(w)))
                w_work[i] = w
        else:  # pragma: no cover - ops are built by MutationBatch only
            raise MutationError(f"unknown mutation op {kind!r}")

    # -- new arc list (kept + inserted), tagged with origin ------------------
    kept_idx = np.flatnonzero(keep)
    ins_src_a = np.asarray(ins_src, dtype=np.int64)
    ins_trg_a = np.asarray(ins_trg, dtype=np.int64)
    all_src = np.concatenate([old_src[kept_idx], ins_src_a])
    all_trg = np.concatenate([old_trg[kept_idx], ins_trg_a])
    # origin: old gid for kept arcs; -(j + 2) for the j-th inserted arc.
    all_orig = np.concatenate(
        [kept_idx, -(np.arange(len(ins_src_a), dtype=np.int64) + 2)]
    )
    if w_work is not None:
        all_w = np.concatenate([w_work[kept_idx], np.asarray(ins_w, dtype=np.float64)])
    else:
        all_w = None

    # -- vertex-map values must be gathered under the OLD partition ----------
    vertex_maps = list(graph._vertex_maps)
    old_vertex_values: dict[int, Any] = {}
    if n_new != n_old:
        for pm in vertex_maps:
            _check_private(pm, "grow for new vertices")
            old_vertex_values[id(pm)] = pm.to_array()

    # -- partition (vertex adds reshuffle ownership for block/hash; degree-
    # aware partitions keep existing placements and only assign new ids) ----
    if n_new != n_old:
        new_part = part.grow(n_new)
    else:
        new_part = part

    # -- route arcs and rebuild affected ranks -------------------------------
    # Structural change at a rank: it gained or lost an arc.  Vertex adds
    # can reshuffle every rank's vertex set, so everything rebuilds then.
    if n_new != n_old:
        affected = set(range(n_ranks))
    else:
        affected = set()
        for i in np.flatnonzero(~keep):
            affected.add(int(part.owner(int(old_src[i]))))
        if len(ins_src_a):
            affected.update(int(r) for r in new_part.owner_array(ins_src_a))

    owners = (
        new_part.owner_array(all_src) if len(all_src) else np.empty(0, dtype=np.int64)
    )
    gid_map = np.full(m_old, -1, dtype=np.int64)
    inserted_gids = np.full(len(ins_src_a), -1, dtype=np.int64)
    new_locals: list[LocalCSR] = []
    new_offsets = np.zeros(n_ranks + 1, dtype=np.int64)
    # For affected ranks: origin array in final (CSR-sorted) arc order,
    # reused below to migrate edge-map slices.
    rank_orig: dict[int, np.ndarray] = {}

    offset = 0
    for rank in range(n_ranks):
        if rank not in affected:
            # No structural change here: keep the CSR object, shift its gid
            # base, and invalidate the lazily-cached gid array.
            csr = graph.locals[rank]
            lo, hi = int(old_offsets[rank]), int(old_offsets[rank + 1])
            csr.edge_offset = offset
            csr._edge_gids = None
            gid_map[lo:hi] = offset + np.arange(hi - lo, dtype=np.int64)
            new_locals.append(csr)
            offset += hi - lo
        else:
            mine = np.flatnonzero(owners == rank)
            n_local = new_part.rank_size(rank)
            local_src = new_part.local_index_array(all_src[mine])
            indptr, sorted_trg, order = build_csr(n_local, local_src, all_trg[mine])
            sorted_global_src = all_src[mine][order]
            orig = all_orig[mine][order]
            new_locals.append(
                LocalCSR(n_local, indptr, sorted_trg, sorted_global_src, offset)
            )
            rank_orig[rank] = orig
            kept_here = orig >= 0
            gid_map[orig[kept_here]] = offset + np.flatnonzero(kept_here)
            ins_here = np.flatnonzero(orig < -1)
            inserted_gids[-(orig[ins_here] + 2)] = offset + ins_here
            offset += len(mine)
        new_offsets[rank + 1] = offset

    # -- migrate edge maps ----------------------------------------------------
    edge_maps = [pm for pm in graph._edge_maps if pm is not weight_map]
    for pm in edge_maps:
        _check_private(pm, "remap edge storage")
    old_edge_values: dict[int, Any] = {
        id(pm): pm.to_array() for pm in edge_maps
    }

    def migrate_edge_map(pm, values_for) -> None:
        """Replace affected slices; unaffected slices keep their storage
        (content is position-stable there — only the gid base moved)."""
        for rank in affected:
            orig = rank_orig[rank]
            pm._slices[rank] = values_for(pm, orig)
        if pm.dirty is not None:
            pm.dirty.mark_all()

    for pm in edge_maps:
        old_vals = old_edge_values[id(pm)]

        def generic_values(pm, orig, _old=old_vals):
            if pm.is_numeric:
                arr = np.empty(len(orig), dtype=pm.dtype)
                arr[:] = pm.default
                mask = orig >= 0
                arr[mask] = np.asarray(_old)[orig[mask]]
                return arr
            d = pm.default
            return [
                _old[o] if o >= 0 else (d() if callable(d) else d) for o in orig
            ]

        migrate_edge_map(pm, generic_values)

    if weight_map is not None:
        # New weights (updates + insert weights) live in all_w, indexed by
        # pre-route position: kept arc with old gid o sits at
        # pos_of_old[o], the j-th inserted arc at len(kept_idx) + j.
        pos_of_old = np.full(m_old, -1, dtype=np.int64)
        pos_of_old[kept_idx] = np.arange(len(kept_idx), dtype=np.int64)

        def weight_values(pm, orig):
            vals = np.empty(len(orig), dtype=np.float64)
            kept_mask = orig >= 0
            vals[kept_mask] = all_w[pos_of_old[orig[kept_mask]]]
            ins_mask = ~kept_mask
            vals[ins_mask] = all_w[len(kept_idx) + (-(orig[ins_mask] + 2))]
            return vals

        migrate_edge_map(weight_map, weight_values)
        # Updates landing on *unaffected* ranks: arc positions there are
        # unchanged, so overwrite the kept slice content wholesale.
        for rank in range(n_ranks):
            if rank in affected:
                continue
            lo, hi = int(old_offsets[rank]), int(old_offsets[rank + 1])
            s = weight_map._slices[rank]
            if isinstance(s, np.ndarray) and hi > lo:
                s[:] = w_work[lo:hi]
        if weight_map.dirty is not None:
            weight_map.dirty.mark_all()

    # -- swap graph topology in place ----------------------------------------
    graph.partition = new_part
    graph.locals = new_locals
    graph.edge_offsets = new_offsets

    # -- grow vertex maps ------------------------------------------------------
    if n_new != n_old:
        for pm in vertex_maps:
            old_vals = old_vertex_values[id(pm)]
            new_slices = []
            for r in range(n_ranks):
                globals_ = new_part.local_vertices(r)
                if pm.is_numeric:
                    arr = np.empty(len(globals_), dtype=pm.dtype)
                    arr[:] = pm.default
                    mask = globals_ < n_old
                    arr[mask] = np.asarray(old_vals)[globals_[mask]]
                    new_slices.append(arr)
                else:
                    d = pm.default
                    new_slices.append(
                        [
                            old_vals[int(g)]
                            if g < n_old
                            else (d() if callable(d) else d)
                            for g in globals_
                        ]
                    )
            pm._slices = new_slices
            if pm.dirty is not None:
                pm.dirty.mark_all()
        for lm in list(graph._lockmaps):
            lm.grow(n_new)

    # -- rebuild in-adjacency (gids shifted even for untouched vertices) ------
    if was_bidirectional:
        _add_in_edges(graph)

    graph.version += 1
    delta.version = graph.version
    delta.gid_map = gid_map
    delta.inserted_gids = inserted_gids
    return delta


def repartition(graph: DistributedGraph, new_partition) -> np.ndarray:
    """Re-place every vertex (and hence every stored arc) under
    ``new_partition``, in place; returns ``gid_map`` (old gid -> new gid).

    The logical graph and every property value are preserved exactly —
    only *placement* changes: per-rank ``LocalCSR`` storage, edge gids
    (arcs are renumbered by their new owning rank), and every registered
    map's per-rank slices.  The rank count may change, which is what
    ``Machine.rebalance`` builds elasticity on: vertex values are keyed
    by global id and edge values by old gid, so both survive any
    ownership shuffle.

    Like :func:`apply_batch`, this patches ``graph.partition`` /
    ``graph.locals`` / ``graph.edge_offsets`` and each map's ``_slices``
    on the *same* objects the fast paths closed over, so bound plans see
    the new placement without rebinding.  The caller owns quiescence and
    transport invalidation (``Machine.rebalance`` enforces both);
    shared-memory-adopted storage is refused.
    """
    n = graph.n_vertices
    if new_partition.n_vertices != n:
        raise MutationError(
            f"repartition: new partition covers {new_partition.n_vertices} "
            f"vertices but the graph has {n}"
        )
    was_bidirectional = graph.bidirectional
    src, trg = graph.edge_arrays()
    m = len(src)
    p_new = new_partition.n_ranks

    # -- snapshot map values under the OLD placement -------------------------
    vertex_maps = list(graph._vertex_maps)
    edge_maps = list(graph._edge_maps)
    for pm in vertex_maps + edge_maps:
        _check_private(pm, "repartition")
    old_vertex_values = {id(pm): pm.to_array() for pm in vertex_maps}
    old_edge_values = {id(pm): pm.to_array() for pm in edge_maps}

    # -- rebuild every rank's CSR under the new ownership --------------------
    owners = (
        np.asarray(new_partition.owner_array(src), dtype=np.int64)
        if m
        else np.empty(0, dtype=np.int64)
    )
    local_src_all = (
        np.asarray(new_partition.local_index_array(src), dtype=np.int64)
        if m
        else np.empty(0, dtype=np.int64)
    )
    gid_map = np.empty(m, dtype=np.int64)
    new_locals: list[LocalCSR] = []
    new_offsets = np.zeros(p_new + 1, dtype=np.int64)
    rank_orig: list[np.ndarray] = []  # old gid of each arc, new CSR order
    offset = 0
    for rank in range(p_new):
        mine = np.flatnonzero(owners == rank)
        n_local = new_partition.rank_size(rank)
        indptr, sorted_trg, order = build_csr(n_local, local_src_all[mine], trg[mine])
        orig = mine[order]
        gid_map[orig] = offset + np.arange(len(mine), dtype=np.int64)
        new_locals.append(
            LocalCSR(n_local, indptr, sorted_trg, src[orig], offset)
        )
        rank_orig.append(orig)
        offset += len(mine)
        new_offsets[rank + 1] = offset

    graph.partition = new_partition
    graph.locals = new_locals
    graph.edge_offsets = new_offsets

    # -- migrate maps onto the new per-rank layout ---------------------------
    for pm in edge_maps:
        old_vals = old_edge_values[id(pm)]
        if pm.is_numeric:
            arr = np.asarray(old_vals)
            pm._slices = [arr[orig] for orig in rank_orig]
        else:
            pm._slices = [
                [old_vals[int(o)] for o in orig] for orig in rank_orig
            ]
        if pm.dirty is not None:
            pm.dirty.mark_all()
    for pm in vertex_maps:
        old_vals = old_vertex_values[id(pm)]
        if pm.is_numeric:
            arr = np.asarray(old_vals)
            pm._slices = [
                arr[new_partition.local_vertices(r)] for r in range(p_new)
            ]
        else:
            pm._slices = [
                [old_vals[int(g)] for g in new_partition.local_vertices(r)]
                for r in range(p_new)
            ]
        if pm.dirty is not None:
            pm.dirty.mark_all()
    # Lock maps are keyed by global vertex id, not placement: nothing moves.

    if was_bidirectional:
        _add_in_edges(graph)

    graph.version += 1
    return gid_map
