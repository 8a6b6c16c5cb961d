"""Incremental recompute after graph mutations ("delta restart").

After :meth:`Machine.apply_mutations` the property maps still hold the
fixed point of the *old* graph.  Re-running an algorithm from scratch
discards all of it; these strategies instead compute the **affected
frontier** from the :class:`~repro.graph.mutate.MutationDelta`, invalidate
only the vertices whose values may have changed, and re-seed the ordinary
strategies (``fixed_point``) from the frontier.  The result is
bit-identical to a from-scratch run because the underlying operations are
monotone fixed points with a unique solution:

* **SSSP / BFS** — min-relaxation: the fixed point is the pointwise
  minimum over path sums, and every path sum is evaluated left-to-right in
  both the incremental and the from-scratch run, so even ties agree
  bitwise.
* **CC (min-label propagation)** — the fixed point is the minimum vertex
  id per component, an integer.
* **PageRank** — power iteration is *not* order-independent in floating
  point, so :class:`IncrementalPageRank` replays the exact per-iteration
  arithmetic of :func:`~repro.algorithms.pagerank.pagerank` and patches the
  stored per-iteration contribution sums with the delta.  Bit-identity
  holds when the arithmetic is exact (dyadic weights/damping, e.g.
  ``damping=0.5`` on power-of-two degree graphs); otherwise the result is
  a numerically close approximation.

Invalidation for SSSP/BFS follows the classic dependency argument: a
vertex value can only worsen if its shortest path used a removed or
weight-increased arc, and dependency flows along arcs that were *tight*
under the old distances (``dist[u] + w == dist[v]``).  We over-approximate
the closure (safe: extra invalidated vertices are simply recomputed) and
re-seed from the boundary plus the sources of inserted / weight-decreased
arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graph.distributed import DistributedGraph
from ..graph.mutate import MutationDelta
from ..patterns import bind
from ..patterns.executor import BoundPattern
from ..runtime.machine import Machine
from .fixed_point import fixed_point


@dataclass
class DeltaRestartReport:
    """What a delta-restart actually did (consumed by tests/benchmarks)."""

    values: np.ndarray
    #: vertices whose value was invalidated and recomputed
    invalidated: int = 0
    #: vertices the fixed point was re-seeded from
    seeds: int = 0
    #: True when the strategy fell back to a full recompute
    full_restart: bool = False
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# SSSP / BFS: tight-arc dependency closure + re-seeded min-relaxation.
# ---------------------------------------------------------------------------


def _arc_key(src: np.ndarray, trg: np.ndarray, n: int) -> np.ndarray:
    return src.astype(np.int64) * np.int64(n) + trg.astype(np.int64)


def _relax_delta_restart(
    machine: Machine,
    graph: DistributedGraph,
    relax,
    dist_map,
    delta: MutationDelta,
    source: int,
    weight_by_gid: Optional[np.ndarray],
) -> DeltaRestartReport:
    """Shared SSSP/BFS core.  ``weight_by_gid`` is the NEW graph's weights
    in gid order (None = unit weights)."""
    n = graph.n_vertices
    dist = np.asarray(dist_map.to_array(), dtype=np.float64)
    srcs, trgs = graph.edge_arrays()
    if weight_by_gid is None:
        w_new = np.ones(len(srcs), dtype=np.float64)
    else:
        w_new = np.asarray(weight_by_gid, dtype=np.float64)

    # Dependency closure uses the OLD weight of every surviving arc: an
    # updated arc's old tightness is what the old distances relied on.
    w_dep = w_new.copy()
    if delta.updated:
        old_by_key = {
            _scalar_key(u, v, n): old for (u, v, old, _new) in delta.updated
        }
        keys = _arc_key(srcs, trgs, n)
        for i, k in enumerate(keys.tolist()):
            if k in old_by_key:
                w_dep[i] = old_by_key[k]

    in_d = np.zeros(n, dtype=bool)
    # Direct invalidation: targets of removed / weight-increased arcs that
    # were tight under the old distances.  An unreachable source (inf)
    # never carried a dependency — dist[v] can only have flowed through a
    # finite dist[u] — so inf endpoints are skipped outright rather than
    # letting inf + w == inf cascade no-op invalidations across the whole
    # unreachable region.
    for u, v, old_w in delta.removed:
        ow = 1.0 if old_w is None else float(old_w)
        if math.isfinite(dist[u]) and dist[u] + ow == dist[v]:
            in_d[v] = True
    for u, v, old_w, new_w in delta.updated:
        if new_w > old_w and math.isfinite(dist[u]) and dist[u] + old_w == dist[v]:
            in_d[v] = True

    # Close over tight arcs w.r.t. the old distances (over-approximation:
    # an inserted arc that happens to test tight only adds recompute work).
    if len(srcs):
        tight = (dist[srcs] + w_dep == dist[trgs]) & np.isfinite(dist[srcs])
        while True:
            grow = tight & in_d[srcs] & ~in_d[trgs]
            if not grow.any():
                break
            in_d[trgs[grow]] = True

    invalidated = int(in_d.sum())
    seeds: set[int] = set()
    if invalidated:
        dist[in_d] = math.inf
        if in_d[source]:
            dist[source] = 0.0
            seeds.add(int(source))
        # Boundary: intact vertices with an arc into the invalidated set
        # push the surviving distances back in.
        if len(srcs):
            boundary = in_d[trgs] & ~in_d[srcs]
            seeds.update(int(s) for s in np.unique(srcs[boundary]))
        dist_map.from_array(dist)

    # Improvements: inserted arcs and weight decreases can lower targets
    # anywhere, invalidated or not.
    for u, _v, _w in delta.inserted:
        seeds.add(int(u))
    for u, _v, old_w, new_w in delta.updated:
        if new_w < old_w:
            seeds.add(int(u))

    # Seeding a vertex whose distance is inf relaxes nothing (inf + w is
    # never an improvement), so no filtering is needed.
    if seeds:
        fixed_point(machine, relax, sorted(seeds))
    return DeltaRestartReport(
        values=np.asarray(dist_map.to_array(), dtype=np.float64),
        invalidated=invalidated,
        seeds=len(seeds),
    )


def _scalar_key(u: int, v: int, n: int) -> int:
    return int(u) * int(n) + int(v)


def sssp_delta_restart(
    machine: Machine,
    bound: BoundPattern,
    delta: MutationDelta,
    source: int,
) -> DeltaRestartReport:
    """Incremental SSSP on a mutated graph.

    ``bound`` is the pattern previously bound via
    :func:`~repro.algorithms.sssp.bind_sssp` whose ``dist`` map holds the
    pre-mutation fixed point (property maps survive
    :meth:`Machine.apply_mutations` in place).  Returns the new distance
    array, bit-identical to a from-scratch ``sssp_fixed_point`` on the
    mutated graph.
    """
    graph = bound.graph
    weight = np.asarray(bound.map("weight").to_array(), dtype=np.float64)
    return _relax_delta_restart(
        machine, graph, bound["relax"], bound.map("dist"), delta, source, weight
    )


def bfs_delta_restart(
    machine: Machine,
    bound: BoundPattern,
    delta: MutationDelta,
    source: int,
) -> DeltaRestartReport:
    """Incremental BFS (unit-weight SSSP) on a mutated graph.

    ``bound`` is a bound :func:`~repro.algorithms.bfs.bfs_pattern` whose
    ``depth`` map holds the pre-mutation fixed point.  Weight updates in
    the delta are ignored (BFS has no weights).
    """
    graph = bound.graph
    return _relax_delta_restart(
        machine, graph, bound["hop"], bound.map("depth"), delta, source, None
    )


# ---------------------------------------------------------------------------
# Connected components: reset affected components, re-spread labels.
# ---------------------------------------------------------------------------


def cc_delta_restart(
    machine: Machine,
    bound: BoundPattern,
    delta: MutationDelta,
) -> DeltaRestartReport:
    """Incremental min-label CC on a mutated (undirected) graph.

    ``bound`` is a bound
    :func:`~repro.algorithms.cc.cc_label_pattern` whose ``comp`` map holds
    the pre-mutation labels.  Deleting an arc can split a component, so
    every vertex in a component touched by a deletion is reset to its own
    id and the labels re-spread; insertions only merge, so their endpoints
    are simply re-seeded.  Mutation batches must be built with
    ``MutationBatch(undirected=True)`` so the graph stays symmetric;
    weight updates are ignored.
    """
    graph = bound.graph
    n = graph.n_vertices
    comp_map = bound.map("comp")
    comp = np.asarray(comp_map.to_array(), dtype=np.int64)

    affected = {int(comp[u]) for (u, v, _w) in delta.removed} | {
        int(comp[v]) for (u, v, _w) in delta.removed
    }
    affected.discard(-1)
    if affected:
        reset = np.isin(comp, np.fromiter(affected, dtype=np.int64))
    else:
        reset = np.zeros(n, dtype=bool)

    seeds: set[int] = set()
    changed = False
    if reset.any():
        idx = np.flatnonzero(reset)
        comp[idx] = idx
        seeds.update(int(v) for v in idx)
        changed = True
        # Boundary: intact neighbours re-inject their (smaller) labels.
        srcs, trgs = graph.edge_arrays()
        if len(srcs):
            boundary = reset[trgs] & ~reset[srcs]
            seeds.update(int(s) for s in np.unique(srcs[boundary]))
    for u, v, _w in delta.inserted:
        seeds.add(int(u))
        seeds.add(int(v))
    for v in delta.added_vertices:
        comp[v] = v  # migration default is NULL (-1); a fresh singleton
        seeds.add(int(v))
        changed = True

    if changed:
        comp_map.from_array(comp)
    if seeds:
        fixed_point(machine, bound["spread"], sorted(seeds))
    return DeltaRestartReport(
        values=np.asarray(comp_map.to_array(), dtype=np.int64),
        invalidated=int(reset.sum()) + len(delta.added_vertices),
        seeds=len(seeds),
    )


# ---------------------------------------------------------------------------
# PageRank: replayed power iteration with patched contribution sums.
# ---------------------------------------------------------------------------


class IncrementalPageRank:
    """Power-iteration PageRank with an incremental ``recompute``.

    :meth:`run` executes exactly the arithmetic of
    :func:`~repro.algorithms.pagerank.pagerank` with ``tol=None`` (a fixed
    iteration count — convergence cutoffs would make the incremental
    replay diverge from scratch) while recording each iteration's
    contribution vector and scattered sums.  :meth:`recompute` then patches
    the stored sums per iteration:

    * removed arc ``(s, t)``: subtract the stored ``c[s]`` from ``sums[t]``;
    * inserted arc ``(s, t)``: add the stored ``c[s]``;
    * contribution changes: scatter ``c_new - c_old`` along the new graph,
      invoking only vertices whose contribution actually changed.

    With exact (dyadic) arithmetic this reproduces the from-scratch ranks
    bit-for-bit; vertex additions change ``n`` in every term, so they fall
    back to a full :meth:`run` (reported via ``full_restart``).
    """

    def __init__(
        self,
        machine: Machine,
        graph: DistributedGraph,
        *,
        damping: float = 0.85,
        iterations: int = 20,
        mode: str = "optimized",
        layers: Optional[dict] = None,
    ) -> None:
        from ..algorithms.pagerank import pagerank_pattern

        self.machine = machine
        self.graph = graph
        self.damping = damping
        self.iterations = iterations
        self._bp = bind(
            pagerank_pattern(), machine, graph, mode=mode, layers=layers
        )
        self._contrib = self._bp.map("contrib")
        self._acc = self._bp.map("acc")
        self._scatter = self._bp["scatter"]
        self._scatter.work = None  # acc is write-only; no dependencies
        self.ranks: Optional[np.ndarray] = None
        # per-iteration (contribution vector, scattered sums) trace
        self._trace: list[tuple[np.ndarray, np.ndarray]] = []

    def _out_degrees(self) -> np.ndarray:
        g = self.graph
        deg = np.zeros(g.n_vertices, dtype=np.float64)
        srcs, _trgs = g.edge_arrays()
        if len(srcs):
            np.add.at(deg, srcs, 1.0)
        return deg

    def _scatter_epoch(self, values: np.ndarray) -> np.ndarray:
        """Scatter ``values`` along out-arcs (skipping zeros); return the
        accumulated per-target sums."""
        self._contrib.from_array(values)
        self._acc.fill(0.0)
        with self.machine.epoch() as ep:
            self._scatter.invoke_many(ep, np.flatnonzero(values != 0.0))
        return np.asarray(self._acc.to_array(), dtype=np.float64)

    def run(self) -> np.ndarray:
        """Full power iteration; records the replay trace."""
        n = self.graph.n_vertices
        out_deg = self._out_degrees()
        rank = np.full(n, 1.0 / n)
        self._trace = []
        for _ in range(self.iterations):
            with np.errstate(divide="ignore", invalid="ignore"):
                c = np.where(out_deg > 0, rank / out_deg, 0.0)
            sums = self._scatter_epoch(c)
            self._trace.append((c, sums))
            dangling = rank[out_deg == 0].sum()
            rank = (1.0 - self.damping) / n + self.damping * (
                sums + dangling / n
            )
        self.ranks = rank
        return rank

    def recompute(self, delta: MutationDelta) -> DeltaRestartReport:
        """Patch the stored trace for ``delta`` and return the new ranks."""
        if self.ranks is None:
            raise RuntimeError("call run() before recompute()")
        if delta.n_vertices_after != delta.n_vertices_before:
            rank = self.run()
            return DeltaRestartReport(
                values=rank, full_restart=True, invalidated=len(rank)
            )
        n = self.graph.n_vertices
        out_deg = self._out_degrees()
        rank = np.full(n, 1.0 / n)
        new_trace: list[tuple[np.ndarray, np.ndarray]] = []
        scattered = 0
        for c_old, sums_old in self._trace:
            with np.errstate(divide="ignore", invalid="ignore"):
                c = np.where(out_deg > 0, rank / out_deg, 0.0)
            sums = sums_old.copy()
            for s, t, _w in delta.removed:
                sums[t] -= c_old[s]
            for s, t, _w in delta.inserted:
                sums[t] += c_old[s]
            d = c - c_old
            if np.any(d != 0.0):
                sums = sums + self._scatter_epoch(d)
                scattered += int(np.count_nonzero(d))
            new_trace.append((c, sums))
            dangling = rank[out_deg == 0].sum()
            rank = (1.0 - self.damping) / n + self.damping * (
                sums + dangling / n
            )
        self._trace = new_trace
        self.ranks = rank
        return DeltaRestartReport(
            values=rank,
            invalidated=scattered,
            seeds=scattered,
            details={"iterations": self.iterations},
        )
