"""Multi-source fused SSSP/BFS: K queries, one traversal.

GraFS-style fusion (PAPERS.md) applied across *concurrent queries*: K
single-source requests over the same graph version run as one execution
sharing epochs, coalescing, and wire frames.  Every vertex holds a
K-wide distance row in a single multi-column
:class:`~repro.props.property_map.VertexPropertyMap`; a relax message
carries a candidate row ``(v, d0..dK-1)``, the handler applies an
elementwise minimum, and any improved column propagates the new row to
the out-neighbors.

Bit-identity with K sequential runs: each column's fixed point is the
minimum over per-path distance sums, which are deterministic IEEE-754
sequences independent of the other columns, and the minimum is
schedule-independent — so column ``k`` of the fused result equals the
single-source run from ``sources[k]`` bit-for-bit on every transport,
fast path, and chaos schedule.  The differential tests in
``tests/strategies/test_multi_source.py`` assert exactly this.

Runners are cached per machine keyed on ``(family, K, coalescing)``:
the message type is registered once and reused across runs, so a
long-lived service engine (:mod:`repro.service`) batches query after
query without growing the message registry.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..graph.distributed import DistributedGraph
from ..props.property_map import VertexPropertyMap, weight_map_from_array
from ..runtime.machine import Machine
from ..runtime.wire import WireBatch


class _RunState:
    """Per-run bindings for a reusable runner (maps + graph version)."""

    __slots__ = ("graph", "version", "dist", "weight", "weight_src")


class MultiSourceRunner:
    """A registered K-wide relax kernel, reusable across runs.

    Registration happens once (message-type names are registry-unique);
    the handler closes over a mutable :class:`_RunState` cell so each
    :meth:`run` can rebind maps without re-registering.  On a
    process-backed transport, rebinding adopts the new maps into shared
    memory, which triggers the transport's quiescent respawn — workers
    re-fork and see the new cell contents.
    """

    def __init__(
        self,
        machine: Machine,
        family: str,
        k: int,
        *,
        coalescing: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"multi-source width must be >= 1, got {k}")
        if family not in ("sssp", "bfs"):
            raise ValueError(f"unknown multi-source family {family!r}")
        self.machine = machine
        self.family = family
        self.k = k
        suffix = f".c{coalescing}" if coalescing else ""
        self.name = f"ms.{family}.relax.k{k}{suffix}"
        self.state: Optional[_RunState] = None
        self.mtype = machine.register(
            self.name,
            self._scalar_handler,
            address_of=lambda p: int(p[0]),
            coalescing=coalescing,
        )
        # Mirror the pattern executor: the vectorized delivery path is a
        # fast-path feature, and "native" machines get the same numpy
        # scatter (native is the vector tier plus fusion).
        if machine.fast_path in ("vector", "native"):
            self.mtype.batch_handler = self._batch_handler

    # -- handlers -----------------------------------------------------------
    def _scalar_handler(self, ctx, payload: tuple) -> None:
        st = self.state
        v = int(payload[0])
        cand = np.asarray(payload[1:], dtype=np.float64)
        row = st.dist.get(v, rank=ctx.rank)
        if not np.any(cand < row):
            return
        new = np.minimum(row, cand)
        st.dist.set(v, new, rank=ctx.rank)
        self._propagate(ctx, v, new)

    def _batch_handler(self, ctx, payloads) -> None:
        """Vectorized delivery of one coalesced envelope.

        All candidate rows scatter as one ``np.minimum.at`` (the exact
        sequential merge of every payload, see
        :meth:`VertexPropertyMap.scatter_extremum`); each destination
        whose row improved propagates its *final* row once — the same
        dependent set the scalar handler discovers, deduplicated within
        the batch.
        """
        st = self.state
        k = self.k
        if isinstance(payloads, WireBatch):
            dv = np.asarray(payloads.column(0), dtype=np.int64)
            cand = np.column_stack(
                [payloads.column(i) for i in range(1, k + 1)]
            ).astype(np.float64, copy=False)
        else:
            arr = np.asarray(payloads, dtype=np.float64)
            dv = arr[:, 0].astype(np.int64)
            cand = arr[:, 1:]
        local = st.graph.partition.local_index_array(dv)
        changed = st.dist.scatter_extremum(ctx.rank, local, cand)
        ctx.stats.count_vector_items(self.name, len(dv))
        rows_changed = changed.any(axis=1)
        if not rows_changed.any():
            return
        for v in np.unique(dv[rows_changed]):
            v = int(v)
            row = np.asarray(st.dist.get(v, rank=ctx.rank), dtype=np.float64)
            self._propagate(ctx, v, row)

    def _propagate(self, ctx, v: int, row: np.ndarray) -> None:
        st = self.state
        name = self.name
        if st.weight is None:  # BFS: every edge costs 1
            out = row + 1.0
            payload_tail = tuple(float(x) for x in out)
            for t in st.graph.adj(v):
                ctx.send(name, (int(t),) + payload_tail)
        else:
            gids, targets = st.graph.out_edges(v)
            for gid, t in zip(gids, targets):
                out = row + st.weight.get(int(gid), rank=ctx.rank)
                ctx.send(name, (int(t),) + tuple(float(x) for x in out))

    # -- driver side --------------------------------------------------------
    def run(
        self,
        graph: DistributedGraph,
        weight_by_gid,
        sources: Sequence[int],
    ) -> np.ndarray:
        """Run K fused queries; returns a ``(K, n_vertices)`` array whose
        row ``k`` is the distance/depth map from ``sources[k]``."""
        if len(sources) != self.k:
            raise ValueError(
                f"runner is {self.k}-wide but got {len(sources)} sources"
            )
        m = self.machine
        m.attach_graph(graph)
        st = self.state
        fresh = (
            st is None
            or st.graph is not graph
            or st.version != graph.version
            or st.weight_src is not weight_by_gid
        )
        if fresh:
            st = _RunState()
            st.graph = graph
            st.version = graph.version
            st.weight_src = weight_by_gid
            st.dist = VertexPropertyMap(
                graph, "f8", default=math.inf, name=f"{self.name}.dist", width=self.k
            )
            st.weight = (
                None
                if weight_by_gid is None
                else weight_map_from_array(graph, weight_by_gid, name=f"{self.name}.w")
            )
            self.state = st
            adopt = getattr(m.transport, "adopt_map", None)
            if adopt is not None:
                adopt(st.dist)
                if st.weight is not None:
                    adopt(st.weight)
            if m.checkpoints is not None:
                m.checkpoints.register_map(st.dist)
        else:
            # Same graph version and weights: refill in place.  On a
            # process transport the storage is shm-backed, so the refill
            # is visible to the existing workers without a respawn.
            st.dist.fill(math.inf)
        with m.epoch() as ep:
            for col, s in enumerate(sources):
                seed = [math.inf] * self.k
                seed[col] = 0.0
                ep.invoke(self.name, (int(s),) + tuple(seed))
        return np.ascontiguousarray(st.dist.to_array().T)


def _runner(
    machine: Machine, family: str, k: int, coalescing: Optional[int]
) -> MultiSourceRunner:
    cache = getattr(machine, "_multi_source_runners", None)
    if cache is None:
        cache = {}
        machine._multi_source_runners = cache
    key = (family, k, coalescing)
    runner = cache.get(key)
    if runner is None:
        runner = MultiSourceRunner(machine, family, k, coalescing=coalescing)
        cache[key] = runner
    return runner


def sssp_multi(
    machine: Machine,
    graph: DistributedGraph,
    weight_by_gid,
    sources: Sequence[int],
    *,
    coalescing: Optional[int] = None,
) -> np.ndarray:
    """K fused SSSP queries; row ``k`` of the result is bit-identical to
    a single-source run from ``sources[k]``."""
    return _runner(machine, "sssp", len(sources), coalescing).run(
        graph, weight_by_gid, sources
    )


def bfs_multi(
    machine: Machine,
    graph: DistributedGraph,
    sources: Sequence[int],
    *,
    coalescing: Optional[int] = None,
) -> np.ndarray:
    """K fused BFS traversals; row ``k`` holds depths from ``sources[k]``."""
    return _runner(machine, "bfs", len(sources), coalescing).run(
        graph, None, sources
    )
