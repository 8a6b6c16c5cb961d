"""Bulk graph construction with weights and undirected closure.

``GraphBuilder`` accumulates edges (with optional per-edge weights) as
array chunks, handles deduplication and self-loop policy, symmetrizes
undirected inputs (both arcs stored, sharing the weight, as the paper's CC
example expects of ``adj``), and produces a
:class:`~repro.graph.distributed.DistributedGraph` plus weight arrays
aligned with global edge ids.

Edges go in through :meth:`GraphBuilder.add_edges` in one of two forms:

* an ``(m, 2)`` ndarray of endpoint ids, taken as is (cast to int64);
* any other iterable of ``(u, v)`` pairs — a list of tuples, a ``zip`` of
  two lists, rows of an array — read in one pass into an ``(m, 2)`` array.

Either way the batch is validated and filtered with array operations, not
per edge.  :meth:`GraphBuilder.add_edge` is the one-pair form of the same
call, so interleaved ``add_edge``/``add_edges`` calls keep their order.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .distributed import DistributedGraph, from_edges
from .partition import Partition


class GraphBuilder:
    """Collect edges, then :meth:`build` a distributed graph."""

    def __init__(
        self,
        n_vertices: int,
        *,
        directed: bool = True,
        allow_self_loops: bool = True,
        deduplicate: bool = False,
    ) -> None:
        self.n_vertices = n_vertices
        self.directed = directed
        self.allow_self_loops = allow_self_loops
        self.deduplicate = deduplicate
        # Accepted batches, in call order: int64 endpoint columns and (for a
        # weighted builder) float64 weights.
        self._src: list[np.ndarray] = []
        self._trg: list[np.ndarray] = []
        self._weights: list[np.ndarray] = []
        self._n_pending = 0
        self._has_weights: Optional[bool] = None

    def add_edge(self, u: int, v: int, weight: Optional[float] = None) -> "GraphBuilder":
        """Add one arc; the one-pair form of :meth:`add_edges`."""
        return self.add_edges(((u, v),), None if weight is None else (weight,))

    def add_edges(self, edges, weights=None) -> "GraphBuilder":
        """Add a batch of arcs ``edges`` with optional per-arc ``weights``.

        ``edges`` is an ``(m, 2)`` integer ndarray or any iterable of
        ``(u, v)`` pairs; ``weights`` is ``None`` or a sequence of ``m``
        reals.  Self-loops are dropped when the builder disallows them.

        The call is atomic: it raises before storing anything, and checks
        in this order —

        * ``ValueError`` if an item of ``edges`` is not a ``(u, v)`` pair;
        * ``ValueError`` if ``weights`` does not have one entry per edge;
        * ``ValueError`` "edge (u, v) out of range" naming the first edge
          with an endpoint outside ``[0, n_vertices)``;
        * ``ValueError`` "either all edges have weights or none do" if the
          batch's kept edges disagree with earlier ones about weights.
        """
        n = self.n_vertices
        pairs = _as_pairs(edges, n)
        w = None
        if weights is not None:
            w = np.array(
                weights if hasattr(weights, "__len__") else list(weights),
                dtype=np.float64,
            )
            if w.ndim != 1 or len(w) != len(pairs):
                raise ValueError(
                    f"{len(pairs)} edges but {w.size} weights: "
                    "weights must have one entry per edge"
                )
        src, trg = pairs[:, 0], pairs[:, 1]
        out = (src < 0) | (src >= n) | (trg < 0) | (trg >= n)
        if out.any():
            i = int(np.argmax(out))
            _raise_out_of_range(src[i], trg[i], n)
        if self.allow_self_loops:
            src, trg = src.copy(), trg.copy()
        else:
            keep = src != trg
            src, trg = src[keep], trg[keep]
            if w is not None:
                w = w[keep]
        if len(src) == 0:
            return self
        if self._has_weights is not None and self._has_weights != (w is not None):
            raise ValueError("either all edges have weights or none do")
        self._has_weights = w is not None
        self._src.append(src)
        self._trg.append(trg)
        if w is not None:
            self._weights.append(w)
        self._n_pending += len(src)
        return self

    @property
    def n_pending_edges(self) -> int:
        return self._n_pending

    def build(
        self,
        *,
        n_ranks: int = 4,
        partition: str | Partition = "block",
        bidirectional: bool = False,
    ) -> tuple[DistributedGraph, Optional[np.ndarray]]:
        """Build; returns (graph, weight_by_gid or None)."""
        src = _concat(self._src, np.int64)
        trg = _concat(self._trg, np.int64)
        w = _concat(self._weights, np.float64) if self._has_weights else None

        if not self.directed:
            # Symmetrize: store the reverse arc with the same weight.
            # Self-loops are not duplicated.
            non_loop = src != trg
            src, trg, w_all = (
                np.concatenate([src, trg[non_loop]]),
                np.concatenate([trg, src[non_loop]]),
                (np.concatenate([w, w[non_loop]]) if w is not None else None),
            )
            w = w_all

        if self.deduplicate and len(src):
            key = src * np.int64(self.n_vertices) + trg
            _, keep = np.unique(key, return_index=True)
            keep.sort()
            src, trg = src[keep], trg[keep]
            if w is not None:
                w = w[keep]

        graph, gid_of_input = from_edges(
            self.n_vertices,
            src,
            trg,
            n_ranks=n_ranks,
            partition=partition,
            bidirectional=bidirectional,
        )
        if w is None:
            return graph, None
        weight_by_gid = np.empty(graph.n_edges, dtype=np.float64)
        weight_by_gid[gid_of_input] = w
        return graph, weight_by_gid


def _as_pairs(edges, n_vertices: int) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array (see :meth:`GraphBuilder.add_edges`)."""
    if isinstance(edges, np.ndarray):
        if edges.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(
                f"an edge array must have shape (m, 2), not {edges.shape}"
            )
        return edges.astype(np.int64, copy=False)
    items = edges if isinstance(edges, (list, tuple)) else list(edges)
    try:
        lens = np.fromiter(map(len, items), dtype=np.intp, count=len(items))
    except TypeError:  # an item without a length (an int, say)
        lens = np.array(
            [len(e) if hasattr(e, "__len__") else -1 for e in items], dtype=np.intp
        )
    bad = np.flatnonzero(lens != 2)
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"edge #{i} ({items[i]!r}) is not a (u, v) pair")
    try:
        flat = np.fromiter(
            itertools.chain.from_iterable(items), dtype=np.int64, count=2 * len(items)
        )
    except OverflowError:
        # An endpoint beyond int64 is out of range; name the first such edge.
        for u, v in items:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                _raise_out_of_range(u, v, n_vertices)
        raise
    return flat.reshape(-1, 2)


def _raise_out_of_range(u, v, n_vertices: int):
    raise ValueError(f"edge ({u}, {v}) out of range [0, {n_vertices})")


def _concat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)


def build_graph(
    n_vertices: int,
    edges,
    *,
    weights=None,
    directed: bool = True,
    n_ranks: int = 4,
    partition: str | Partition = "block",
    bidirectional: bool = False,
    deduplicate: bool = False,
) -> tuple[DistributedGraph, Optional[np.ndarray]]:
    """One-shot convenience over :class:`GraphBuilder` (see
    :meth:`GraphBuilder.add_edges` for the accepted ``edges``/``weights``)."""
    b = GraphBuilder(n_vertices, directed=directed, deduplicate=deduplicate)
    b.add_edges(edges, weights)
    return b.build(n_ranks=n_ranks, partition=partition, bidirectional=bidirectional)
