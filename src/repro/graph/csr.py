"""Local compressed-sparse-row storage for one rank's vertices.

Each rank stores its owned vertices' outgoing arcs (and, when the graph is
*bidirectional* in the paper's storage sense, the incoming arcs as well).
Arrays are numpy-backed; vertex ids in ``targets`` / ``sources`` are
*global* ids, since edges routinely cross rank boundaries.

Global edge ids: arc ``i`` stored at rank ``r`` has gid
``edge_offset[r] + i``, so edge property maps index per-rank arrays
directly and ``src``/``trg`` lookups are O(1) after an O(log p) rank
search (or O(1) through the owning rank's local arrays).
"""

from __future__ import annotations

import numpy as np


class LocalCSR:
    """Out-adjacency (optionally plus in-adjacency) of one rank."""

    def __init__(
        self,
        n_local: int,
        indptr: np.ndarray,
        targets: np.ndarray,
        local_sources: np.ndarray,
        edge_offset: int,
        in_indptr: np.ndarray | None = None,
        in_sources: np.ndarray | None = None,
        in_edge_gids: np.ndarray | None = None,
    ) -> None:
        if len(indptr) != n_local + 1:
            raise ValueError("indptr must have n_local + 1 entries")
        if indptr[-1] != len(targets):
            raise ValueError("indptr[-1] must equal number of stored arcs")
        self.n_local = n_local
        self.indptr = indptr
        self.targets = targets
        # Global source id of each stored arc (aligned with targets).
        self.local_sources = local_sources
        self.edge_offset = edge_offset
        self.in_indptr = in_indptr
        self.in_sources = in_sources
        self.in_edge_gids = in_edge_gids
        # Lazily materialized gid array backing out_edge_gids views (the
        # per-call np.arange showed up hot: one allocation per fan-out).
        self._edge_gids: np.ndarray | None = None

    # -- queries (local vertex index domain) --------------------------------
    @property
    def n_edges(self) -> int:
        return len(self.targets)

    def out_degree(self, local: int) -> int:
        return int(self.indptr[local + 1] - self.indptr[local])

    def out_targets(self, local: int) -> np.ndarray:
        return self.targets[self.indptr[local] : self.indptr[local + 1]]

    def out_edge_gids(self, local: int) -> np.ndarray:
        """Global edge ids of ``local``'s out-arcs (read-only view).

        The gids of a rank's arcs are just ``edge_offset + arange(n_edges)``;
        the full array is built once on first use and sliced per call, so
        the hot fan-out loop never allocates.
        """
        g = self._edge_gids
        if g is None:
            g = np.arange(
                self.edge_offset, self.edge_offset + len(self.targets), dtype=np.int64
            )
            g.setflags(write=False)
            self._edge_gids = g
        return g[self.indptr[local] : self.indptr[local + 1]]

    def arc_by_local_eid(self, local_eid: int) -> tuple[int, int]:
        """(global src, global trg) of a locally stored arc."""
        return int(self.local_sources[local_eid]), int(self.targets[local_eid])

    # -- in-adjacency (bidirectional storage) -----------------------------------
    @property
    def bidirectional(self) -> bool:
        return self.in_indptr is not None

    def in_degree(self, local: int) -> int:
        if self.in_indptr is None:
            raise RuntimeError("graph was not built with bidirectional storage")
        return int(self.in_indptr[local + 1] - self.in_indptr[local])

    def in_source_list(self, local: int) -> np.ndarray:
        if self.in_indptr is None:
            raise RuntimeError("graph was not built with bidirectional storage")
        return self.in_sources[self.in_indptr[local] : self.in_indptr[local + 1]]

    def in_gid_list(self, local: int) -> np.ndarray:
        if self.in_indptr is None:
            raise RuntimeError("graph was not built with bidirectional storage")
        return self.in_edge_gids[self.in_indptr[local] : self.in_indptr[local + 1]]


def build_csr(
    n_local: int,
    local_of_src: np.ndarray,
    targets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort arcs by local source and build the CSR arrays.

    Returns ``(indptr, sorted_targets, order)`` where
    ``order`` is the permutation applied to the input arc arrays — callers
    apply the same permutation to weight arrays so edge gids stay aligned.
    """
    order = np.argsort(local_of_src, kind="stable")
    sorted_src = local_of_src[order]
    sorted_trg = targets[order]
    counts = np.bincount(sorted_src, minlength=n_local)
    indptr = np.zeros(n_local + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, sorted_trg, order
