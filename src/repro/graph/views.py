"""Derived graphs: reversal and induced subgraphs.

Non-morphing transformations that *build new graphs* (the paper's
framework forbids in-place mutation; deriving a fresh distributed graph
is the sanctioned route).  Weight arrays are remapped alongside so edge
property data follows the structure.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .distributed import DistributedGraph, from_edges
from .partition import Partition


def reverse_graph(
    graph: DistributedGraph,
    weight_by_gid=None,
    *,
    partition: str | Partition = "block",
) -> tuple[DistributedGraph, Optional[np.ndarray]]:
    """A new graph with every arc flipped (pull-style algorithms without
    bidirectional storage); weights follow their arcs."""
    src, trg = graph.edge_arrays()
    g2, gids = from_edges(
        graph.n_vertices,
        trg,
        src,
        n_ranks=graph.n_ranks,
        partition=partition,
    )
    if weight_by_gid is None:
        return g2, None
    out = np.empty(g2.n_edges)
    out[gids] = np.asarray(weight_by_gid)
    return g2, out


def induced_subgraph(
    graph: DistributedGraph,
    keep,
    weight_by_gid=None,
    *,
    partition: str | Partition = "block",
) -> tuple[DistributedGraph, Optional[np.ndarray], np.ndarray]:
    """The subgraph induced by ``keep`` (boolean mask or vertex iterable).

    Returns ``(subgraph, weights, old_id_of_new)`` — vertices are
    relabeled densely; ``old_id_of_new[i]`` maps back to the original id.
    """
    keep_in = np.asarray(keep if isinstance(keep, np.ndarray) else list(keep))
    keep_arr = np.zeros(graph.n_vertices, dtype=bool)
    if keep_in.dtype == bool:
        if len(keep_in) != graph.n_vertices:
            raise ValueError("boolean mask must cover every vertex")
        keep_arr[:] = keep_in
    else:
        keep_arr[keep_in.astype(np.int64)] = True
    old_of_new = np.flatnonzero(keep_arr)
    new_of_old = np.full(graph.n_vertices, -1, dtype=np.int64)
    new_of_old[old_of_new] = np.arange(len(old_of_new))

    src, trg = graph.edge_arrays()
    kept = keep_arr[src] & keep_arr[trg]
    g2, gids = from_edges(
        len(old_of_new),
        new_of_old[src[kept]],
        new_of_old[trg[kept]],
        n_ranks=graph.n_ranks,
        partition=partition,
    )
    if weight_by_gid is None:
        return g2, None, old_of_new
    out = np.empty(g2.n_edges)
    out[gids] = np.asarray(weight_by_gid)[kept]
    return g2, out, old_of_new
