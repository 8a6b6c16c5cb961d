"""K-source SSSP/BFS: ``(K, n)`` distance rows from K ``fixed_point`` runs.

Each source runs the paper's ordinary pattern + strategy (Sec. II-A): the
``sssp_pattern`` ``relax`` action or the ``bfs_pattern`` ``hop`` action
under :func:`~repro.strategies.fixed_point.fixed_point`, on whatever tier
the machine runs.  Row ``k`` is therefore the single-source run from
``sources[k]`` by construction, bit-for-bit on every transport, tier and
chaos schedule (``tests/strategies/test_multi_source.py`` checks it).

The pattern is bound once per machine, keyed by family, graph, weight map
and coalescing (:func:`~repro.patterns.executor.bind_once`), so a
long-lived service engine (:mod:`repro.service`) serves query after query
without growing the message registry or re-adopting maps.  Bound maps
migrate with the graph across mutations and rebalances, so one bind
serves the graph's lifetime.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns.executor import bind, bind_once
from ..props.property_map import EdgePropertyMap
from ..runtime.machine import Machine


def _layers(action: str, coalescing: Optional[int]) -> Optional[dict]:
    return {action: {"coalescing": coalescing}} if coalescing else None


def _check(graph: DistributedGraph, sources: Sequence[int]) -> None:
    if len(sources) == 0:
        raise ValueError("multi-source run needs at least one source")
    n = graph.n_vertices
    for s in sources:
        if not 0 <= int(s) < n:
            raise ValueError(f"source {s} out of range [0, {n})")


def _rows(graph: DistributedGraph, sources: Sequence[int], run) -> np.ndarray:
    """One fixed-point run per distinct source, stacked in source order."""
    done: dict = {}
    out = np.empty((len(sources), graph.n_vertices), dtype=np.float64)
    for k, s in enumerate(sources):
        s = int(s)
        if s not in done:
            done[s] = run(s)
        out[k] = done[s]
    return out


def sssp_multi(
    machine: Machine,
    graph: DistributedGraph,
    weight_by_gid,
    sources: Sequence[int],
    *,
    coalescing: Optional[int] = None,
) -> np.ndarray:
    """K SSSP queries; row ``k`` is bit-identical to a single-source run
    from ``sources[k]``.

    ``weight_by_gid`` is an :class:`EdgePropertyMap` (bound by identity)
    or a gid-aligned array, copied into the cached binding's weight map on
    every call.
    """
    from ..algorithms.sssp import bind_sssp, sssp_fixed_point

    _check(graph, sources)
    wmap = weight_by_gid if isinstance(weight_by_gid, EdgePropertyMap) else None
    bp = bind_once(
        machine,
        ("sssp", graph, wmap, coalescing),
        lambda: bind_sssp(
            machine, graph, weight_by_gid, layers=_layers("relax", coalescing)
        ),
    )
    if wmap is None:
        bp.map("weight").from_array(np.asarray(weight_by_gid, dtype=np.float64))
    return _rows(
        graph, sources, lambda s: sssp_fixed_point(machine, graph, None, s, bound=bp)
    )


def bfs_multi(
    machine: Machine,
    graph: DistributedGraph,
    sources: Sequence[int],
    *,
    coalescing: Optional[int] = None,
) -> np.ndarray:
    """K BFS traversals; row ``k`` holds depths from ``sources[k]``."""
    from ..algorithms.bfs import bfs_fixed_point, bfs_pattern

    _check(graph, sources)
    bp = bind_once(
        machine,
        ("bfs", graph, None, coalescing),
        lambda: bind(bfs_pattern(), machine, graph, layers=_layers("hop", coalescing)),
    )
    return _rows(graph, sources, lambda s: bfs_fixed_point(machine, graph, s, bound=bp))
