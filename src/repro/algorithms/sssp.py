"""Single-source shortest paths by pattern (paper Sec. II-A, Figs. 1-2).

The SSSP *pattern* declares the ``dist``/``weight`` property maps and the
single ``relax`` action; the *algorithms* differ only in the strategy
applied — exactly the paper's point about sharing the core operation:

* :func:`sssp_fixed_point` — ``fixed_point(relax, {s})``;
* :func:`sssp_delta_stepping` — the ``delta`` strategy with buckets;
* :func:`sssp_delta_spmd` — distributed Delta-stepping on real threads
  with per-rank buckets and ``try_finish``;
* :func:`dijkstra_reference` — a sequential label-setting oracle used by
  tests and benchmarks.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind, trg
from ..patterns.executor import BoundPattern
from ..props.property_map import EdgePropertyMap, weight_map_from_array
from ..runtime.machine import Machine
from ..strategies import delta_stepping, delta_stepping_spmd, fixed_point


def sssp_pattern() -> Pattern:
    """The paper's Fig. 2 SSSP pattern."""
    p = Pattern("SSSP")
    dist = p.vertex_prop("dist", float, default=math.inf)
    weight = p.edge_prop("weight", float)
    relax = p.action("relax")
    v = relax.input
    e = relax.out_edges()
    new_dist = relax.let("new_dist", dist[v] + weight[e])
    with relax.when(new_dist < dist[trg(e)]):
        relax.set(dist[trg(e)], new_dist)
    return p


def bind_sssp(
    machine: Machine,
    graph: DistributedGraph,
    weight_by_gid,
    *,
    mode: str = "optimized",
    layers: Optional[dict] = None,
) -> BoundPattern:
    """Bind the SSSP pattern with a weight map from builder output."""
    wmap = (
        weight_by_gid
        if isinstance(weight_by_gid, EdgePropertyMap)
        else weight_map_from_array(graph, weight_by_gid)
    )
    return bind(
        sssp_pattern(), machine, graph, props={"weight": wmap}, mode=mode, layers=layers
    )


def _init_dist(bp: BoundPattern, source: int) -> None:
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[source] = 0.0


def sssp_fixed_point(
    machine: Machine,
    graph: DistributedGraph,
    weight_by_gid,
    source: int,
    *,
    mode: str = "optimized",
    layers: Optional[dict] = None,
    bound: Optional[BoundPattern] = None,
) -> np.ndarray:
    """Fixed-point SSSP (paper Fig. 1 right / Sec. II-A)."""
    bp = bound or bind_sssp(machine, graph, weight_by_gid, mode=mode, layers=layers)
    _init_dist(bp, source)
    fixed_point(machine, bp["relax"], [source])
    return bp.map("dist").to_array()


def sssp_delta_stepping(
    machine: Machine,
    graph: DistributedGraph,
    weight_by_gid,
    source: int,
    delta: float,
    *,
    mode: str = "optimized",
    layers: Optional[dict] = None,
    bound: Optional[BoundPattern] = None,
) -> np.ndarray:
    """Delta-stepping SSSP sharing the same ``relax`` action."""
    bp = bound or bind_sssp(machine, graph, weight_by_gid, mode=mode, layers=layers)
    _init_dist(bp, source)
    delta_stepping(machine, bp["relax"], [source], bp.map("dist"), delta)
    return bp.map("dist").to_array()


def sssp_delta_spmd(
    machine: Machine,
    graph: DistributedGraph,
    weight_by_gid,
    source: int,
    delta: float,
) -> np.ndarray:
    """Distributed Delta-stepping (threads transport, per-rank buckets)."""
    bp = bind_sssp(machine, graph, weight_by_gid)
    _init_dist(bp, source)
    delta_stepping_spmd(machine, bp["relax"], [source], bp.map("dist"), delta)
    return bp.map("dist").to_array()


def sssp_pull_pattern() -> Pattern:
    """Pull-mode SSSP: a vertex improves *itself* from its in-edges.

    Requires bidirectional storage (paper Sec. III-A's storage model).
    The relax direction inverts: `update(v)` scans in_edges and lowers
    dist[v]; the work hook then re-runs `update` at v's out-neighbours
    (they may now pull a better value through v).  Push vs pull is the
    classic distributed-graph duality; both compile from the same
    abstraction.
    """
    from ..patterns import src as _src

    p = Pattern("SSSP_PULL")
    dist = p.vertex_prop("dist", float, default=math.inf)
    weight = p.edge_prop("weight", float)
    update = p.action("update")
    v = update.input
    e = update.in_edges()
    cand = update.let("cand", dist[_src(e)] + weight[e])
    with update.when(cand < dist[v]):
        update.set(dist[v], cand)
    return p


def sssp_pull(
    machine: Machine,
    graph: DistributedGraph,
    weight_by_gid,
    source: int,
) -> np.ndarray:
    """Pull-mode fixed-point SSSP (needs a bidirectional graph build)."""
    if not graph.bidirectional:
        raise ValueError("sssp_pull requires bidirectional=True graph storage")
    wmap = (
        weight_by_gid
        if isinstance(weight_by_gid, EdgePropertyMap)
        else weight_map_from_array(graph, weight_by_gid)
    )
    from ..patterns import bind as _bind

    bp = _bind(sssp_pull_pattern(), machine, graph, props={"weight": wmap})
    dist = bp.map("dist")
    dist[source] = 0.0
    update = bp["update"]

    def work(ctx, w: int) -> None:
        # w improved: its out-neighbours may now pull a better distance
        for t in graph.adj(w).tolist():
            update.invoke_from(ctx, t)

    update.work = work
    with machine.epoch() as ep:
        update.invoke_many(ep, graph.adj(source))
    return dist.to_array()


def sssp_predecessors_pattern() -> Pattern:
    """SSSP recording predecessor sets — uses the paper's own set-insert
    modification example (``preds[v].insert(u)``, Sec. III-C).

    Every improving relaxation resets the target's predecessor set to the
    new best source; equal-length alternative paths accumulate (second
    condition) so shortest-path DAG extraction is possible.
    """
    from ..patterns import src as _src

    p = Pattern("SSSP_PRED")
    dist = p.vertex_prop("dist", float, default=math.inf)
    weight = p.edge_prop("weight", float)
    preds = p.vertex_prop("preds", "set")
    relax = p.action("relax")
    v = relax.input
    e = relax.out_edges()
    nd = relax.let("new_dist", dist[v] + weight[e])
    with relax.when(nd < dist[trg(e)]):
        relax.set(dist[trg(e)], nd)
        relax.set(preds[trg(e)], None)  # clear stale predecessors
        relax.insert(preds[trg(e)], _src(e))
    with relax.when(nd == dist[trg(e)]):
        relax.insert(preds[trg(e)], _src(e))
    return p


def sssp_with_predecessors(
    machine: Machine,
    graph: DistributedGraph,
    weight_by_gid,
    source: int,
) -> tuple[np.ndarray, list]:
    """Fixed-point SSSP returning (distances, predecessor sets)."""
    wmap = (
        weight_by_gid
        if isinstance(weight_by_gid, EdgePropertyMap)
        else weight_map_from_array(graph, weight_by_gid)
    )
    from ..patterns import bind as _bind
    from ..strategies import fixed_point as _fixed_point

    bp = _bind(sssp_predecessors_pattern(), machine, graph, props={"weight": wmap})
    dist = bp.map("dist")
    dist[source] = 0.0
    _fixed_point(machine, bp["relax"], [source])
    preds = bp.map("preds").to_array()
    return dist.to_array(), [s if s else set() for s in preds]


def extract_path(preds: list, dist, source: int, target: int) -> list[int]:
    """One shortest path target->source walk from predecessor sets."""
    if not np.isfinite(dist[target]):
        return []
    path_rev = [target]
    cur = target
    while cur != source:
        parents = preds[cur]
        if not parents:
            return []  # inconsistent sets (shouldn't happen)
        cur = min(parents)
        path_rev.append(cur)
    return list(reversed(path_rev))


def dijkstra_reference(
    n_vertices: int, sources, targets, weights, source: int
) -> np.ndarray:
    """Sequential Dijkstra over a raw edge list (label-setting oracle)."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n_vertices)]
    for s, t, w in zip(sources, targets, weights):
        if w < 0:
            raise ValueError("Dijkstra requires non-negative weights")
        adj[int(s)].append((int(t), float(w)))
    dist = np.full(n_vertices, math.inf)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def dijkstra_on_graph(
    graph: DistributedGraph, weight_by_gid, source: int
) -> np.ndarray:
    """Dijkstra oracle reading a built distributed graph (test helper)."""
    srcs, trgs = graph.edge_arrays()
    ws = np.asarray(weight_by_gid)
    return dijkstra_reference(graph.n_vertices, srcs, trgs, ws, source)
