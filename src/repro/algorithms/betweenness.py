"""Betweenness centrality (Brandes) by chained patterns.

The most demanding "more algorithms" exercise (paper Sec. VI): Brandes'
algorithm is two *phases per source*, each a pattern, chained by an
imperative driver — precisely the paper's pattern/strategy split:

1. **Forward phase** — level-synchronous BFS counting shortest paths:
   ``expand`` discovers the next frontier (``dist``), accumulates path
   counts (``sigma`` via the atomic ``add`` modification), and records
   shortest-path predecessors (``preds`` via the paper's set ``insert``).
2. **Backward phase** — dependency accumulation walks levels in reverse;
   ``push_back`` uses a *set-valued property map as the generator*
   (Sec. III-C's non-builtin generator form!) to fan out from each vertex
   to its predecessors, accumulating
   ``delta[u] += sigma[u]/sigma[v] * (1 + delta[v])``.

The driver loops sources, runs phase 1 frontier-by-frontier (one epoch
per level — sigma must be complete for level L before L+1 expands), then
phase 2 level-by-level in reverse, and adds each run's ``delta`` into the
centrality totals (unnormalized, directed-graph convention: each pair
counted once per direction, matching ``networkx`` with
``normalized=False`` on DiGraphs).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind, src, trg
from ..runtime.machine import Machine


def betweenness_pattern() -> Pattern:
    p = Pattern("BC")
    dist = p.vertex_prop("dist", float, default=math.inf)
    sigma = p.vertex_prop("sigma", float, default=0.0)
    delta = p.vertex_prop("delta", float, default=0.0)
    preds = p.vertex_prop("preds", "set")

    expand = p.action("expand")
    v = expand.input
    e = expand.out_edges()
    nd = expand.let("nd", dist[v] + 1)
    # first parent discovers the vertex...
    with expand.when(nd < dist[trg(e)]):
        expand.set(dist[trg(e)], nd)
    # ...and every same-level parent contributes paths + a predecessor
    # (independent 'if': runs whether or not the discovery just happened)
    with expand.when(dist[trg(e)] == nd):
        expand.add(sigma[trg(e)], sigma[v])
        expand.insert(preds[trg(e)], src(e))

    push = p.action("push_back")
    w = push.input
    u = push.generate_from(preds[w])
    share = push.let("share", (sigma[u] / sigma[w]) * (1.0 + delta[w]))
    with push.when(sigma[w] > 0.0):
        push.add(delta[u], share)
    return p


def betweenness_centrality(
    machine_factory,
    graph: DistributedGraph,
    *,
    sources: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Unnormalized betweenness over ``sources`` (default: all vertices).

    ``machine_factory`` is called once per source (each source binds a
    fresh pattern; message types are registered per bind).
    """
    n = graph.n_vertices
    centrality = np.zeros(n, dtype=np.float64)
    for s in sources if sources is not None else range(n):
        centrality += _single_source_dependencies(machine_factory(), graph, int(s))
    return centrality


def _single_source_dependencies(
    machine: Machine, graph: DistributedGraph, source: int
) -> np.ndarray:
    n = graph.n_vertices
    bp = bind(betweenness_pattern(), machine, graph)
    dist, sigma, delta = bp.map("dist"), bp.map("sigma"), bp.map("delta")
    dist[source] = 0.0
    sigma[source] = 1.0

    # -- phase 1: level-synchronous expansion ------------------------------
    expand = bp["expand"]
    next_frontier: set[int] = set()
    expand.work = lambda ctx, w_: next_frontier.add(int(w_))
    frontier = [source]
    levels: list[list[int]] = []
    while frontier:
        levels.append(frontier)
        next_frontier = set()
        with machine.epoch() as ep:
            expand.invoke_many(ep, frontier)
        # work fires for dist *and* sigma changes; keep only fresh vertices
        depth = len(levels)
        frontier = sorted(
            w_ for w_ in next_frontier if dist[w_] == depth
        )

    # -- phase 2: reverse dependency accumulation ---------------------------------
    push = bp["push_back"]
    push.work = None
    for level in reversed(levels[1:]):  # the source accumulates nothing back
        with machine.epoch() as ep:
            push.invoke_many(ep, level)
    out = delta.to_array()
    out[source] = 0.0
    return out


def betweenness_reference(
    n_vertices: int, sources_arr, targets_arr
) -> np.ndarray:
    """Sequential Brandes oracle (unnormalized, directed)."""
    from collections import deque

    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    for a, b in zip(sources_arr, targets_arr):
        adj[int(a)].append(int(b))
    centrality = np.zeros(n_vertices)
    for s in range(n_vertices):
        sigma = np.zeros(n_vertices)
        dist = np.full(n_vertices, -1)
        preds: list[list[int]] = [[] for _ in range(n_vertices)]
        sigma[s] = 1.0
        dist[s] = 0
        order = []
        q = deque([s])
        while q:
            v = q.popleft()
            order.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    q.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n_vertices)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
        delta[s] = 0.0
        centrality += delta
    return centrality
