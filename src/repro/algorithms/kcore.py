"""k-core decomposition by iterative peeling.

The k-core of a graph is the maximal subgraph in which every vertex has
degree >= k.  Peeling removes under-degree vertices; each removal
decrements its neighbours' residual degrees — an accumulate (``add``)
modification pattern.  The "which vertices fall below k now?" scan is the
driver's local step, once more mirroring the paper's split between graph
patterns and imperative scaffolding.

Requires an undirected build (degrees are out-degrees of the symmetrized
graph).
"""

from __future__ import annotations

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind
from ..runtime.machine import Machine


def kcore_pattern() -> Pattern:
    p = Pattern("KCORE")
    deg = p.vertex_prop("deg", int)
    removed = p.vertex_prop("removed", int, default=0)

    drop = p.action("drop")
    v = drop.input
    u = drop.adj()
    with drop.when((removed[v] == 1).and_(removed[u] == 0)):
        drop.add(deg[u], -1)
    return p


def k_core(
    machine: Machine, graph: DistributedGraph, k: int
) -> np.ndarray:
    """Boolean membership of the k-core."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n = graph.n_vertices
    bp = bind(kcore_pattern(), machine, graph)
    deg, removed = bp.map("deg"), bp.map("removed")
    deg.from_array(graph.degree_histogram())

    frontier = [v for v in range(n) if deg[v] < k]
    for v in frontier:
        removed[v] = 1
    while frontier:
        with machine.epoch() as ep:
            bp["drop"].invoke_many(ep, frontier)
        frontier = [
            v for v in range(n) if removed[v] == 0 and deg[v] < k
        ]
        for v in frontier:
            removed[v] = 1
    return bp.map("removed").to_array() == 0


def core_numbers(machine_factory, graph: DistributedGraph) -> np.ndarray:
    """Core number of every vertex (max k with v in the k-core).

    ``machine_factory`` is called per k level (each peel needs a fresh
    machine since message types are registered per bind).
    """
    n = graph.n_vertices
    core = np.zeros(n, dtype=np.int64)
    k = 1
    while True:
        member = k_core(machine_factory(), graph, k)
        if not member.any():
            break
        core[member] = k
        k += 1
    return core


def core_numbers_reference(n_vertices: int, sources, targets) -> np.ndarray:
    """Sequential peeling oracle over an undirected arc list."""
    adj: list[set] = [set() for _ in range(n_vertices)]
    for s, t in zip(sources, targets):
        if s != t:
            adj[int(s)].add(int(t))
            adj[int(t)].add(int(s))
    deg = np.array([len(a) for a in adj], dtype=np.int64)
    core = np.zeros(n_vertices, dtype=np.int64)
    alive = set(range(n_vertices))
    k = 0
    while alive:
        k += 1
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                if deg[v] < k:
                    core[v] = k - 1
                    alive.discard(v)
                    for u in adj[v]:
                        if u in alive:
                            deg[u] -= 1
                    changed = True
    return core
