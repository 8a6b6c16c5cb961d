"""Breadth-first search by pattern.

BFS is SSSP with unit weights; expressing it as its own pattern shows the
abstraction covering label-propagation traversals.  Two drivers:

* :func:`bfs_fixed_point` — asynchronous label-correcting BFS (the
  fixed-point strategy chases improvements);
* :func:`bfs_level_synchronous` — one epoch per level, the classic
  frontier BFS (a user-defined strategy built from the same primitives,
  with the frontier collected through the work hook).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind, trg
from ..patterns.executor import BoundPattern
from ..runtime.machine import Machine
from ..strategies import fixed_point


def bfs_pattern() -> Pattern:
    p = Pattern("BFS")
    depth = p.vertex_prop("depth", float, default=math.inf)
    hop = p.action("hop")
    v = hop.input
    e = hop.out_edges()
    nd = hop.let("nd", depth[v] + 1)
    with hop.when(nd < depth[trg(e)]):
        hop.set(depth[trg(e)], nd)
    return p


def bfs_fixed_point(
    machine: Machine,
    graph: DistributedGraph,
    source: int,
    *,
    mode: str = "optimized",
    layers: Optional[dict] = None,
    bound: Optional[BoundPattern] = None,
) -> np.ndarray:
    bp = bound or bind(bfs_pattern(), machine, graph, mode=mode, layers=layers)
    depth = bp.map("depth")
    if bound is not None:
        depth.fill(math.inf)  # a reused binding holds the last run's depths
    depth[source] = 0.0
    fixed_point(machine, bp["hop"], [source])
    return depth.to_array()


def bfs_level_synchronous(
    machine: Machine,
    graph: DistributedGraph,
    source: int,
    *,
    mode: str = "optimized",
    layers: Optional[dict] = None,
    return_levels: bool = False,
):
    """Frontier BFS: epoch per level; the work hook collects the next
    frontier instead of recursing (a user-defined strategy)."""
    bp = bind(bfs_pattern(), machine, graph, mode=mode, layers=layers)
    depth = bp.map("depth")
    depth[source] = 0.0
    hop = bp["hop"]

    frontier: list[int] = [source]
    next_frontier: list[int] = []
    hop.work = lambda ctx, w: next_frontier.append(w)
    levels = 0
    while frontier:
        with machine.epoch() as ep:
            hop.invoke_many(ep, frontier)
        frontier, next_frontier = next_frontier, []
        levels += 1
    arr = depth.to_array()
    return (arr, levels) if return_levels else arr


def bfs_spmd(
    machine: Machine, graph: DistributedGraph, source: int
) -> np.ndarray:
    """Level-synchronous BFS as an SPMD program (threads transport).

    Each rank owns its slice of the frontier; the work hook deposits
    newly discovered vertices with their owning rank; one collective
    epoch per level is the superstep barrier.  The distributed control
    flow mirrors the paper's Sec. III-D setting (per-rank programs with
    collective epochs), complementing the driver-style
    :func:`bfs_level_synchronous`.
    """
    bp = bind(bfs_pattern(), machine, graph)
    depth = bp.map("depth")
    depth[source] = 0.0
    hop = bp["hop"]

    frontiers: list[set[int]] = [set() for _ in range(machine.n_ranks)]

    def deposit(ctx, w: int) -> None:
        frontiers[ctx.rank].add(int(w))

    hop.work = deposit

    def program(ctx) -> None:
        if ctx.is_local(source):
            frontiers[ctx.rank].add(source)
        while True:
            mine = sorted(frontiers[ctx.rank])
            frontiers[ctx.rank].clear()
            with ctx.epoch():
                for v in mine:
                    ctx.send(hop.mtype, (v, -1, 0))
            # between the epoch-exit barrier and this check no handler is
            # running, so the collective emptiness test is stable
            ctx.barrier()
            done = all(not f for f in frontiers)
            ctx.barrier()
            if done:
                return

    machine.run_spmd(program)
    return depth.to_array()


def bfs_reference(n_vertices: int, sources, targets, source: int) -> np.ndarray:
    """Sequential BFS oracle over a raw edge list."""
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    for s, t in zip(sources, targets):
        adj[int(s)].append(int(t))
    depth = np.full(n_vertices, math.inf)
    depth[source] = 0.0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if math.isinf(depth[w]):
                    depth[w] = d
                    nxt.append(w)
        frontier = nxt
    return depth
