"""Distributed greedy graph coloring (Jones–Plassmann) by pattern.

Another Sec.-VI "more algorithms" exercise — and one that leans on the
set-valued property maps the paper introduces with ``preds[v].insert(u)``:
colored vertices *report* their color into each undecided neighbour's
``used`` set, and a vertex whose priority is locally maximal among
undecided neighbours picks the smallest color absent from its set (a
local non-graph step in the driver).

Colors are 0-based; the result uses at most max_degree + 1 colors.
"""

from __future__ import annotations

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind
from ..runtime.machine import Machine

UNCOLORED = -1


def coloring_pattern() -> Pattern:
    p = Pattern("COLOR")
    prio = p.vertex_prop("prio", float)
    color = p.vertex_prop("color", int, default=UNCOLORED)
    blocked = p.vertex_prop("blocked", int, default=0)
    used = p.vertex_prop("used", "set")

    # an uncolored vertex blocks uncolored neighbours of lower priority
    block = p.action("block")
    v = block.input
    u = block.adj()
    with block.when(
        (color[v] == UNCOLORED)
        .and_(color[u] == UNCOLORED)
        .and_(prio[v] > prio[u])
        .and_(blocked[u] == 0)
    ):
        block.set(blocked[u], 1)

    # a freshly colored vertex reports its color to uncolored neighbours
    report = p.action("report")
    w = report.input
    x = report.adj()
    with report.when((color[w] != UNCOLORED).and_(color[x] == UNCOLORED)):
        report.insert(used[x], color[w])
    return p


def greedy_coloring(
    machine: Machine,
    graph: DistributedGraph,
    *,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> np.ndarray:
    """Returns a color per vertex; requires an undirected build."""
    n = graph.n_vertices
    bp = bind(coloring_pattern(), machine, graph)
    prio, color, blocked, used = (
        bp.map("prio"),
        bp.map("color"),
        bp.map("blocked"),
        bp.map("used"),
    )
    rng = np.random.default_rng(seed)
    prio.from_array(rng.permutation(n).astype(np.float64))

    rounds = 0
    while True:
        uncolored = [v for v in range(n) if color[v] == UNCOLORED]
        if not uncolored:
            break
        rounds += 1
        if rounds > max_rounds:  # pragma: no cover - defensive
            raise RuntimeError("coloring failed to converge")
        blocked.fill(0)
        with machine.epoch() as ep:
            bp["block"].invoke_many(ep, uncolored)
        winners = [v for v in uncolored if blocked[v] == 0]
        # local step: pick the smallest free color
        for v in winners:
            taken = used[v] or set()
            c = 0
            while c in taken:
                c += 1
            color[v] = c
        with machine.epoch() as ep:
            bp["report"].invoke_many(ep, winners)
    return color.to_array()


def verify_coloring(graph: DistributedGraph, colors: np.ndarray) -> bool:
    colors = np.asarray(colors)
    if (colors < 0).any():
        return False
    src, trg = graph.edge_arrays()
    return not ((colors[src] == colors[trg]) & (src != trg)).any()
