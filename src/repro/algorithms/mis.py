"""Maximal independent set by pattern (paper Sec. VI future work:
"experiment with more algorithms to check if the current abstraction is
powerful enough").

Luby/Jones-Plassmann style: every vertex draws a unique random priority;
in each round, an undecided vertex with no undecided lower-priority
neighbour joins the set, and its neighbours are excluded.  The graph
operations — blocking lower-priority neighbours and excluding neighbours
of winners — are patterns; the per-round selection of winners is a local,
non-graph computation in the driver (the same split as the paper's CC
rewrite phase).

States: 0 = undecided, 1 = in the MIS, 2 = excluded.
"""

from __future__ import annotations

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind
from ..runtime.machine import Machine

UNDECIDED, IN_SET, EXCLUDED = 0, 1, 2


def mis_pattern() -> Pattern:
    p = Pattern("MIS")
    prio = p.vertex_prop("prio", float)
    state = p.vertex_prop("state", int, default=UNDECIDED)
    blocked = p.vertex_prop("blocked", int, default=0)

    # an undecided vertex blocks every undecided neighbour with a larger
    # priority (so only local priority-minima stay unblocked)
    block = p.action("block")
    v = block.input
    u = block.adj()
    with block.when(
        (state[v] == UNDECIDED)
        .and_(state[u] == UNDECIDED)
        .and_(prio[v] < prio[u])
        .and_(blocked[u] == 0)
    ):
        block.set(blocked[u], 1)

    # winners exclude their neighbours
    exclude = p.action("exclude")
    w = exclude.input
    x = exclude.adj()
    with exclude.when((state[w] == IN_SET).and_(state[x] == UNDECIDED)):
        exclude.set(state[x], EXCLUDED)
    return p


def maximal_independent_set(
    machine: Machine,
    graph: DistributedGraph,
    *,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> np.ndarray:
    """Returns a boolean membership array; requires an undirected build."""
    n = graph.n_vertices
    bp = bind(mis_pattern(), machine, graph)
    prio = bp.map("prio")
    state = bp.map("state")
    blocked = bp.map("blocked")
    rng = np.random.default_rng(seed)
    prio.from_array(rng.permutation(n).astype(np.float64))

    rounds = 0
    while True:
        undecided = [v for v in range(n) if state[v] == UNDECIDED]
        if not undecided:
            break
        rounds += 1
        if rounds > max_rounds:  # pragma: no cover - defensive
            raise RuntimeError("MIS failed to converge")
        blocked.fill(0)
        with machine.epoch() as ep:
            bp["block"].invoke_many(ep, undecided)
        # local, non-graph step: unblocked undecided vertices join
        winners = [v for v in undecided if blocked[v] == 0]
        for v in winners:
            state[v] = IN_SET
        with machine.epoch() as ep:
            bp["exclude"].invoke_many(ep, winners)
    return bp.map("state").to_array() == IN_SET


def verify_mis(graph: DistributedGraph, member: np.ndarray) -> bool:
    """Independence + maximality check (test oracle)."""
    member = np.asarray(member, dtype=bool)
    src, trg = graph.edge_arrays()
    if (member[src] & member[trg] & (src != trg)).any():
        return False  # not independent
    for v in range(graph.n_vertices):
        if not member[v]:
            gids, targets = graph.out_edges(v)
            if not any(member[int(t)] for t in targets if int(t) != v):
                return False  # not maximal: v could join
    return True
