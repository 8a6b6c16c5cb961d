"""Connected components by parallel search (paper Sec. II-B, Figs. 3-4).

The algorithm runs concurrent searches from unclaimed vertices; each
search claims vertices into its root's component (``prnt``), and when two
searches collide the conflict is recorded *at the larger root*: a min-link
(``chg``, driving the paper's ``cc_jump`` pointer jumping) and the full
conflict pair (``conflicts``, a set-valued map using the paper's
``insert`` modification).  After the searches quiesce:

1. ``cc_jump`` is applied with the ``once`` strategy until no assignment
   happens (pointer jumping over ``chg``, exactly the paper's loop);
2. ``rewrite_cc`` computes final labels *without touching the graph* —
   "rewriting ... can be done solely on the component labels" — by a
   sequential pass over the tiny root-conflict graph.  (The Parallel BGL
   implementation the paper cites resolves root conflicts the same way;
   the min-link alone is not transitively sufficient when two regions
   only ever collide through a third.)

A second, independent CC algorithm — min-label propagation over the same
pattern machinery — is provided as :func:`cc_label_propagation`; tests use
it for cross-validation.

NULL is represented as -1 (vertex ids are non-negative).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind
from ..patterns.executor import BoundPattern
from ..runtime.machine import Machine
from ..strategies import fixed_point, once

NULL = -1


def cc_pattern() -> Pattern:
    """The paper's Fig. 4 CC patterns (cc_search + cc_jump)."""
    p = Pattern("CC")
    prnt = p.vertex_prop("prnt", "vertex", default=NULL)
    chg = p.vertex_prop("chg", "vertex", default=NULL)
    conflicts = p.vertex_prop("conflicts", "set")

    search = p.action("cc_search")
    v = search.input
    u = search.adj()
    # claim an unclaimed neighbour into v's component
    with search.when(prnt[u] == NULL):
        search.set(prnt[u], prnt[v])
    # collision: record the conflict pair at the larger root (both
    # orientations), plus the paper's min-link used by pointer jumping
    with search.when((prnt[u] != prnt[v]).and_(prnt[v] < prnt[u])):
        search.insert(conflicts[prnt[u]], prnt[v])
    with search.when((prnt[u] != prnt[v]).and_(prnt[u] < prnt[v])):
        search.insert(conflicts[prnt[v]], prnt[u])
    with search.when(
        (prnt[u] != prnt[v])
        .and_(prnt[v] < prnt[u])
        .and_((chg[prnt[u]] == NULL).or_(prnt[v] < chg[prnt[u]]))
    ):
        search.set(chg[prnt[u]], prnt[v])
    with search.when(
        (prnt[u] != prnt[v])
        .and_(prnt[u] < prnt[v])
        .and_((chg[prnt[v]] == NULL).or_(prnt[u] < chg[prnt[v]]))
    ):
        search.set(chg[prnt[v]], prnt[u])

    jump = p.action("cc_jump")
    w = jump.input
    with jump.when((chg[chg[w]] != NULL).and_(chg[chg[w]] < chg[w])):
        jump.set(chg[w], chg[chg[w]])
    return p


def connected_components(
    machine: Machine,
    graph: DistributedGraph,
    *,
    flush_budget: Optional[int] = None,
    mode: str = "optimized",
    layers: Optional[dict] = None,
    return_details: bool = False,
):
    """The paper's CC driver (Sec. II-B listing).

    ``flush_budget`` bounds each ``epoch_flush`` (None = drain fully,
    maximizing search concurrency suppression; small budgets start many
    concurrent searches, exercising the collision machinery).

    Returns the component label array; with ``return_details`` also a dict
    of run metrics (searches started, collisions, jump rounds).
    """
    if not graph.bidirectional and not _is_symmetric(graph):
        raise ValueError(
            "connected components requires an undirected graph (build with "
            "directed=False so both arcs are stored)"
        )
    bp = bind(cc_pattern(), machine, graph, mode=mode, layers=layers)
    prnt, chg = bp.map("prnt"), bp.map("chg")
    search, jump = bp["cc_search"], bp["cc_jump"]
    search.work = lambda ctx, w: search.invoke_from(ctx, w)

    # -- parallel search phase (paper lines 6-13) --------------------------
    searches = 0
    # Scalar on purpose: each start is followed by an epoch_flush, and
    # whether the next vertex starts a search depends on what that flush
    # claimed (Sec. II-B) — there is no batch of starts to hand over.
    with machine.epoch() as ep:
        for v in graph.vertices():
            if prnt[v] == NULL:
                prnt[v] = v
                searches += 1
                search.invoke(ep, v)
                ep.flush(flush_budget)  # epoch_flush: perform available work
    # -- pointer jumping (paper lines 14-17) -----------------------------------
    jump_rounds = 0
    while True:
        vs = [v for v in graph.vertices() if chg[v] != NULL]
        if not vs or not once(machine, jump, vs):
            break
        jump_rounds += 1
    # -- final rewrite (paper: rewrite_cc) -----------------------------------------
    comp = rewrite_cc(graph, bp)
    if return_details:
        return comp, {
            "searches_started": searches,
            "collisions": sum(
                len(s) for s in bp.map("conflicts").to_array() if s
            ),
            "jump_rounds": jump_rounds,
            "claims": search.change_count,
        }
    return comp


def rewrite_cc(graph: DistributedGraph, bp: BoundPattern) -> np.ndarray:
    """Final label rewrite: resolve root conflicts without graph traversal.

    Works solely on component labels: union the tiny root-conflict graph
    (from the set-valued ``conflicts`` map and the ``chg`` min-links),
    then map every vertex through its root's resolved label.
    """
    n = graph.n_vertices
    prnt = bp.map("prnt").to_array()
    chg = bp.map("chg").to_array()
    conflicts = bp.map("conflicts").to_array()

    label = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while label[x] != x:
            label[x] = label[label[x]]  # path halving
            x = int(label[x])
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            hi, lo = max(ra, rb), min(ra, rb)
            label[hi] = lo

    for r in range(n):
        if chg[r] != NULL:
            union(r, int(chg[r]))
        if conflicts[r]:
            for other in conflicts[r]:
                union(r, int(other))
    comp = np.empty(n, dtype=np.int64)
    for v in range(n):
        root = int(prnt[v]) if prnt[v] != NULL else v
        comp[v] = find(root)
    return comp


def _is_symmetric(graph: DistributedGraph) -> bool:
    src, trg = graph.edge_arrays()
    n = np.int64(graph.n_vertices)
    return bool(np.isin(trg * n + src, src * n + trg).all())


# ---------------------------------------------------------------------------
# Alternative algorithm over the same machinery: min-label propagation.
# ---------------------------------------------------------------------------


def cc_label_pattern() -> Pattern:
    """Min-label propagation: comp[u] = min(comp[u], comp[v]) over edges."""
    p = Pattern("CCLP")
    comp = p.vertex_prop("comp", "vertex", default=NULL)
    spread = p.action("spread")
    v = spread.input
    u = spread.adj()
    with spread.when(comp[v] < comp[u]):
        spread.set(comp[u], comp[v])
    return p


def cc_label_propagation(
    machine: Machine,
    graph: DistributedGraph,
    *,
    mode: str = "optimized",
    layers: Optional[dict] = None,
    bound: Optional[BoundPattern] = None,
) -> np.ndarray:
    """CC by fixed-point min-label propagation (baseline/cross-check)."""
    bp = bound or bind(cc_label_pattern(), machine, graph, mode=mode, layers=layers)
    comp = bp.map("comp")
    for v in graph.vertices():
        comp[v] = v
    fixed_point(machine, bp["spread"], list(graph.vertices()))
    return comp.to_array()
