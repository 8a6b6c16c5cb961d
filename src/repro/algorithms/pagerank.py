"""PageRank by pattern (an "experiment with more algorithms", paper
Sec. VI future work).

Uses the accumulate modification (``acc[trg(e)] += contrib[v]``): each
iteration scatters contributions along out-edges inside one epoch, then
the driver applies the damping update locally (a non-graph computation,
like the paper's ``rewrite_cc``).  A reduction layer can combine
same-target contributions in flight — the AM++ "reduction" feature on a
sum monoid.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind, trg
from ..patterns.executor import BoundPattern
from ..runtime.machine import Machine


def pagerank_pattern() -> Pattern:
    p = Pattern("PR")
    contrib = p.vertex_prop("contrib", float, default=0.0)
    acc = p.vertex_prop("acc", float, default=0.0)
    scatter = p.action("scatter")
    v = scatter.input
    e = scatter.out_edges()
    with scatter.when(contrib[v] != 0.0):
        scatter.add(acc[trg(e)], contrib[v])
    return p


def pagerank(
    machine: Machine,
    graph: DistributedGraph,
    *,
    damping: float = 0.85,
    iterations: int = 20,
    tol: Optional[float] = 1e-9,
    mode: str = "optimized",
    layers: Optional[dict] = None,
    bound: Optional[BoundPattern] = None,
) -> np.ndarray:
    """Power-iteration PageRank; dangling mass redistributed uniformly."""
    n = graph.n_vertices
    if n == 0:
        return np.empty(0)
    bp = bound or bind(pagerank_pattern(), machine, graph, mode=mode, layers=layers)
    contrib, acc = bp.map("contrib"), bp.map("acc")
    scatter = bp["scatter"]
    scatter.work = None  # acc is write-only for the action; no dependencies

    out_deg = graph.degree_histogram().astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(out_deg > 0, rank / out_deg, 0.0)
        contrib.from_array(c)
        acc.fill(0.0)
        with machine.epoch() as ep:
            scatter.invoke_many(ep, np.flatnonzero(c != 0.0))
        sums = acc.to_array()
        dangling = rank[out_deg == 0].sum()
        new_rank = (1.0 - damping) / n + damping * (sums + dangling / n)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if tol is not None and delta < tol:
            break
    return rank


def pagerank_async_pattern(eps: float) -> Pattern:
    """Residual push PageRank as two chained actions.

    ``absorb`` (no generator) moves a vertex's residual into its rank and
    stages the per-neighbour share in ``outgoing``; ``spread`` (edge
    generator) adds the staged share to each out-neighbour's residual.
    Driving them alternately per work-set vertex is the classic
    asynchronous PageRank the GraphLab line of systems champions — here
    expressed as plain patterns plus a threshold work-set strategy.
    """
    p = Pattern("PR_ASYNC")
    rank = p.vertex_prop("rank", float, default=0.0)
    residual = p.vertex_prop("residual", float, default=0.0)
    outgoing = p.vertex_prop("outgoing", float, default=0.0)
    share = p.vertex_prop("share", float, default=0.0)  # damping/out_degree

    absorb = p.action("absorb")
    v = absorb.input
    with absorb.when(residual[v] > eps):
        absorb.add(rank[v], residual[v])
        absorb.set(outgoing[v], residual[v] * share[v])
        absorb.set(residual[v], 0.0)

    spread = p.action("spread")
    w = spread.input
    e = spread.out_edges()
    with spread.when(outgoing[w] > 0.0):
        spread.add(residual[trg(e)], outgoing[w])
    return p


def pagerank_async(
    machine: Machine,
    graph: DistributedGraph,
    *,
    damping: float = 0.85,
    eps: float = 1e-10,
    max_pulses: int = 10_000_000,
) -> np.ndarray:
    """Asynchronous residual PageRank; converges to the damped-sum fixed
    point (same convention as :func:`pagerank`, dangling mass excluded —
    callers on dangling-free graphs match the power iteration exactly;
    ranks are normalized to sum to 1 at the end)."""
    n = graph.n_vertices
    if n == 0:
        return np.empty(0)
    bp = bind(pagerank_async_pattern(eps), machine, graph)
    rank, residual, outgoing, share = (
        bp.map("rank"),
        bp.map("residual"),
        bp.map("outgoing"),
        bp.map("share"),
    )
    out_deg = graph.degree_histogram().astype(np.float64)
    with np.errstate(divide="ignore"):
        share.from_array(np.where(out_deg > 0, damping / out_deg, 0.0))
    residual.from_array(np.full(n, (1.0 - damping) / n))

    absorb, spread = bp["absorb"], bp["spread"]
    workset: set[int] = set(range(n))
    # dependency hook: a neighbour whose residual grew re-enters the set
    spread.work = lambda ctx, w: workset.add(int(w))
    absorb.work = None

    pulses = 0
    while workset:
        batch = sorted(workset)
        workset.clear()
        pulses += len(batch)
        if pulses > max_pulses:  # pragma: no cover - guard
            raise RuntimeError("async pagerank failed to converge")
        with machine.epoch() as ep:
            absorb.invoke_many(ep, batch)
        with machine.epoch() as ep:
            spread.invoke_many(ep, batch)
        # staged shares were consumed by spread; clear them
        for v in batch:
            outgoing[v] = 0.0
    ranks = rank.to_array()
    total = ranks.sum()
    return ranks / total if total > 0 else ranks


def pagerank_reference(
    n_vertices: int, sources, targets, *, damping: float = 0.85, iterations: int = 100
) -> np.ndarray:
    """Dense numpy oracle with the same dangling-mass convention."""
    n = n_vertices
    out_deg = np.zeros(n)
    for s in sources:
        out_deg[int(s)] += 1
    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        sums = np.zeros(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(out_deg > 0, rank / out_deg, 0.0)
        for s, t in zip(sources, targets):
            sums[int(t)] += c[int(s)]
        dangling = rank[out_deg == 0].sum()
        rank = (1.0 - damping) / n + damping * (sums + dangling / n)
    return rank
