"""Graph500-style BFS kernel (the benchmark the paper's intro motivates
scale with).

Kernel 2 of the Graph500 benchmark is BFS producing a *parent array*;
results are accepted only if they pass the spec's validation checks.
This module provides:

* :func:`bfs_parents` — a parent-array BFS pattern (claim-once semantics:
  a vertex's parent is set exactly once, by whichever frontier neighbour
  gets there first — any valid BFS tree is acceptable, exactly like the
  real benchmark);
* :func:`validate_bfs` — the spec's structural checks (§ "validation"):
  1. the parent array forms a tree rooted at the source,
  2. tree edges exist in the graph,
  3. tree levels differ by exactly one along tree edges,
  4. every vertex in the source's component is in the tree,
     and no vertex outside it is,
  5. the root is its own parent;
* :func:`run_graph500` — kernel harness over R-MAT graphs reporting the
  benchmark's headline metric shape (traversed edges, "TEPS" on the
  simulator's logical clock = handler calls).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..graph.distributed import DistributedGraph
from ..patterns import Pattern, bind, src, trg
from ..runtime.machine import Machine

NO_PARENT = -1


def bfs_parent_pattern() -> Pattern:
    p = Pattern("G500")
    parent = p.vertex_prop("parent", "vertex", default=NO_PARENT)
    visit = p.action("visit")
    v = visit.input
    e = visit.out_edges()
    with visit.when(parent[trg(e)] == NO_PARENT):
        visit.set(parent[trg(e)], src(e))
    return p


def bfs_parents(
    machine: Machine, graph: DistributedGraph, source: int
) -> tuple[np.ndarray, int]:
    """Level-synchronous parent BFS; returns (parent array, levels)."""
    bp = bind(bfs_parent_pattern(), machine, graph)
    parent = bp.map("parent")
    parent[source] = source  # the root is its own parent (spec convention)
    visit = bp["visit"]

    next_frontier: set[int] = set()
    visit.work = lambda ctx, w: next_frontier.add(int(w))
    frontier = [source]
    levels = 0
    while frontier:
        levels += 1
        next_frontier = set()
        with machine.epoch() as ep:
            visit.invoke_many(ep, frontier)
        frontier = sorted(next_frontier)
    return parent.to_array(), levels


def validate_bfs(
    graph: DistributedGraph, parent: np.ndarray, source: int
) -> list[str]:
    """Graph500-style validation; returns a list of violations (empty =
    accepted)."""
    n = graph.n_vertices
    problems: list[str] = []
    parent = np.asarray(parent)
    if parent[source] != source:
        problems.append("root is not its own parent")

    arc_src, arc_trg = graph.edge_arrays()
    arcs = set(zip(arc_src.tolist(), arc_trg.tolist()))

    # depths via parent chasing, with cycle detection
    depth = np.full(n, -1, dtype=np.int64)
    depth[source] = 0

    def chase(v: int) -> int:
        trail = []
        while depth[v] < 0:
            p = int(parent[v])
            if p == NO_PARENT:
                return -1
            trail.append(v)
            if len(trail) > n:
                problems.append(f"parent chain from {v} has a cycle")
                return -1
            v = p
        d = int(depth[v])
        for w in reversed(trail):
            d += 1
            depth[w] = d
        return d

    for v in range(n):
        if parent[v] == NO_PARENT:
            continue
        chase(v)

    for v in range(n):
        p = int(parent[v])
        if p == NO_PARENT or v == source:
            continue
        if (p, v) not in arcs:
            problems.append(f"tree edge ({p} -> {v}) not in the graph")
        elif depth[v] != depth[p] + 1:
            problems.append(
                f"tree edge ({p} -> {v}) spans levels {depth[p]} -> {depth[v]}"
            )

    # component coverage: BFS reachability oracle
    reach = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for t in graph.adj(u):
            t = int(t)
            if t not in reach:
                reach.add(t)
                stack.append(t)
    for v in range(n):
        in_tree = parent[v] != NO_PARENT
        if v in reach and not in_tree:
            problems.append(f"reachable vertex {v} missing from the tree")
        if v not in reach and in_tree:
            problems.append(f"unreachable vertex {v} claims a parent")
    return problems


def run_graph500(
    machine_factory,
    graph: DistributedGraph,
    *,
    n_roots: int = 4,
    seed: int = 0,
) -> dict:
    """Kernel-2 harness: BFS from sampled roots, validated, with the
    benchmark's metric shape (edges traversed per run)."""
    rng = np.random.default_rng(seed)
    degrees = graph.degree_histogram()
    candidates = np.flatnonzero(degrees > 0)
    if len(candidates) == 0:
        raise ValueError("graph has no edges to traverse")
    roots = rng.choice(candidates, size=min(n_roots, len(candidates)), replace=False)

    runs = []
    for root in roots:
        m = machine_factory()
        parent, levels = bfs_parents(m, graph, int(root))
        problems = validate_bfs(graph, parent, int(root))
        if problems:
            raise AssertionError(
                f"Graph500 validation failed for root {root}: {problems[:3]}"
            )
        in_tree = int((parent != NO_PARENT).sum())
        traversed = int(degrees[parent != NO_PARENT].sum())
        runs.append(
            {
                "root": int(root),
                "levels": levels,
                "tree_vertices": in_tree,
                "edges_traversed": traversed,
                "handler_calls": m.stats.total.handler_calls,
            }
        )
    return {
        "scale": int(math.log2(max(graph.n_vertices, 1))),
        "n_edges": graph.n_edges,
        "runs": runs,
        "mean_edges_traversed": float(
            np.mean([r["edges_traversed"] for r in runs])
        ),
    }
