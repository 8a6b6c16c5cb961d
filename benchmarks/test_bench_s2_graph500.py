"""S2 — Graph500 kernel-2 shape (the benchmark the paper's intro cites).

Regenerated series: validated parent-array BFS on R-MAT graphs across
scales, reporting the kernel's metric shape — traversed edges per run and
logical work (handler calls) — which grows linearly with the edge count,
and the level count, which grows slowly (small-world diameter).
"""

import numpy as np

from _common import paper_machine, write_result
from repro.algorithms import run_graph500
from repro.analysis import format_table
from repro.graph import build_graph, rmat


def make_rmat(scale, edge_factor=8, seed=23, n_ranks=4):
    s, t = rmat(scale, edge_factor=edge_factor, seed=seed)
    g, _ = build_graph(
        1 << scale, list(zip(s.tolist(), t.tolist())), n_ranks=n_ranks,
        partition="cyclic",
    )
    return g


def test_s2_graph500_kernel2(benchmark):
    g8 = make_rmat(8)
    benchmark.pedantic(
        lambda: run_graph500(lambda: paper_machine(4), g8, n_roots=2, seed=3),
        rounds=3,
        iterations=1,
    )
    rows = []
    for scale in (6, 7, 8, 9):
        g = make_rmat(scale)
        result = run_graph500(lambda: paper_machine(4), g, n_roots=3, seed=scale)
        mean_levels = float(np.mean([r["levels"] for r in result["runs"]]))
        mean_work = float(np.mean([r["handler_calls"] for r in result["runs"]]))
        rows.append(
            {
                "scale": scale,
                "edges": result["n_edges"],
                "mean_traversed": int(result["mean_edges_traversed"]),
                "mean_levels": round(mean_levels, 1),
                "mean_handler_calls": int(mean_work),
            }
        )
    # shape: work linear in edges; levels grow slowly (small world)
    assert rows[-1]["mean_handler_calls"] > rows[0]["mean_handler_calls"]
    assert rows[-1]["mean_levels"] <= rows[0]["mean_levels"] + 6
    write_result(
        "S2_graph500",
        "S2 — Graph500 kernel-2 (validated parent BFS) across R-MAT scales",
        format_table(rows) + "\nevery run passed Graph500-style validation",
    )
