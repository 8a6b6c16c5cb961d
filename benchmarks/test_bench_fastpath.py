"""Fast-path bench — interpreted vs compiled vs vectorized execution.

DESIGN.md Secs. 6-7: the interpreted plan walk (``fast_path="off"``) is
the semantic oracle; compiling the plan to closures, batching recognizable
shapes into numpy kernels and fusing the gather->evaluate round where the
planner proves it legal must change *nothing* about the answer while
removing interpreter overhead and messages from the hot path.

Workload: Δ-stepping SSSP over a Graph500-style R-MAT graph at scale 10
(the skewed-degree regime where coalesced envelopes get big enough for
the batch kernel to pay off).  Asserted here and recorded
machine-readably in ``results/BENCH_fastpath.json``: the vector tier is
≥ 3× faster than the interpreted path, its fusion fired, distance arrays
are bit-identical across all three modes, and each row's absolute
traversed edges/s.
"""

import dataclasses
import platform
import time

import numpy as np

from _common import rmat_weighted, write_json, write_result
from repro import Machine
from repro.algorithms import sssp_delta_stepping
from repro.analysis import format_table
from repro.runtime.machine import FAST_PATHS

SCALE = 10
EDGE_FACTOR = 8
DELTA = 3.0
COALESCING = 64
ROUNDS = 3
SPEEDUP_FLOOR = 3.0


def _run(fast_path, g, wbg):
    """Best-of-ROUNDS wall clock; returns (seconds, dist, stats summary,
    fusion counters)."""
    best, dist, summary, fusion = float("inf"), None, None, None
    for _ in range(ROUNDS):
        m = Machine(4, fast_path=fast_path)
        t0 = time.perf_counter()
        dist = sssp_delta_stepping(
            m, g, wbg, 0, DELTA, layers={"relax": {"coalescing": COALESCING}}
        )
        best = min(best, time.perf_counter() - t0)
        summary, fusion = m.stats.summary(), m.stats.fusion
    return best, dist, summary, fusion


def test_fastpath_speedup(benchmark):
    g, wbg = rmat_weighted(scale=SCALE, edge_factor=EDGE_FACTOR, seed=7)
    benchmark.pedantic(
        lambda: _run("vector", g, wbg), rounds=1, iterations=1
    )

    times, dists, summaries, fusion = {}, {}, {}, {}
    for fp in FAST_PATHS:
        times[fp], dists[fp], summaries[fp], fusion[fp] = _run(fp, g, wbg)

    # correctness: every mode computes the exact same distances
    for fp in FAST_PATHS[1:]:
        assert np.array_equal(dists["off"], dists[fp]), f"off vs {fp} diverged"
    # the batch kernel and the fused round actually fired, on vector only
    assert summaries["vector"]["vector_items"] > 0
    assert fusion["vector"].fused_rounds > 0 and fusion["vector"].fused_edges > 0
    assert fusion["compiled"].fused_rounds == 0
    # absolute throughput: out-edges of every vertex the search reached
    s, _t = g.edge_arrays()
    out_degree = np.bincount(s, minlength=g.n_vertices)
    traversed = int(out_degree[np.isfinite(dists["off"])].sum())
    edges_per_s = {fp: round(traversed / times[fp]) for fp in FAST_PATHS}

    speedup_vector = times["off"] / times["vector"]
    speedup_compiled = times["off"] / times["compiled"]
    assert speedup_vector >= SPEEDUP_FLOOR, (
        f"vectorized path only {speedup_vector:.2f}x faster than interpreted "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    rows = [
        {
            "fast_path": fp,
            "seconds": round(times[fp], 4),
            "speedup_vs_off": round(times["off"] / times[fp], 2),
            "edges_per_s": edges_per_s[fp],
            "handled": summaries[fp]["handler_calls"],
            "vector_items": summaries[fp]["vector_items"],
            "batch_deliveries": summaries[fp]["batch_deliveries"],
            "fused_edges": fusion[fp].fused_edges,
        }
        for fp in FAST_PATHS
    ]
    write_result(
        "BENCH_fastpath",
        f"Fast paths — Δ-stepping SSSP, R-MAT scale {SCALE} (best of {ROUNDS})",
        format_table(rows)
        + f"\nvector {speedup_vector:.2f}x over interpreted "
        f"(floor {SPEEDUP_FLOOR}x), {traversed} traversed edges; "
        "identical distances in all modes",
    )
    write_json(
        "BENCH_fastpath",
        {
            "workload": {
                "algorithm": "sssp_delta_stepping",
                "graph": "rmat",
                "scale": SCALE,
                "edge_factor": EDGE_FACTOR,
                "n_vertices": int(g.n_vertices),
                "n_edges": int(g.n_edges),
                "delta": DELTA,
                "coalescing": COALESCING,
                "n_ranks": 4,
                "rounds": ROUNDS,
            },
            "seconds": {fp: times[fp] for fp in FAST_PATHS},
            "speedup_vs_interpreted": {
                "compiled": round(speedup_compiled, 3),
                "vector": round(speedup_vector, 3),
            },
            "speedup_floor": SPEEDUP_FLOOR,
            "traversed_edges": traversed,
            "edges_per_s": edges_per_s,
            "handler_calls": {fp: summaries[fp]["handler_calls"] for fp in FAST_PATHS},
            "vector_items": int(summaries["vector"]["vector_items"]),
            "fusion": dataclasses.asdict(fusion["vector"]),
            "identical_outputs": True,
            "python": platform.python_version(),
        },
    )
