"""Native-tier bench — the vector tier with and without proven fusion.

DESIGN.md Sec. 7: ``fast_path="native"`` is the vector tier plus
gather->evaluate fusion where the planner proves it legal — rank-local
relaxations are applied inline and dominated remote candidates are
deduplicated before the wire.  Both rows run the same ``VectorPlan``
closures, so the ratio measures fusion and nothing else.

Workload: SSSP fixed-point over the C6 Erdős–Rényi family (block
partition, coalescing 256) scaled until kernel time dominates driver
overhead.  Reported and asserted:

* fused native is not slower than the vector tier post-warmup, and the
  absolute traversed edges/s of both rows (recorded machine-readably in
  ``results/BENCH_native.json``);
* bit-identical distance arrays across the two rows;
* fusion fired (fused rounds and fused edges above zero).
"""

import math
import platform

import numpy as np

from _common import timed_with_warmup, write_json, write_result
from repro import Machine
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.algorithms.sssp import bind_sssp
from repro.analysis import format_table

N = 4096
AVG_DEG = 16
COALESCING = 256
N_RANKS = 4
SPEEDUP_FLOOR = 1.0  # fused native must not be slower than vector
CONFIGS = ("vector", "native")


def c6_instance():
    m = N * AVG_DEG
    s, t = erdos_renyi(N, m, seed=11)
    w = uniform_weights(m, 1.0, 10.0, seed=12)
    return build_graph(
        N, list(zip(s, t)), weights=w, n_ranks=N_RANKS, partition="block"
    )


def run_once(fast_path, g, wbg):
    m = Machine(N_RANKS, fast_path=fast_path)
    bp = bind_sssp(m, g, wbg, layers={"relax": {"coalescing": COALESCING}})
    relax = bp["relax"]
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[0] = 0.0
    relax.work = lambda ctx, v: relax.invoke_from(ctx, v)
    with m.epoch() as ep:
        relax.invoke(ep, 0)
    return m, dist.to_array()


def test_native_fusion_vs_vector(benchmark):
    g, wbg = c6_instance()

    times, dists, stats = {}, {}, {}
    for name in CONFIGS:

        def once(name=name):
            m, d = run_once(name, g, wbg)
            stats[name] = m.stats.native
            dists[name] = d

        times[name] = timed_with_warmup(once, warmup=1, repeats=3)

    benchmark.pedantic(
        lambda: run_once("native", g, wbg), rounds=1, iterations=1
    )

    assert np.array_equal(dists["vector"], dists["native"])
    # fusion actually fired, and only on the native row
    assert stats["native"].fused_rounds > 0 and stats["native"].fused_edges > 0
    assert stats["vector"].fused_rounds == 0

    speedup = times["vector"]["best_s"] / times["native"]["best_s"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"fused native is slower than vector ({speedup:.2f}x, "
        f"floor {SPEEDUP_FLOOR}x)"
    )
    # absolute throughput: out-edges of every vertex the search reached
    s, _t = g.edge_arrays()
    out_degree = np.bincount(s, minlength=N)
    traversed = int(out_degree[np.isfinite(dists["vector"])].sum())
    edges_per_s = {
        name: round(traversed / times[name]["best_s"]) for name in CONFIGS
    }

    rows = [
        {
            "config": name,
            "best_s": round(times[name]["best_s"], 4),
            "warmup_s": round(times[name]["warmup_s"][0], 4),
            "edges_per_s": edges_per_s[name],
            "speedup_vs_vector": round(
                times["vector"]["best_s"] / times[name]["best_s"], 2
            ),
            "fused_rounds": stats[name].fused_rounds,
            "fused_edges": stats[name].fused_edges,
            "remote_rows": stats[name].remote_rows,
        }
        for name in CONFIGS
    ]
    write_result(
        "BENCH_native",
        f"Native tier — SSSP fixed-point, ER n={N} deg={AVG_DEG} "
        f"(best of 3, warmup excluded)",
        format_table(rows)
        + f"\nfused native {speedup:.2f}x of vector (floor {SPEEDUP_FLOOR}x), "
        f"{traversed} traversed edges; identical distances",
    )
    write_json(
        "BENCH_native",
        {
            "workload": {
                "algorithm": "sssp_fixed_point",
                "graph": "erdos_renyi",
                "n_vertices": N,
                "avg_degree": AVG_DEG,
                "coalescing": COALESCING,
                "n_ranks": N_RANKS,
            },
            "seconds": {name: times[name]["runs_s"] for name in CONFIGS},
            "warmup_seconds": {name: times[name]["warmup_s"] for name in CONFIGS},
            "traversed_edges": traversed,
            "edges_per_s": edges_per_s,
            "speedup_vs_vector": {
                name: round(times["vector"]["best_s"] / times[name]["best_s"], 3)
                for name in CONFIGS
            },
            "speedup_floor": SPEEDUP_FLOOR,
            "identical_outputs": True,
            "python": platform.python_version(),
        },
    )
