"""Native-tier bench — vector kernels vs generated native kernels vs fusion.

DESIGN.md Sec. 7: the third execution tier generates per-(shape, dtype,
schema) kernel modules and — when the planner proves the gather->evaluate
pair rank-local — fuses the two message rounds into one, applying local
relaxations inline and deduplicating dominated remote candidates.

Workload: SSSP fixed-point over the C6 Erdős–Rényi family (block
partition, coalescing 256) scaled until kernel time dominates driver
overhead.  Reported and asserted:

* fused native is not slower than the vector tier post-warmup, and the
  absolute traversed edges/s of every row (recorded machine-readably in
  ``results/BENCH_native.json``).  Both tiers ship their rows through the
  same columnar message path, so the ratio now measures fusion and
  codegen; the former 2x floor measured the vector tier's per-edge scalar
  sends;
* bit-identical distance arrays across vector / native / fused rows;
* a second process re-binding the same shape loads the persisted kernel
  module from the on-disk cache (0 compiles, ≥1 disk hit).

Warmup passes are timed separately (``timed_with_warmup``): kernel
generation plus (with numba) JIT compilation happen once per process and
must not pollute steady-state rows.
"""

import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

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


def c6_instance():
    m = N * AVG_DEG
    s, t = erdos_renyi(N, m, seed=11)
    w = uniform_weights(m, 1.0, 10.0, seed=12)
    return build_graph(
        N, list(zip(s, t)), weights=w, n_ranks=N_RANKS, partition="block"
    )


def run_once(fast_path, g, wbg, unfuse=False):
    m = Machine(N_RANKS, fast_path=fast_path)
    bp = bind_sssp(m, g, wbg, layers={"relax": {"coalescing": COALESCING}})
    relax = bp["relax"]
    if unfuse and relax.native_plan is not None:
        relax.native_plan.fused = False  # measure codegen without fusion
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[0] = 0.0
    relax.work = lambda ctx, v: relax.invoke_from(ctx, v)
    with m.epoch() as ep:
        relax.invoke(ep, 0)
    return m, dist.to_array()


SECOND_PROCESS_SNIPPET = """
import json, math, sys
from repro import Machine
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.algorithms.sssp import bind_sssp

n, deg = {n}, {deg}
m = n * deg
s, t = erdos_renyi(n, m, seed=11)
w = uniform_weights(m, 1.0, 10.0, seed=12)
g, wbg = build_graph(n, list(zip(s, t)), weights=w, n_ranks={ranks},
                     partition="block")
mach = Machine({ranks}, fast_path="native")
bp = bind_sssp(mach, g, wbg)
assert bp["relax"].native_plan is not None
st = mach.stats.native
json.dump({{"kernel_compiles": st.kernel_compiles,
            "disk_cache_hits": st.disk_cache_hits,
            "origin": bp["relax"].native_plan.origin}}, sys.stdout)
"""


def spawn_native_bind(cache_dir: str) -> dict:
    """Bind the bench shape in a fresh interpreter; return its cache stats."""
    env = dict(os.environ)
    env["REPRO_KERNEL_CACHE"] = cache_dir
    env.setdefault("REPRO_NATIVE_BACKEND", "interp")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p
    )
    script = SECOND_PROCESS_SNIPPET.format(n=256, deg=6, ranks=N_RANKS)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_native_speedup_and_cache_reuse(benchmark):
    g, wbg = c6_instance()

    rows, times, dists, stats = [], {}, {}, {}
    configs = [
        ("vector", dict(fast_path="vector")),
        ("native", dict(fast_path="native", unfuse=True)),
        ("native+fused", dict(fast_path="native")),
    ]
    for name, cfg in configs:
        unfuse = cfg.pop("unfuse", False)
        fp = cfg["fast_path"]

        def once(fp=fp, unfuse=unfuse):
            m, d = run_once(fp, g, wbg, unfuse=unfuse)
            stats[name] = m
            dists[name] = d

        times[name] = timed_with_warmup(once, warmup=1, repeats=3)

    benchmark.pedantic(
        lambda: run_once("native", g, wbg), rounds=1, iterations=1
    )

    # correctness: identical distances in every configuration
    for name, _ in configs[1:]:
        assert np.array_equal(dists["vector"], dists[name]), name
    # fusion actually fired, and only in the fused row
    st_fused = stats["native+fused"].stats.native
    assert st_fused.fused_rounds > 0 and st_fused.fused_edges > 0
    assert stats["native"].stats.native.fused_rounds == 0

    speedup = times["vector"]["best_s"] / times["native+fused"]["best_s"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"fused native is slower than vector ({speedup:.2f}x, "
        f"floor {SPEEDUP_FLOOR}x)"
    )
    # absolute throughput: out-edges of every vertex the search reached
    s, _t = g.edge_arrays()
    out_degree = np.bincount(s, minlength=N)
    traversed = int(out_degree[np.isfinite(dists["vector"])].sum())
    edges_per_s = {
        name: round(traversed / times[name]["best_s"]) for name, _ in configs
    }

    # second-process kernel-cache reuse: first fresh interpreter compiles
    # and persists, second loads from disk without compiling
    with tempfile.TemporaryDirectory() as cache_dir:
        first = spawn_native_bind(cache_dir)
        second = spawn_native_bind(cache_dir)
    assert first["kernel_compiles"] == 1 and first["origin"] == "compile"
    assert second["kernel_compiles"] == 0 and second["origin"] == "disk"
    assert second["disk_cache_hits"] == 1

    for name, _ in configs:
        st = getattr(stats[name].stats, "native", None)
        rows.append(
            {
                "config": name,
                "best_s": round(times[name]["best_s"], 4),
                "warmup_s": round(times[name]["warmup_s"][0], 4),
                "edges_per_s": edges_per_s[name],
                "speedup_vs_vector": round(
                    times["vector"]["best_s"] / times[name]["best_s"], 2
                ),
                "fused_rounds": st.fused_rounds if st else 0,
                "fused_edges": st.fused_edges if st else 0,
                "remote_rows": st.remote_rows if st else 0,
            }
        )
    write_result(
        "BENCH_native",
        f"Native tier — SSSP fixed-point, ER n={N} deg={AVG_DEG} "
        f"(best of 3, warmup excluded)",
        format_table(rows)
        + f"\nfused native {speedup:.2f}x of vector (floor {SPEEDUP_FLOOR}x), "
        f"{traversed} traversed edges; "
        "identical distances; second process reused the on-disk kernel",
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
            "backend": os.environ.get("REPRO_NATIVE_BACKEND", "auto"),
            "seconds": {name: times[name]["runs_s"] for name, _ in configs},
            "warmup_seconds": {
                name: times[name]["warmup_s"] for name, _ in configs
            },
            "traversed_edges": traversed,
            "edges_per_s": edges_per_s,
            "jit_seconds": stats["native+fused"].stats.native.jit_seconds,
            "speedup_vs_vector": {
                name: round(times["vector"]["best_s"] / times[name]["best_s"], 3)
                for name, _ in configs
            },
            "speedup_floor": SPEEDUP_FLOOR,
            "kernel_cache": {"first": first, "second": second},
            "identical_outputs": True,
            "python": platform.python_version(),
        },
    )
