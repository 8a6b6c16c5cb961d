"""C6 — abstraction cost: pattern-compiled vs hand-coded algorithms.

The paper's implicit claim: the declarative layer costs little, because
locality analysis synthesizes (nearly) the communication an expert would
write by hand — for SSSP, Fig. 6 shows the compiled form IS the
hand-coded form (one message per relaxation carrying the precomputed
candidate distance).

Regenerated rows: identical results; remote-message ratio
(pattern / handwritten) per algorithm.  Expected shape: ratio 1.0 for
remote traffic on SSSP/BFS (same one-hop structure), with the pattern
runtime adding only local bookkeeping posts.

A second table quantifies the *execution* side of the abstraction cost
(DESIGN.md Sec. 6): wall-clock per algorithm with the plan interpreter
(``fast_path="off"``), the compiled closures, and the vectorized batch
path — identical outputs required across all three.
"""

import time

import numpy as np

from _common import er_undirected, er_weighted, paper_machine, write_result
from repro.runtime.machine import FAST_PATHS, Machine
from repro.algorithms import (
    bfs_fixed_point,
    bfs_handwritten,
    cc_handwritten,
    cc_label_propagation,
    sssp_fixed_point,
    sssp_handwritten,
)
from repro.analysis import distances_match, format_table
from repro.baselines import same_partition


def test_c6_abstraction_cost(benchmark):
    g, wg = er_weighted(n=256, avg_deg=6, seed=11)
    gu, s, t = er_undirected(n=200, m=400, seed=12)

    m_pat = paper_machine(4)
    d_pat = benchmark.pedantic(
        lambda: sssp_fixed_point(paper_machine(4), g, wg, 0), rounds=3, iterations=1
    )
    m_pat = paper_machine(4)
    d_pat = sssp_fixed_point(m_pat, g, wg, 0)
    m_hw = paper_machine(4)
    d_hw = sssp_handwritten(m_hw, g, wg, 0)
    assert distances_match(d_pat, d_hw)

    mb_pat, mb_hw = paper_machine(4), paper_machine(4)
    b_pat = bfs_fixed_point(mb_pat, g, 0)
    b_hw = bfs_handwritten(mb_hw, g, 0)
    assert distances_match(b_pat, b_hw)

    mc_pat, mc_hw = paper_machine(4), paper_machine(4)
    c_pat = cc_label_propagation(mc_pat, gu)
    c_hw = cc_handwritten(mc_hw, gu)
    assert same_partition(c_pat, c_hw)

    rows = []
    for name, mp, mh in (
        ("sssp", m_pat, m_hw),
        ("bfs", mb_pat, mb_hw),
        ("cc-labelprop", mc_pat, mc_hw),
    ):
        sp, sh = mp.stats.summary(), mh.stats.summary()
        rows.append(
            {
                "algorithm": name,
                "pattern_remote": sp["sent_remote"],
                "handwritten_remote": sh["sent_remote"],
                "remote_ratio": round(
                    sp["sent_remote"] / max(sh["sent_remote"], 1), 2
                ),
                "pattern_total": sp["sent_total"],
                "handwritten_total": sh["sent_total"],
            }
        )
        # results identical; remote traffic within a small constant factor
        assert rows[-1]["remote_ratio"] < 3.0
    write_result(
        "C6_abstraction_cost",
        "C6 — pattern-compiled vs handwritten message code",
        format_table(rows) + "\nidentical outputs on every algorithm",
    )


def test_c6_fastpath_wallclock():
    """Interpreted vs compiled vs vectorized wall clock, same outputs."""
    g, wg = er_weighted(n=512, avg_deg=8, seed=21)
    gu, _, _ = er_undirected(n=400, m=900, seed=22)
    layers = {"coalescing": 32}

    workloads = {
        "sssp": lambda fp: sssp_fixed_point(
            Machine(4, fast_path=fp), g, wg, 0, layers={"relax": layers}
        ),
        "bfs": lambda fp: bfs_fixed_point(
            Machine(4, fast_path=fp), g, 0, layers={"hop": layers}
        ),
        "cc-labelprop": lambda fp: cc_label_propagation(
            Machine(4, fast_path=fp), gu, layers={"spread": layers}
        ),
    }

    rows = []
    for name, run in workloads.items():
        times, outs = {}, {}
        for fp in FAST_PATHS:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                outs[fp] = run(fp)
                best = min(best, time.perf_counter() - t0)
            times[fp] = best
        for fp in FAST_PATHS[1:]:
            assert np.array_equal(outs["off"], outs[fp]), f"{name}: off vs {fp}"
        rows.append(
            {
                "algorithm": name,
                "interpreted_s": round(times["off"], 4),
                "compiled_s": round(times["compiled"], 4),
                "vectorized_s": round(times["vector"], 4),
                "compiled_speedup": round(times["off"] / times["compiled"], 2),
                "vector_speedup": round(times["off"] / times["vector"], 2),
            }
        )
    write_result(
        "C6_fastpath_wallclock",
        "C6 — execution fast paths: wall clock per mode (best of 3)",
        format_table(rows) + "\nidentical outputs in every mode",
    )
