"""C4 — epochs and termination detection (paper Secs. III-D, IV).

Regenerated series: the same SSSP run under the three detectors (oracle,
Safra token ring, four-counter double sum), reporting control-message
overhead versus useful work, across rank counts.  The qualitative shape:
control cost is O(rounds x ranks) — negligible against application
traffic for non-trivial work volumes — and all detectors agree on epoch
semantics (identical results and application message counts).
"""

import numpy as np

from _common import er_weighted, paper_machine, write_result
from repro.algorithms import bind_sssp, dijkstra_on_graph
from repro.analysis import format_table
from repro.strategies import fixed_point


def run_with_detector(g, wg, detector, n_ranks=4):
    m = paper_machine(n_ranks, detector=detector)
    bp = bind_sssp(m, g, wg)
    bp.map("dist")[0] = 0.0
    fixed_point(m, bp["relax"], [0])
    return bp.map("dist").to_array(), m


def test_c4_detector_overhead(benchmark):
    g, wg = er_weighted(n=256, avg_deg=6, seed=8)
    oracle = dijkstra_on_graph(g, wg, 0)
    finite = np.isfinite(oracle)

    benchmark.pedantic(
        lambda: run_with_detector(g, wg, "safra"), rounds=3, iterations=1
    )

    rows = []
    app_msgs = {}
    for det in ("oracle", "safra", "four_counter"):
        d, m = run_with_detector(g, wg, det)
        assert np.allclose(d[finite], oracle[finite])
        s = m.stats.summary()
        app_msgs[det] = s["sent_total"]
        rows.append(
            {
                "detector": det,
                "app_msgs": s["sent_total"],
                "control_msgs": s["control_messages"],
                "overhead_%": round(
                    100.0 * s["control_messages"] / max(s["sent_total"], 1), 2
                ),
            }
        )
    # all detectors see identical application traffic
    assert len(set(app_msgs.values())) == 1
    # oracle is free; protocols cost a few ring/gather rounds
    assert rows[0]["control_msgs"] == 0
    assert rows[1]["control_msgs"] > 0
    assert rows[1]["overhead_%"] < 50
    write_result(
        "C4_termination",
        "C4 — termination-detection control overhead (SSSP, ER n=256)",
        format_table(rows),
    )


def test_c4_control_scales_with_ranks(benchmark):
    g4, wg4 = er_weighted(n=256, avg_deg=6, seed=8, n_ranks=4)

    def run():
        return run_with_detector(g4, wg4, "safra", n_ranks=4)

    benchmark.pedantic(run, rounds=3, iterations=1)

    rows = []
    for n_ranks in (2, 4, 8, 16):
        g, wg = er_weighted(n=256, avg_deg=6, seed=8, n_ranks=n_ranks)
        _, m = run_with_detector(g, wg, "safra", n_ranks=n_ranks)
        s = m.stats.summary()
        rows.append(
            {
                "ranks": n_ranks,
                "control_msgs": s["control_messages"],
                "per_rank": round(s["control_messages"] / n_ranks, 1),
                "epochs": s["epochs"],
            }
        )
    # token rounds are rings: control grows linearly with rank count
    assert rows[-1]["control_msgs"] > rows[0]["control_msgs"]
    write_result(
        "C4_control_vs_ranks",
        "C4 — Safra token traffic vs rank count (one epoch of SSSP)",
        format_table(rows),
    )
