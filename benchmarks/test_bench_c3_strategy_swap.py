"""C3 — Sec. II claim: strategies swap freely over one pattern.

Regenerated rows: fixed_point, repeated-once (Bellman-Ford style), and
Delta-stepping at several Deltas, all over the *same bound SSSP pattern
definition*, all producing the Dijkstra-oracle distances.  Work profiles
(handler calls, epochs) are reported per strategy — the paper's argument
that scheduling is swappable while the declarative core is shared.
"""

import numpy as np

from _common import er_weighted, paper_machine, write_result
from repro.algorithms import bind_sssp, dijkstra_on_graph
from repro.analysis import format_table
from repro.strategies import delta_stepping, fixed_point, once


def run_strategy(g, wg, name):
    m = paper_machine(4)
    bp = bind_sssp(m, g, wg)
    dist = bp.map("dist")
    dist[0] = 0.0
    relax = bp["relax"]
    if name == "fixed_point":
        fixed_point(m, relax, [0])
    elif name == "once*":
        while once(m, relax, list(range(g.n_vertices))):
            pass
    else:  # delta(x)
        d = float(name.split("(")[1].rstrip(")"))
        delta_stepping(m, relax, [0], dist, d)
    return dist.to_array(), m


STRATEGIES = ["fixed_point", "once*", "delta(1.0)", "delta(4.0)", "delta(16.0)"]


def test_c3_strategies_interchangeable(benchmark):
    g, wg = er_weighted(n=256, avg_deg=6, seed=7)
    oracle = dijkstra_on_graph(g, wg, 0)
    finite = np.isfinite(oracle)

    benchmark.pedantic(
        lambda: run_strategy(g, wg, "delta(4.0)"), rounds=3, iterations=1
    )

    rows = []
    for name in STRATEGIES:
        d, m = run_strategy(g, wg, name)
        assert np.allclose(d[finite], oracle[finite]), name
        s = m.stats.summary()
        rows.append(
            {
                "strategy": name,
                "handlers": s["handler_calls"],
                "msgs": s["sent_total"],
                "work_items": s["work_items"],
                "epochs": s["epochs"],
            }
        )
    # Bellman-Ford-style once* does far more handler work than delta
    by_name = {r["strategy"]: r for r in rows}
    assert by_name["once*"]["handlers"] > by_name["delta(4.0)"]["handlers"]
    write_result(
        "C3_strategy_swap",
        "C3 — one SSSP pattern, five strategies (ER n=256, deg 6)",
        format_table(rows) + "\nall five produce the Dijkstra-oracle distances",
    )
