"""F1 — Fig. 1: Delta-stepping vs fixed-point SSSP over one relax pattern.

Paper artifact: the side-by-side pseudocode of the two SSSP algorithms
sharing the relaxation operation.  Regenerated rows: both strategies on
the same graphs produce identical distances; per-strategy work counts
(handler calls / relaxations) show the scheduling difference — the
paper's point that strategies change *how much* work is done, never the
result.
"""

import numpy as np

from _common import er_weighted, paper_machine, rmat_weighted, write_result
from repro.algorithms import (
    dijkstra_on_graph,
    sssp_delta_stepping,
    sssp_fixed_point,
)
from repro.analysis import format_table


def run_pair(g, wg, source, delta):
    m_fp = paper_machine(4)
    d_fp = sssp_fixed_point(m_fp, g, wg, source)
    m_d = paper_machine(4)
    d_d = sssp_delta_stepping(m_d, g, wg, source, delta)
    assert np.allclose(d_fp, d_d, equal_nan=False) or (
        np.isinf(d_fp) == np.isinf(d_d)
    ).all()
    return m_fp, m_d, d_fp, d_d


def test_fig1_strategies_share_relax(benchmark):
    g, wg = er_weighted(n=256, avg_deg=6, seed=1)
    oracle = dijkstra_on_graph(g, wg, 0)

    def workload():
        return run_pair(g, wg, 0, delta=2.0)

    m_fp, m_d, d_fp, d_d = benchmark.pedantic(workload, rounds=3, iterations=1)
    finite = np.isfinite(oracle)
    assert np.allclose(d_fp[finite], oracle[finite])
    assert np.allclose(d_d[finite], oracle[finite])

    rows = []
    for name, mach in (("fixed_point", m_fp), ("delta(2.0)", m_d)):
        s = mach.stats.summary()
        rows.append(
            {
                "strategy": name,
                "handlers": s["handler_calls"],
                "msgs": s["sent_total"],
                "work_items": s["work_items"],
                "epochs": s["epochs"],
            }
        )
    write_result(
        "F1_sssp_strategies",
        "Fig. 1 — one relax pattern, two strategies (ER n=256, deg 6)",
        format_table(rows)
        + "\nidentical distances: True (both match Dijkstra oracle)",
    )


def test_fig1_light_heavy_split(benchmark):
    """The optimization the paper names: heavy edges relaxed separately.

    Regenerated row: with a weight band straddling delta, the split cuts
    successful heavy relaxations to at most one sweep per settled vertex,
    reducing total changes vs plain delta-stepping."""
    from repro.strategies import delta_stepping_light_heavy

    g, wg = er_weighted(n=256, avg_deg=6, seed=21)
    oracle = dijkstra_on_graph(g, wg, 0)
    finite = np.isfinite(oracle)
    delta = 3.0

    d_lh, info = benchmark.pedantic(
        lambda: delta_stepping_light_heavy(paper_machine(4), g, wg, [0], delta),
        rounds=3,
        iterations=1,
    )
    assert np.allclose(d_lh[finite], oracle[finite])

    m_plain = paper_machine(4)
    d_plain = sssp_delta_stepping(m_plain, g, wg, 0, delta)
    assert np.allclose(d_plain[finite], oracle[finite])

    write_result(
        "F1_light_heavy",
        "Fig. 1 / Sec. II-A — light/heavy split vs plain delta (delta=3)",
        format_table(
            [
                {
                    "variant": "plain delta",
                    "levels": "-",
                    "changes": m_plain.stats.total.work_items,
                },
                {
                    "variant": "light/heavy",
                    "levels": info["levels"],
                    "changes": info["light_changes"] + info["heavy_changes"],
                },
            ]
        )
        + "\nidentical distances; heavy edges swept once per settled vertex",
    )


def test_fig1_rmat_strategies(benchmark):
    g, wg = rmat_weighted(scale=8, edge_factor=4, seed=2)
    # R-MAT permutes ids; pick a well-connected source
    source = int(np.argmax([g.out_degree(v) for v in range(g.n_vertices)]))
    oracle = dijkstra_on_graph(g, wg, source)

    def workload():
        m = paper_machine(4)
        return sssp_delta_stepping(m, g, wg, source, 3.0), m

    d, m = benchmark.pedantic(workload, rounds=3, iterations=1)
    finite = np.isfinite(oracle)
    assert np.allclose(d[finite], oracle[finite])
    write_result(
        "F1_sssp_rmat",
        "Fig. 1 — delta-stepping on R-MAT scale 8",
        f"reachable vertices: {int(finite.sum())} / {g.n_vertices}\n"
        f"handler calls per run: {m.stats.total.handler_calls}",
    )
