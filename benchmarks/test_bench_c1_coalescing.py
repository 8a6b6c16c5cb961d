"""C1 — AM++ claim: "coalescing greatly improves performance when large
amounts of messages are sent".

Regenerated series: SSSP on a fixed graph with the relax message type
coalesced at buffer sizes 1..256.  The physical transfer count (flushes)
drops by roughly the buffer-size factor while logical messages, results,
and handler work stay constant — the mechanism behind AM++'s claim.
"""

import numpy as np

from _common import er_weighted, paper_machine, write_result
from repro.algorithms import bind_sssp, dijkstra_on_graph
from repro.analysis import format_table
from repro.strategies import fixed_point


def run_sssp_with_buffer(g, wg, buffer_size):
    m = paper_machine(4)
    layers = {"relax": {"coalescing": buffer_size}} if buffer_size else None
    bp = bind_sssp(m, g, wg, layers=layers)
    bp.map("dist")[0] = 0.0
    fixed_point(m, bp["relax"], [0])
    return bp.map("dist").to_array(), m


def test_c1_coalescing_reduces_physical_messages(benchmark):
    g, wg = er_weighted(n=256, avg_deg=8, seed=4)
    oracle = dijkstra_on_graph(g, wg, 0)

    d, _ = benchmark.pedantic(
        lambda: run_sssp_with_buffer(g, wg, 64), rounds=3, iterations=1
    )
    finite = np.isfinite(oracle)
    assert np.allclose(d[finite], oracle[finite])

    rows = []
    for buf in (None, 4, 16, 64, 256):
        d_b, m = run_sssp_with_buffer(g, wg, buf)
        assert np.allclose(d_b[finite], oracle[finite])
        s = m.stats.summary()
        physical = s["coalesced_flushes"] if buf else s["sent_total"]
        rows.append(
            {
                "buffer": buf or 1,
                "logical_msgs": s["handler_calls"],
                "physical_transfers": physical,
                "handlers": s["handler_calls"],
            }
        )
    # headline claim: physical transfers shrink monotonically with buffer
    phys = [r["physical_transfers"] for r in rows]
    assert phys[0] > phys[2] > phys[-1]
    assert phys[0] / phys[-1] > 10  # "greatly improves"
    write_result(
        "C1_coalescing",
        "C1 — coalescing: physical transfers vs buffer size (SSSP, ER n=256)",
        format_table(rows),
    )
