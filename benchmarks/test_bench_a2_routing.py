"""A2 — Active Pebbles hypercube routing ablation.

The Active Pebbles model (the paper's substrate, ref. [3]) routes
messages over a hypercube to bound per-rank connection counts.
Regenerated series: SSSP on a cyclic-partitioned graph under direct vs
hypercube routing across rank counts — identical results; wire hops grow
by about the average routing distance (log2(p)/2 extra per message) while
the per-rank neighbour set shrinks from p-1 to log2(p).
"""

import numpy as np

from _common import paper_machine, write_result
from repro.algorithms import sssp_fixed_point
from repro.analysis import MessageTracer, format_table
from repro.graph import build_graph, erdos_renyi, uniform_weights


def run(n_ranks, routing, n=128, deg=6, seed=18):
    src, trg = erdos_renyi(n, n * deg, seed=seed)
    w = uniform_weights(n * deg, 1, 5, seed=seed + 1)
    g, wg = build_graph(
        n, list(zip(src.tolist(), trg.tolist())), weights=w,
        n_ranks=n_ranks, partition="cyclic",
    )
    m = paper_machine(n_ranks, routing=routing)
    tracer = MessageTracer.install(m)
    dist = sssp_fixed_point(m, g, wg, 0)
    conn = {}
    for a, b in tracer.rank_pairs(physical=True):
        conn.setdefault(a, set()).add(b)
    max_conn = max((len(v) for v in conn.values()), default=0)
    return dist, len(tracer.physical_hops), max_conn, m.stats.total.forwarded


def test_a2_hypercube_routing(benchmark):
    benchmark.pedantic(lambda: run(8, "hypercube"), rounds=3, iterations=1)
    rows = []
    for p in (2, 4, 8, 16):
        d_direct, hops_d, conn_d, _ = run(p, "direct")
        d_cube, hops_c, conn_c, forwarded = run(p, "hypercube")
        np.testing.assert_allclose(d_direct, d_cube)
        rows.append(
            {
                "ranks": p,
                "direct_hops": hops_d,
                "cube_hops": hops_c,
                "hop_ratio": round(hops_c / max(hops_d, 1), 2),
                "direct_conn": conn_d,
                "cube_conn": conn_c,
                "log2p": p.bit_length() - 1,
            }
        )
    for r in rows:
        assert r["cube_conn"] <= r["log2p"]
        assert r["direct_conn"] <= r["ranks"] - 1
        # average bit-fixing distance is (log2 p)/2, so hop inflation is
        # bounded by log2(p)
        assert r["hop_ratio"] <= r["log2p"] + 0.01
    assert rows[-1]["direct_conn"] > rows[-1]["cube_conn"]
    write_result(
        "A2_routing",
        "A2 — direct vs hypercube routing (SSSP, cyclic partition)",
        format_table(rows) + "\nidentical distances under both routings",
    )
