"""A3 — lock-map granularity ablation (paper Sec. IV-B).

"Two examples of possible locking schemes are a single lock per vertex or
a lock for a block of vertices, with a tradeoff between the coarseness of
synchronization and the number of locks."

Regenerated series: SSSP on the thread transport with multiple workers
per rank, sweeping the lock block size.  Every granularity produces
oracle distances (correctness is granularity-independent); the lock count
falls with the block size, quantifying the trade-off's memory side (the
contention side needs real parallel hardware, out of scope per
DESIGN.md).
"""

import numpy as np

from _common import paper_machine, write_result
from repro import LockMap
from repro.algorithms import bind_sssp, dijkstra_on_graph
from repro.analysis import format_table
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.strategies import fixed_point


def make_graph(n=96, deg=5, seed=19, n_ranks=3):
    s, t = erdos_renyi(n, n * deg, seed=seed)
    w = uniform_weights(n * deg, 1, 8, seed=seed + 1)
    return build_graph(n, list(zip(s.tolist(), t.tolist())), weights=w, n_ranks=n_ranks)


def run(g, wg, block_size):
    m = paper_machine(3, transport="threads", threads_per_rank=3)
    try:
        lm = LockMap.per_block(g.n_vertices, block_size)
        bp = bind_sssp(m, g, wg)
        bp.lockmap = lm
        bp.map("dist")[0] = 0.0
        fixed_point(m, bp["relax"], [0])
        return bp.map("dist").to_array(), lm
    finally:
        m.shutdown()


def test_a3_lockmap_granularity(benchmark):
    g, wg = make_graph()
    oracle = dijkstra_on_graph(g, wg, 0)
    finite = np.isfinite(oracle)

    benchmark.pedantic(lambda: run(g, wg, 8), rounds=3, iterations=1)

    rows = []
    for block in (1, 8, 32, 128):
        d, lm = run(g, wg, block)
        assert np.allclose(d[finite], oracle[finite])
        rows.append(
            {
                "block_size": block,
                "locks": lm.n_locks,
                "correct": True,
            }
        )
    assert rows[0]["locks"] == g.n_vertices
    assert rows[-1]["locks"] == 1
    write_result(
        "A3_lockmap",
        "A3 — lock-map granularity sweep (threads, 3 workers/rank)",
        format_table(rows)
        + "\nresults identical at every granularity (Sec. IV-B trade-off is "
        "lock count vs contention)",
    )
