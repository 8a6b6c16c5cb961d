"""S1 — Graph500 context (paper Sec. I): message-complexity scaling on
R-MAT graphs.

Wall-clock distributed scaling is out of scope on a single-core container
(DESIGN.md Sec. 2); the machine-independent analogue is how communication
volume behaves as ranks are added to a fixed problem (strong "scaling")
and as problem and ranks grow together (weak "scaling").

Expected shapes:
* strong: total messages stay ~constant, but the *remote* fraction grows
  toward (1 - 1/p) as the graph is cut into more pieces;
* weak: remote messages per rank stay roughly flat (constant per-rank
  communication load), total work grows with the problem.
"""

import numpy as np

from _common import paper_machine, rmat_weighted, write_result
from repro.algorithms import bind_sssp
from repro.analysis import format_table
from repro.strategies import fixed_point


def run_sssp(g, wg, n_ranks):
    m = paper_machine(n_ranks)
    bp = bind_sssp(m, g, wg)
    # R-MAT permutes ids; pick a well-connected source so the traversal
    # actually covers the big component
    source = int(np.argmax([g.out_degree(v) for v in range(g.n_vertices)]))
    bp.map("dist")[source] = 0.0
    fixed_point(m, bp["relax"], [source])
    return m


def test_s1_strong_scaling_remote_fraction(benchmark):
    benchmark.pedantic(
        lambda: run_sssp(*rmat_weighted(scale=8, edge_factor=4, seed=13, n_ranks=4), 4),
        rounds=3,
        iterations=1,
    )
    rows = []
    for p in (1, 2, 4, 8, 16):
        g, wg = rmat_weighted(scale=8, edge_factor=4, seed=13, n_ranks=p)
        m = run_sssp(g, wg, p)
        s = m.stats.summary()
        frac = s["sent_remote"] / max(s["sent_total"], 1)
        rows.append(
            {
                "ranks": p,
                "total_msgs": s["sent_total"],
                "remote_msgs": s["sent_remote"],
                "remote_frac": round(frac, 3),
                "ideal_frac": round(1 - 1 / p, 3),
            }
        )
    assert rows[0]["remote_msgs"] == 0  # single rank: everything local
    fracs = [r["remote_frac"] for r in rows]
    assert all(b >= a - 0.02 for a, b in zip(fracs, fracs[1:]))  # grows
    write_result(
        "S1_strong_scaling",
        "S1 — remote-message fraction vs ranks (R-MAT scale 8, fixed problem)",
        format_table(rows),
    )


def test_s1_strong_scaling_partitioner_skew(benchmark):
    """Strong-scaling companion to BENCH_partition: as ranks grow on a
    fixed power-law problem, the block layout's max-rank load share
    climbs with p (ever-thinner contiguous slices concentrate the hub
    prefix) while the degree-aware LPT packing stays pinned near 1."""
    from repro.graph import rmat
    from repro.graph.partition import make_partition, partition_quality

    s, t = rmat(9, edge_factor=8, seed=13, permute=False)
    n = 1 << 9
    degrees = np.bincount(s, minlength=n)
    benchmark.pedantic(
        lambda: partition_quality(
            make_partition("degree", n, 8, degrees=degrees), s, t
        ),
        rounds=3,
        iterations=1,
    )
    rows = []
    for p in (2, 4, 8, 16):
        shares = {
            kind: partition_quality(
                make_partition(kind, n, p, degrees=degrees), s, t
            ).max_edge_share
            for kind in ("block", "degree", "grid2d")
        }
        rows.append(
            {
                "ranks": p,
                "block_max_share": round(shares["block"], 3),
                "degree_max_share": round(shares["degree"], 3),
                "grid2d_max_share": round(shares["grid2d"], 3),
            }
        )
    blocks = [r["block_max_share"] for r in rows]
    assert all(b >= a - 0.02 for a, b in zip(blocks, blocks[1:]))  # grows
    # LPT stays near the lower bound; at p=16 a single hub already owns
    # more than 1/16 of the arcs, so assert the reduction, not a constant
    assert all(
        r["block_max_share"] / r["degree_max_share"] >= 1.5 for r in rows
    )
    write_result(
        "S1_partitioner_skew",
        "S1 — max-rank load share vs ranks by partitioner (R-MAT scale 9)",
        format_table(rows),
    )


def test_s1_weak_scaling_per_rank_load(benchmark):
    benchmark.pedantic(
        lambda: run_sssp(*rmat_weighted(scale=7, edge_factor=4, seed=14, n_ranks=2), 2),
        rounds=3,
        iterations=1,
    )
    rows = []
    for scale, p in ((7, 2), (8, 4), (9, 8), (10, 16)):
        g, wg = rmat_weighted(scale=scale, edge_factor=4, seed=14, n_ranks=p)
        m = run_sssp(g, wg, p)
        s = m.stats.summary()
        rows.append(
            {
                "scale": scale,
                "ranks": p,
                "vertices": g.n_vertices,
                "total_msgs": s["sent_total"],
                "remote_per_rank": s["sent_remote"] // p,
            }
        )
    # weak-scaling shape: per-rank remote load within a modest band while
    # the problem grows 8x
    loads = [r["remote_per_rank"] for r in rows]
    assert max(loads) < 6 * max(min(loads), 1)
    write_result(
        "S1_weak_scaling",
        "S1 — per-rank remote load, problem and ranks growing together",
        format_table(rows),
    )
