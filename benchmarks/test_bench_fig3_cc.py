"""F3 — Fig. 3: the parallel-search CC algorithm.

Paper artifact: the CC driver (concurrent searches + epoch_flush, pointer
jumping via once, final rewrite).  Regenerated rows: correctness against
a union-find oracle across flush budgets, plus the concurrency profile —
smaller flush budgets start more simultaneous searches, producing more
collisions and more pointer-jumping work, while the result is invariant.
"""

import numpy as np

from _common import er_undirected, paper_machine, write_result
from repro.algorithms import connected_components
from repro.analysis import format_table
from repro.baselines import same_partition, union_find_cc


def test_fig3_parallel_search_cc(benchmark):
    g, s, t = er_undirected(n=200, m=230, seed=3)
    oracle = union_find_cc(200, np.concatenate([s, t]), np.concatenate([t, s]))

    def run(budget):
        m = paper_machine(4)
        comp, det = connected_components(
            m, g, flush_budget=budget, return_details=True
        )
        return comp, det, m

    comp, det, _ = benchmark.pedantic(lambda: run(2), rounds=3, iterations=1)
    assert same_partition(comp, oracle)

    rows = []
    for budget in (None, 16, 4, 1):
        comp_b, det_b, m = run(budget)
        assert same_partition(comp_b, oracle)
        rows.append(
            {
                "flush_budget": "full" if budget is None else budget,
                "searches": det_b["searches_started"],
                "collisions": det_b["collisions"],
                "jump_rounds": det_b["jump_rounds"],
                "claims": det_b["claims"],
                "msgs": m.stats.total.sent_total,
            }
        )
    # the paper's qualitative claim: more concurrency (smaller flush) =>
    # more searches and more collisions, same components
    assert rows[-1]["searches"] >= rows[0]["searches"]
    write_result(
        "F3_cc_parallel_search",
        "Fig. 3 — parallel-search CC vs flush budget (ER n=200, m=230)",
        format_table(rows)
        + "\ncomponents identical across budgets and equal to union-find oracle",
    )
