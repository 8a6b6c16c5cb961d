"""F4 — Fig. 4: the CC patterns (cc_search, cc_jump) and once-driven
pointer jumping.

Paper artifact: the CC pattern listing.  Regenerated: the compiled plans
of both actions (cc_search fans out over adj; cc_jump chases the chained
locality chg[chg[w]]), and the pointer-jumping convergence series — the
number of `once` rounds grows logarithmically in the conflict-chain
length, the property pointer jumping exists to provide.
"""

import numpy as np

from _common import paper_machine, write_result
from repro.algorithms import cc_pattern
from repro.analysis import format_table
from repro.graph import build_graph
from repro.patterns import bind, compile_action
from repro.strategies import once


def test_fig4_pattern_plans(benchmark):
    p = cc_pattern()
    plans = benchmark(
        lambda: {name: compile_action(a) for name, a in p.actions.items()}
    )
    search_plan, jump_plan = plans["cc_search"], plans["cc_jump"]
    # cc_search claims via a merged eval at u; collisions modify at roots
    assert "prnt" in search_plan.dependent_props
    assert "chg" in search_plan.dependent_props
    # cc_jump's chained locality: gather at chg[w] then eval at w
    assert jump_plan.cond_plans[0].static_message_count() == 2
    write_result(
        "F4_cc_patterns",
        "Fig. 4 — compiled CC patterns",
        p.describe()
        + "\n\n"
        + search_plan.describe()
        + "\n\n"
        + jump_plan.describe(),
    )


def test_fig4_pointer_jumping_rounds(benchmark):
    """once(cc_jump) rounds scale ~log2(chain length)."""

    def jump_rounds(chain_len: int) -> int:
        # a conflict chain: chg[i] = i-1 for i in 1..chain_len
        n = chain_len + 1
        g, _ = build_graph(n, [(0, 0)], n_ranks=4, deduplicate=False)
        m = paper_machine(4)
        bp = bind(cc_pattern(), m, g)
        chg = bp.map("chg")
        for i in range(1, n):
            chg[i] = i - 1
        jump = bp["cc_jump"]
        rounds = 0
        # the paper's driver: only vertices whose chg is non-NULL
        while once(m, jump, [v for v in range(n) if int(chg[v]) != -1]):
            rounds += 1
            assert rounds < 64
        assert all(int(chg[i]) == 0 for i in range(1, n))
        return rounds

    rounds_64 = benchmark.pedantic(lambda: jump_rounds(64), rounds=1, iterations=1)
    rows = []
    for length in (4, 16, 64, 256):
        r = jump_rounds(length)
        rows.append({"chain_length": length, "once_rounds": r})
    # logarithmic growth: quadrupling the chain adds ~2 rounds
    assert rows[-1]["once_rounds"] <= rows[0]["once_rounds"] + 8
    assert rows[-1]["once_rounds"] >= rows[0]["once_rounds"]
    write_result(
        "F4_pointer_jumping",
        "Fig. 4 — once(cc_jump) rounds vs conflict-chain length",
        format_table(rows) + "\ngrowth is logarithmic (pointer halving)",
    )
