"""F5 — Fig. 5: gather-message synthesis on the general example.

Paper artifact: "every 'jump' between vertices corresponds to a message,
totaling in 8 messages in this case", with the dashed line showing the
more efficient direct order ("it would be more efficient to proceed
straight to vertex 3 from 2").

Regenerated: an action whose locality tree matches the figure — root v
with required children 1, 2, 3; 3 -> 4; 4 -> u -> 5; evaluation at 5 —
planned in both modes.  The naive depth-first walk costs exactly the
paper's 8 messages; the optimized direct walk costs 6.  The plans are
also *executed* on a machine where every locality is a distinct vertex on
a distinct rank, confirming the synthesized communication really sends
that many remote messages.
"""

from _common import paper_machine, write_result
from repro.analysis import format_table
from repro.graph import build_graph
from repro.patterns import Pattern, bind, compile_action


def fig5_pattern() -> Pattern:
    p = Pattern("FIG5")
    pa = p.vertex_prop("pa", "vertex")
    pb = p.vertex_prop("pb", "vertex")
    pc = p.vertex_prop("pc", "vertex")
    pd = p.vertex_prop("pd", "vertex")
    pw = p.vertex_prop("pw", "vertex")
    val = p.vertex_prop("val", float)
    out = p.vertex_prop("out", float)
    a = p.action("gather5")
    v = a.input
    n1, n2, n3 = pa[v], pb[v], pc[v]
    n4 = pd[n3]
    u = pw[n4]
    n5 = pa[u]
    total = val[n1] + val[n2] + val[n3] + val[n4]
    with a.when(total > out[n5]):
        a.set(out[n5], total)
    return p


def test_fig5_static_message_counts(benchmark):
    p = fig5_pattern()
    action = p.actions["gather5"]
    plans = benchmark(
        lambda: {m: compile_action(action, m) for m in ("naive", "optimized")}
    )
    naive = plans["naive"].cond_plans[0]
    opt = plans["optimized"].cond_plans[0]
    assert naive.static_message_count() == 8  # the paper's count
    assert opt.static_message_count() == 6  # direct sibling hops
    rows = [
        {
            "mode": mode,
            "messages": cp.static_message_count(),
            "route": "v -> " + " -> ".join(cp.message_sequence()),
        }
        for mode, cp in (("naive (paper: 8)", naive), ("optimized", opt))
    ]
    write_result(
        "F5_gather_messages",
        "Fig. 5 — gather message counts for the 6-locality example",
        format_table(rows, columns=["mode", "messages", "route"]),
    )


def test_fig5_execution_matches_static_count(benchmark):
    """Run the Fig. 5 action with every locality on its own rank; the
    remote-message count must equal the static plan count."""
    p = fig5_pattern()
    # vertices: v=0, 1, 2, 3, 4, u=5, five=6 — one rank each
    n = 7
    g, _ = build_graph(n, [(0, 0)], n_ranks=7, partition="cyclic")

    def run(mode):
        m = paper_machine(7, schedule="fifo")
        bp = bind(p, m, g, mode=mode)
        for name, value in (
            ("pa", {0: 1, 5: 6}),
            ("pb", {0: 2}),
            ("pc", {0: 3}),
            ("pd", {3: 4}),
            ("pw", {4: 5}),
        ):
            pm = bp.map(name)
            for k, val in value.items():
                pm[k] = val
        valm = bp.map("val")
        for i in (1, 2, 3, 4):
            valm[i] = float(i)
        bp.map("out").fill(-1.0)
        with m.epoch() as ep:
            bp["gather5"].invoke(ep, 0)
        assert bp.map("out")[6] == 10.0  # 1+2+3+4 written at locality 5
        return m.stats.total.sent_remote

    remote_naive = run("naive")
    remote_opt = benchmark.pedantic(lambda: run("optimized"), rounds=3, iterations=1)
    assert remote_naive == 8
    assert remote_opt == 6
    write_result(
        "F5_execution",
        "Fig. 5 — executed remote messages (each locality on its own rank)",
        f"naive: {remote_naive} remote messages (paper: 8)\n"
        f"optimized: {remote_opt} remote messages",
    )
