"""F6 — Fig. 6: one-message communication for the SSSP pattern.

Paper artifact: "The two values necessary to compute the new distance,
dist[v] and weight[e], are local to the input vertex v.  The
subexpression dist[v] + weight[e] is precomputed at vertex v, and then
sent as the payload of the message that computes the condition and
performs the corresponding assignment when the condition is true at the
vertex trg(e)."

Regenerated and asserted:
* the compiled plan has exactly one hop (v -> trg(e));
* the hop's gather step *folds* dist[v] + weight[e] and the components
  are dead afterwards (the payload carries the sum, not the parts);
* the evaluate step is merged with the modification at trg(e);
* executing one relaxation across a 2-rank machine sends exactly one
  remote message whose payload carries exactly one environment value.
"""

from _common import paper_machine, write_result
from repro.algorithms import sssp_pattern
from repro.graph import build_graph
from repro.patterns import bind, compile_action
from repro.props import weight_map_from_array


def test_fig6_plan_structure(benchmark):
    plan = benchmark(lambda: compile_action(sssp_pattern().actions["relax"]))
    cp = plan.cond_plans[0]
    assert cp.static_message_count() == 1
    gather, evaluate = cp.steps
    assert gather.kind == "gather" and evaluate.kind == "eval"
    assert [f.pretty() for f in gather.folds] == ["(dist[v] + weight[e])"]
    fold_key = gather.folds[0].key()
    dist_v_key = ("read", "dist", ("input", "relax"))
    weight_e_key = ("read", "weight", ("gen", "relax", "edge"))
    assert fold_key in gather.live_out
    assert dist_v_key not in gather.live_out  # components die after folding
    assert weight_e_key not in gather.live_out
    assert cp.merged
    assert evaluate.locality.pretty() == "trg(e)"
    write_result(
        "F6_sssp_message",
        "Fig. 6 — SSSP one-message plan",
        plan.describe()
        + "\npayload after fold: { (dist[v] + weight[e]) } — single value",
    )


def test_fig6_execution_one_remote_message(benchmark):
    # one edge 0 -> 1, each vertex on its own rank
    g, w = build_graph(2, [(0, 1)], weights=[4.0], n_ranks=2)

    def run():
        m = paper_machine(2)
        bp = bind(
            sssp_pattern(), m, g, props={"weight": weight_map_from_array(g, w)}
        )
        bp.map("dist")[0] = 0.0
        with m.epoch() as ep:
            bp["relax"].invoke(ep, 0)
        assert bp.map("dist")[1] == 4.0
        return m

    m = benchmark.pedantic(run, rounds=3, iterations=1)
    ts = m.stats.by_type["pat.SSSP.relax"]
    assert ts.sent_remote == 1  # Fig. 6: exactly one message crosses ranks
    # payload: (dest, cond, step, slot, sum) = 5 slots for the remote hop,
    # 3 for the local action start
    assert ts.payload_slots == 3 + 5
    write_result(
        "F6_execution",
        "Fig. 6 — executed SSSP relaxation across 2 ranks",
        f"remote messages: {ts.sent_remote} (paper: 1)\n"
        f"payload slots: start=3, evaluate-hop=5 "
        f"(dest, cond, step, slot-id, dist[v]+weight[e])",
    )
