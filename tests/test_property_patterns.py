"""Property-based tests over *randomly generated patterns*.

A miniature reference interpreter evaluates a generated action's
semantics directly on the property arrays (sequentially, at a single
"vertex view"); the distributed execution through the full
locality-analysis / planner / executor stack must agree for every
schedule, partition, and planning mode — and the naive plan must never
use fewer messages than the optimized plan.

Generated actions have the shape::

    if ( val[<chain1>] <op> val[<chain2>] + <const> ):
        out[<chain3>] = val[<chain1>] + <const2>

where each <chain> is v, nxt[v], or nxt[nxt[v]] — the locality depths
that exercise routing, gathering, and merging.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import Machine
from repro.graph import build_graph
from repro.patterns import Pattern, bind, compile_action, trg

OPS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def random_action_specs(draw):
    return {
        "depth1": draw(st.integers(0, 2)),
        "depth2": draw(st.integers(0, 2)),
        "depth3": draw(st.integers(0, 2)),
        "op": draw(st.sampled_from(OPS)),
        "c1": draw(st.integers(-3, 3)),
        "c2": draw(st.integers(-3, 3)),
        "n": draw(st.integers(2, 12)),
        "nxt_seed": draw(st.integers(0, 10_000)),
        "val_seed": draw(st.integers(0, 10_000)),
    }


def build_pattern(spec):
    p = Pattern("RAND")
    nxt = p.vertex_prop("nxt", "vertex")
    val = p.vertex_prop("val", float)
    out = p.vertex_prop("out", float, default=0.0)
    a = p.action("act")
    v = a.input

    def chain(depth):
        e = v
        for _ in range(depth):
            e = nxt[e]
        return e

    lhs = val[chain(spec["depth1"])]
    rhs = val[chain(spec["depth2"])] + spec["c1"]
    test = {
        "<": lhs < rhs,
        "<=": lhs <= rhs,
        ">": lhs > rhs,
        ">=": lhs >= rhs,
        "==": lhs == rhs,
        "!=": lhs != rhs,
    }[spec["op"]]
    with a.when(test):
        a.set(out[chain(spec["depth3"])], lhs + spec["c2"])
    return p


def make_state(spec):
    n = spec["n"]
    rng = np.random.default_rng(spec["nxt_seed"])
    nxt = rng.integers(0, n, size=n).astype(np.int64)
    rng2 = np.random.default_rng(spec["val_seed"])
    val = rng2.integers(-5, 6, size=n).astype(np.float64)
    return nxt, val


def reference_run(spec, nxt, val):
    """Direct sequential semantics: apply the action at every vertex.

    One subtlety matches the distributed executor: each action invocation
    is independent, and `out` is write-only here, so order cannot matter.
    """
    n = spec["n"]
    out = np.zeros(n)

    def chase(v, depth):
        for _ in range(depth):
            v = int(nxt[v])
        return v

    ops = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
    }
    writes = []
    for v in range(n):
        lhs = val[chase(v, spec["depth1"])]
        rhs = val[chase(v, spec["depth2"])] + spec["c1"]
        if ops[spec["op"]](lhs, rhs):
            writes.append((chase(v, spec["depth3"]), lhs + spec["c2"]))
    for w, value in writes:
        out[w] = value  # all written values equal per target? not
        # necessarily — see uniqueness note in the test below
    return out, writes


machines = st.builds(
    dict,
    n_ranks=st.integers(1, 4),
    schedule=st.sampled_from(["round_robin", "random", "fifo", "lifo"]),
    seed=st.integers(0, 99),
)


class TestRandomPatterns:
    @given(spec=random_action_specs(), mach=machines,
           mode=st.sampled_from(["optimized", "naive"]))
    @settings(max_examples=60, deadline=None)
    def test_distributed_matches_reference(self, spec, mach, mode):
        pattern = build_pattern(spec)
        nxt_arr, val_arr = make_state(spec)
        ref_out, writes = reference_run(spec, nxt_arr, val_arr)
        # Different invocations may write different values to the same
        # target; then the result is order-dependent in both worlds.
        # Restrict the equality check to unambiguous targets.
        by_target: dict[int, set] = {}
        for w, value in writes:
            by_target.setdefault(w, set()).add(value)
        unambiguous = [w for w, vals in by_target.items() if len(vals) == 1]

        g, _ = build_graph(spec["n"], [(0, 0)], n_ranks=mach["n_ranks"])
        m = Machine(**mach)
        bp = bind(pattern, m, g, mode=mode)
        bp.map("nxt").from_array(nxt_arr)
        bp.map("val").from_array(val_arr)
        with m.epoch() as ep:
            for v in range(spec["n"]):
                bp["act"].invoke(ep, v)
        got = bp.map("out").to_array()
        for w in unambiguous:
            assert got[w] == ref_out[w]
        # untouched vertices stay at the default
        for w in range(spec["n"]):
            if w not in by_target:
                assert got[w] == 0.0

    @given(spec=random_action_specs())
    @settings(max_examples=60, deadline=None)
    def test_naive_never_cheaper_than_optimized(self, spec):
        pattern = build_pattern(spec)
        action = pattern.actions["act"]
        n_opt = compile_action(action, "optimized").static_message_count()
        n_naive = compile_action(action, "naive").static_message_count()
        assert n_naive >= n_opt

    @given(spec=random_action_specs(), mach=machines,
           depth4=st.integers(0, 2), c3=st.integers(-3, 3),
           op2=st.sampled_from(OPS))
    @settings(max_examples=40, deadline=None)
    def test_two_condition_groups_match_reference(
        self, spec, mach, depth4, c3, op2
    ):
        """Two independent 'if' groups writing two different maps: the
        second group's inputs must survive the first group's hops
        (cross-condition liveness)."""
        p = Pattern("RAND2")
        nxt = p.vertex_prop("nxt", "vertex")
        val = p.vertex_prop("val", float)
        out = p.vertex_prop("out", float, default=0.0)
        out2 = p.vertex_prop("out2", float, default=0.0)
        a = p.action("act")
        v = a.input

        def chain(depth):
            e = v
            for _ in range(depth):
                e = nxt[e]
            return e

        lhs = val[chain(spec["depth1"])]
        rhs = val[chain(spec["depth2"])] + spec["c1"]
        tests = {
            "<": lambda l, r: l < r, "<=": lambda l, r: l <= r,
            ">": lambda l, r: l > r, ">=": lambda l, r: l >= r,
            "==": lambda l, r: l == r, "!=": lambda l, r: l != r,
        }
        expr_tests = {
            "<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs,
            ">=": lhs >= rhs, "==": lhs == rhs, "!=": lhs != rhs,
        }
        with a.when(expr_tests[spec["op"]]):
            a.set(out[chain(spec["depth3"])], lhs + spec["c2"])
        lhs2 = val[chain(depth4)]
        expr_tests2 = {
            "<": lhs2 < c3, "<=": lhs2 <= c3, ">": lhs2 > c3,
            ">=": lhs2 >= c3, "==": lhs2 == c3, "!=": lhs2 != c3,
        }
        with a.when(expr_tests2[op2]):
            a.set(out2[v], lhs2 * 2)

        nxt_arr, val_arr = make_state(spec)
        n = spec["n"]

        def chase(u, depth):
            for _ in range(depth):
                u = int(nxt_arr[u])
            return u

        # reference
        ref2 = np.zeros(n)
        writes1: dict[int, set] = {}
        for u in range(n):
            l1 = val_arr[chase(u, spec["depth1"])]
            r1 = val_arr[chase(u, spec["depth2"])] + spec["c1"]
            if tests[spec["op"]](l1, r1):
                writes1.setdefault(chase(u, spec["depth3"]), set()).add(
                    l1 + spec["c2"]
                )
            l2 = val_arr[chase(u, depth4)]
            if tests[op2](l2, c3):
                ref2[u] = l2 * 2

        g, _ = build_graph(n, [(0, 0)], n_ranks=mach["n_ranks"])
        m = Machine(**mach)
        bp = bind(p, m, g)
        bp.map("nxt").from_array(nxt_arr)
        bp.map("val").from_array(val_arr)
        with m.epoch() as ep:
            for u in range(n):
                bp["act"].invoke(ep, u)
        got1 = bp.map("out").to_array()
        got2 = bp.map("out2").to_array()
        # group 2 is per-invocation-unique: exact match everywhere
        np.testing.assert_allclose(got2, ref2)
        # group 1: unambiguous targets only (same caveat as above)
        for w, vals in writes1.items():
            if len(vals) == 1:
                assert got1[w] == next(iter(vals))

    @given(spec=random_action_specs())
    @settings(max_examples=40, deadline=None)
    def test_plan_bounded_by_tree_size(self, spec):
        """Optimized gather visits each needed locality at most once, so
        the hop count is bounded by the distinct-locality count (3 chains
        of depth <= 2 -> at most 7 localities)."""
        pattern = build_pattern(spec)
        plan = compile_action(pattern.actions["act"])
        assert plan.static_message_count() <= 7


# ---------------------------------------------------------------------------
# Multi-condition actions: the vector tier's in-order lowering is ``off``
# ---------------------------------------------------------------------------
#
# Actions with no confluence class run their step chains as column stages
# in arrival order on the vector tier.  This second generator draws such
# actions — a generator or none, gather chains of depth 0-2, one to three
# condition groups with and without ``else``, and each group's
# modification a guarded first-come claim, a masked assign, a set insert
# or a ``+=`` — and requires the vector tier to agree with the ``off``
# oracle bitwise on ``sim`` under every schedule: maps, dependents,
# counters and every shipped envelope.

MODS = ["first_come", "assign", "insert", "add"]
SCHEDULES = ["round_robin", "random", "fifo", "lifo"]


@st.composite
def multi_condition_specs(draw):
    groups = [
        {
            "mod": draw(st.sampled_from(MODS)),
            "depth": draw(st.integers(0, 2)),
            "src_depth": draw(st.integers(0, 2)),
            "op": draw(st.sampled_from(OPS)),
            "c": draw(st.integers(-2, 3)),
            "else_depth": draw(st.one_of(st.none(), st.integers(0, 2))),
        }
        for _ in range(draw(st.integers(1, 3)))
    ]
    return {
        "generator": draw(st.sampled_from([None, "adj", "out_edges"])),
        "groups": groups,
        "n": draw(st.integers(2, 10)),
        "m": draw(st.integers(0, 24)),
        "seed": draw(st.integers(0, 10_000)),
        "n_ranks": draw(st.integers(1, 4)),
        "partition": draw(st.sampled_from(["cyclic", "block"])),
        "coalescing": draw(st.sampled_from([1, 5, 64])),
        "schedule": draw(st.sampled_from(SCHEDULES)),
        "machine_seed": draw(st.integers(0, 99)),
    }


def build_multi_condition(spec):
    p = Pattern("FUZZ")
    nxt = p.vertex_prop("nxt", "vertex")
    val = p.vertex_prop("val", int)
    lab = p.vertex_prop("lab", "vertex", default=-1)
    out = p.vertex_prop("out", int, default=0)
    acc = p.vertex_prop("acc", float, default=0.0)
    seen = p.vertex_prop("seen", "set")
    wt = p.edge_prop("wt", float)
    a = p.action("act")
    v = a.input
    base, weight = v, None
    if spec["generator"] == "adj":
        base = a.adj()
    elif spec["generator"] == "out_edges":
        e = a.out_edges()
        base, weight = trg(e), wt[e]

    def chain(start, depth):
        for _ in range(depth):
            start = nxt[start]
        return start

    ops = {
        "<": lambda x, y: x < y,
        "<=": lambda x, y: x <= y,
        ">": lambda x, y: x > y,
        ">=": lambda x, y: x >= y,
        "==": lambda x, y: x == y,
        "!=": lambda x, y: x != y,
    }
    for grp in spec["groups"]:
        t = chain(base, grp["depth"])
        x = val[chain(v, grp["src_depth"])]
        test = ops[grp["op"]](x, out[t] + grp["c"])
        if grp["mod"] == "first_come":
            with a.when(lab[t] == -1):
                a.set(lab[t], x)
        elif grp["mod"] == "assign":
            with a.when(test):
                a.set(out[t], x + grp["c"])
        elif grp["mod"] == "insert":
            with a.when(test):
                a.insert(seen[t], x)
        else:
            with a.when(test):
                a.add(acc[t], x / 3.0 if weight is None else weight * x)
        if grp["else_depth"] is not None:
            with a.otherwise():
                a.set(out[chain(base, grp["else_depth"])], x - 1)
    return p


def run_multi_condition(spec, fast_path: str):
    """Start the action at every vertex, twice; the work hook re-invokes
    it once per dependent vertex.  Returns everything ``off`` decides."""
    n = spec["n"]
    rng = np.random.default_rng(spec["seed"])
    edges = rng.integers(0, n, size=(spec["m"], 2))
    g, _ = build_graph(n, edges, n_ranks=spec["n_ranks"], partition=spec["partition"])
    m = Machine(
        spec["n_ranks"],
        fast_path=fast_path,
        schedule=spec["schedule"],
        seed=spec["machine_seed"],
    )
    shipped: list = []
    wire = m.transport._wire

    def spy(mtype, src, dest, payload, batch):
        rows = tuple(payload) if batch else (payload,)
        shipped.append((src, dest, tuple(tuple(np.asarray(r).tolist()) for r in rows)))
        wire(mtype, src, dest, payload, batch)

    m.transport._wire = spy
    bp = bind(build_multi_condition(spec), m, g, layers={"act": {"coalescing": spec["coalescing"]}})
    bp.map("nxt").from_array(rng.integers(0, n, size=n))
    bp.map("val").from_array(rng.integers(-2, 6, size=n))
    bp.map("wt").from_array(rng.uniform(0.1, 2.0, size=g.n_edges) / 3.0)
    act = bp["act"]
    deps: list = []

    def hook(ctx, w):
        if w not in deps:
            act.invoke_from(ctx, w)
        deps.append(int(w))

    act.work = hook
    for _ in range(2):
        with m.epoch() as ep:
            act.invoke_many(ep, np.arange(n))
    maps = tuple(
        bp.map(k).to_array().tobytes() for k in ("lab", "out", "acc")
    ) + (tuple(None if s is None else tuple(sorted(s)) for s in bp.map("seen").to_array()),)
    st_ = m.stats.by_type[act.mtype.name]
    logical = (
        st_.handler_calls,
        st_.sent_local,
        st_.sent_remote,
        st_.coalesced_flushes,
        st_.payload_slots,
        m.stats.total.work_items,
        act.change_count,
        act.assign_count,
    )
    lowered = (st_.vector_items, st_.handler_calls, act.lowering is not None)
    m.shutdown()
    return (maps, deps, logical, shipped), lowered


class TestMultiConditionLowering:
    @given(spec=multi_condition_specs())
    @settings(max_examples=200, deadline=None)
    def test_vector_is_bitwise_off(self, spec):
        off, _ = run_multi_condition(spec, "off")
        vec, (items, calls, lowered) = run_multi_condition(spec, "vector")
        assert vec[0] == off[0], "maps differ"
        assert vec[1] == off[1], "dependents differ"
        assert vec[2] == off[2], "logical counters differ"
        assert vec[3] == off[3], "shipped envelopes differ"
        # The share of delivered rows the column stages ran (shown with
        # ``--hypothesis-show-statistics``).
        if lowered and calls:
            bucket = 25 * int(4 * items / calls)
            event(f"rows lowered: {bucket}%{'' if items == calls else '+'}")
        else:
            event("not lowered" if not lowered else "no deliveries")
