"""Execution fast paths: compiled action kernels and vector shapes.

The interpreted executor (:mod:`repro.patterns.executor`) re-walks the
expression tree through ``_Evaluator.eval`` for every delivered payload —
an ``unalias``/``key()``/``isinstance`` dispatch per AST node per message.
This module removes that CPU tax in two tiers while keeping the
message-level semantics of the interpreted path as the reference:

**Tier 1 — plan compilation** (:class:`ClosureCompiler`,
:func:`compile_steps`).  At ``bind()`` time every step's condition and
modification chain is compiled once into plain Python closures.  A closure
takes ``(env, rank)`` and returns the expression's value; environment
lookups, property reads and operator dispatch are resolved at compile
time, so per-message work is a handful of dict probes and calls.  The
compiled walk produces bit-identical payloads, statistics and property
values to the interpreted walk.

**Tier 2 — vector shape recognition** (:func:`recognize_vector_shape`).
Plans the planner matched as an extremum update (the SSSP-relax / CC-hook
shape, :class:`~repro.patterns.planner.Extremum`) or a sum (the
PageRank-scatter shape, :class:`~repro.patterns.planner.Sum`) are
additionally compiled to *batch kernels*: every generator start of a
delivered envelope fans out in one call (carry kernels over per-edge index
arrays into ``LocalCSR`` and property-map backing arrays), the rows travel
as column batches (:class:`~repro.runtime.wire.WireBatch`) and a whole
coalesced envelope is applied as one ``np.minimum.at``-style scatter (a
sum: one ``np.add.at``, row by row in arrival order), with dependent-vertex
``work`` hooks fired from the changed mask.  Plans outside the shapes fall
back to the scalar path; the machine's ``fast_path`` flag ("off" |
"compiled" | "vector") keeps the interpreted path available as the
correctness oracle.

Single-vertex consistency (paper Sec. IV-A merging) is preserved: the
batch kernel takes every destination vertex's lock before mutating and a
message's condition is still evaluated against the value at its own
destination (the scatter's compare-and-update is exactly the merged
eval+modify handler, applied once per payload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..props.property_map import EdgePropertyMap, LocalityError, VertexPropertyMap
from .action import Assign, AugAdd, ModifyCall
from .expr import (
    EDGE,
    PURE_FUNCTIONS,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    Contains,
    Expr,
    GenVar,
    InputVertex,
    PropRead,
    SrcOf,
    TrgOf,
    unalias,
)

_MISSING = object()  # sentinel: distinguishes "absent" from stored None
_INPUT_VALUE = object()  # sentinel: carried key whose value is the input vertex


# ---------------------------------------------------------------------------
# Tier 1: scalar closure compilation
# ---------------------------------------------------------------------------


class ClosureCompiler:
    """Compiles :class:`~repro.patterns.expr.Expr` trees to closures.

    A compiled expression is ``f(env, rank) -> value`` with the same
    semantics as ``_Evaluator.eval``: keys already present in the carried
    environment win (gathered reads, folded subexpressions), otherwise
    property maps are read at the executing rank.  Closures are memoized
    by structural key, so shared subexpressions compile once.
    """

    def __init__(self, bound) -> None:
        self.bound = bound
        self._memo: dict = {}

    def compile(self, expr: Expr) -> Callable:
        expr = unalias(expr)
        key = expr.key()
        fn = self._memo.get(key)
        if fn is None:
            fn = self._build(expr, key)
            self._memo[key] = fn
        return fn

    # -- node builders ------------------------------------------------------
    def _build(self, expr: Expr, key) -> Callable:
        if isinstance(expr, Const):
            val = expr.value
            return lambda env, rank: val
        if isinstance(expr, (InputVertex, GenVar)):
            # must be in the environment (the interpreted path raises too)
            return lambda env, rank: env[key]
        if isinstance(expr, PropRead):
            get = self.bound.maps[expr.decl.name].get
            idx = self.compile(expr.index)

            def read(env, rank, _k=key, _get=get, _idx=idx):
                v = env.get(_k, _MISSING)
                if v is not _MISSING:
                    return v
                return _get(_idx(env, rank), rank=rank)

            return read
        if isinstance(expr, SrcOf):
            edge = self.compile(expr.edge)
            g_src = self.bound.graph.src

            def srcof(env, rank, _k=key, _e=edge, _f=g_src):
                v = env.get(_k, _MISSING)
                return v if v is not _MISSING else _f(_e(env, rank))

            return srcof
        if isinstance(expr, TrgOf):
            edge = self.compile(expr.edge)
            g_trg = self.bound.graph.trg

            def trgof(env, rank, _k=key, _e=edge, _f=g_trg):
                v = env.get(_k, _MISSING)
                return v if v is not _MISSING else _f(_e(env, rank))

            return trgof
        if isinstance(expr, (BinOp, Compare)):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            op = expr._OPS[expr.op]
            if isinstance(expr, Compare):
                # comparisons are never folded into the env
                return lambda env, rank, _l=left, _r=right, _op=op: _op(
                    _l(env, rank), _r(env, rank)
                )

            def binop(env, rank, _k=key, _l=left, _r=right, _op=op):
                v = env.get(_k, _MISSING)
                return v if v is not _MISSING else _op(_l(env, rank), _r(env, rank))

            return binop
        if isinstance(expr, BoolOp):
            left = self.compile(expr.left)
            if expr.op == "not":
                return lambda env, rank, _l=left: not _l(env, rank)
            right = self.compile(expr.right)
            if expr.op == "and":
                return lambda env, rank, _l=left, _r=right: bool(
                    _l(env, rank)
                ) and bool(_r(env, rank))
            return lambda env, rank, _l=left, _r=right: bool(_l(env, rank)) or bool(
                _r(env, rank)
            )
        if isinstance(expr, Contains):
            read = self.compile(expr.read)
            item = self.compile(expr.item)

            def contains(env, rank, _c=read, _i=item):
                container = _c(env, rank)
                return container is not None and _i(env, rank) in container

            return contains
        if isinstance(expr, Call):
            args = tuple(self.compile(a) for a in expr.args)
            fn = PURE_FUNCTIONS[expr.fn_name]

            def call(env, rank, _k=key, _args=args, _fn=fn):
                v = env.get(_k, _MISSING)
                if v is not _MISSING:
                    return v
                return _fn(*[a(env, rank) for a in _args])

            return call
        raise TypeError(f"cannot compile {expr!r}")  # pragma: no cover


@dataclass
class CompiledStep:
    """Flattened, pre-resolved form of one plan step."""

    kind: str  # 'gather' | 'eval' | 'modify'
    loc_key: tuple
    carry: frozenset  # live_in minus the address-slot key
    elide_keys: tuple  # all keys this gather provides (run-time elision)
    reads: list  # [(key, pm.get, compiled index)]
    routing: list  # [(key, closure)]
    folds: list  # [(key, closure)]
    test: Optional[Callable]
    mods: list  # [apply(ctx, env, rank)]


def _compile_mod(ba, m, cc: ClosureCompiler) -> Callable:
    """Compile one modification into ``apply(ctx, env, rank)``.

    Mirrors ``BoundAction._apply_mods`` exactly, including change
    detection, env refresh for later modifications in the group, and the
    dependency/work-hook rule.  ``ba`` (the bound action) is consulted at
    call time so strategies can still swap the ``work`` hook after bind.
    """
    pm = ba.bound.maps[m.target.decl.name]
    get, set_ = pm.get, pm.set
    idx = cc.compile(m.target.index)
    refresh_key = ("read", m.target.decl.name, unalias(m.target.index).key())
    dependent = m.target.decl.name in ba.plan.dependent_props
    stats = ba.bound.machine.stats

    def fire(ctx, w) -> None:
        ba.change_count += 1
        if dependent:
            stats.count_work_item()
            if ba.work is not None:
                ba.work(ctx, w)

    if isinstance(m, Assign):
        val = cc.compile(m.value)

        def apply_assign(ctx, env, rank):
            w = idx(env, rank)
            new = val(env, rank)
            old = get(w, rank=rank)
            ba.assign_count += 1
            if old != new:
                set_(w, new, rank=rank)
                if refresh_key in env:
                    env[refresh_key] = new
                fire(ctx, w)

        return apply_assign
    if isinstance(m, AugAdd):
        val = cc.compile(m.value)

        def apply_augadd(ctx, env, rank):
            w = idx(env, rank)
            delta = val(env, rank)
            old = get(w, rank=rank)
            ba.assign_count += 1
            if delta != 0:
                set_(w, old + delta, rank=rank)
                if refresh_key in env:
                    env[refresh_key] = old + delta
                fire(ctx, w)

        return apply_augadd
    assert isinstance(m, ModifyCall)
    args = tuple(cc.compile(a) for a in m.args)
    insert = m.method == "insert"

    def apply_call(ctx, env, rank):
        w = idx(env, rank)
        container = get(w, rank=rank)
        if container is None:
            container = set()
            set_(w, container, rank=rank)
        vals = [a(env, rank) for a in args]
        item = vals[0] if len(vals) == 1 else tuple(vals)
        ba.assign_count += 1
        if insert:
            if item not in container:
                container.add(item)
                if refresh_key in env:
                    env[refresh_key] = container
                fire(ctx, w)
        else:
            if item in container:
                container.discard(item)
                if refresh_key in env:
                    env[refresh_key] = container
                fire(ctx, w)

    return apply_call


def compile_steps(ba) -> list[list[CompiledStep]]:
    """Compile every step of a bound action's plan (one list per condition)."""
    cc = ClosureCompiler(ba.bound)
    out: list[list[CompiledStep]] = []
    for cp in ba.plan.cond_plans:
        steps: list[CompiledStep] = []
        for s in cp.steps:
            reads = [
                (r.key(), ba.bound.maps[r.decl.name].get, cc.compile(r.index))
                for r in s.reads
            ]
            routing = [(r.key(), cc.compile(r)) for r in s.routing]
            folds = [(f.key(), cc.compile(f)) for f in s.folds]
            steps.append(
                CompiledStep(
                    kind=s.kind,
                    loc_key=s._loc_key,
                    carry=s._carry,
                    elide_keys=tuple(
                        [k for k, _, _ in reads]
                        + [k for k, _ in routing]
                        + [k for k, _ in folds]
                    ),
                    reads=reads,
                    routing=routing,
                    folds=folds,
                    test=None if s.test is None else cc.compile(s.test),
                    mods=[_compile_mod(ba, m, cc) for m in s.mods],
                )
            )
        out.append(steps)
    return out


# ---------------------------------------------------------------------------
# Tier 2: vector shape recognition
# ---------------------------------------------------------------------------


@dataclass
class VectorPlan:
    """A recognized vectorizable action shape.

    Semantics: for every generated neighbour ``t`` of the input vertex,
    compute the carried values at the input vertex, and at ``t`` apply
    the planner's update class (:attr:`~repro.patterns.planner.ActionPlan.confluence`):

    * ``update == "min"`` / ``"max"`` — ``target[t] = value`` when the
      value is strictly better (the SSSP-relax / BFS-hop / CC-min-label
      shape, :class:`~repro.patterns.planner.Extremum`);
    * ``update == "add"`` — ``target[t] += value`` for the rows that pass
      ``test`` (the PageRank-scatter shape,
      :class:`~repro.patterns.planner.Sum`), row by row in arrival order.

    The payload a scalar walk would send to the eval step may carry more
    than the value (liveness keeps e.g. the input vertex id alive even
    when the eval handler never consults it).  ``carry_vecs`` reproduces
    that exact layout — one ``(slot, kernel)`` per carried env key in env
    insertion order, each kernel ``f(rank, vloc, eidx, vglob)`` over
    per-edge index arrays (source local index, arc position, source global
    id) returning a per-edge array or a scalar — so vectorized sends are
    indistinguishable from scalar ones on the wire.

    ``value`` and ``test`` are kernels over a delivery's *value columns*:
    the address column (the neighbour) first, then one column per carried
    key in payload order (payload positions :attr:`value_positions`).
    """

    generator: str  # 'out_edges' | 'adj'
    eval_si: int  # step index of the eval step (message resume point)
    target_map: VertexPropertyMap
    update: str  # 'min' | 'max' | 'add'
    value: Callable  # value(cols) -> the candidate / added value per row
    test: Optional[Callable]  # test(cols) -> rows that apply ('add' only)
    fused: bool  # rank-local rows skip the message (source-local candidate)
    dependent: bool  # fires the work hook on change
    carry_vecs: list  # [(slot, kernel)] in payload order
    slot_sig: tuple  # the slot ids, in payload order (batch matching)
    payload_len: int  # 3 + 2 * len(carry_vecs)

    @property
    def minimize(self) -> bool:
        return self.update == "min"

    @property
    def order_free(self) -> bool:
        """The update commutes: deliveries may merge and rows reorder."""
        return self.update != "add"

    @property
    def value_positions(self) -> tuple:
        """Payload positions of the value columns: the address, then each
        carried value (slot ids sit between them)."""
        return (0, *range(4, self.payload_len, 2))

    def fan_out(self, rank: int, csr, vloc: np.ndarray, vglob: np.ndarray) -> tuple:
        """``(targets, sources, columns)`` over every out-edge of a batch
        of start vertices (local indices ``vloc``, global ids ``vglob``).

        Edges come vertex by vertex in CSR order; ``columns`` holds one
        per-edge array per carried env key, in payload order.
        """
        start, eidx = edge_index_arrays(csr.indptr, vloc)
        src, src_loc = vglob[start], vloc[start]
        cols = []
        for _slot, kern in self.carry_vecs:
            col = np.asarray(kern(rank, src_loc, eidx, src))
            cols.append(col if col.ndim else np.full(len(eidx), col))
        return csr.targets[eidx], src, cols

    def payload_columns(self, targets: np.ndarray, cols: list) -> list:
        """Eval-step payloads for one row per target, column-wise.

        The scalar walk's layout ``(dest, 0, eval_si, slot, value, ...)``
        with one entry per payload slot: the per-row arrays, and scalars
        for the step indices and slot ids every row shares.
        """
        out: list = [targets, 0, self.eval_si]
        for slot, col in zip(self.slot_sig, cols):
            out += (slot, col)
        return out


_UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _compile_vector_expr(expr: Expr, leaf: Callable) -> Optional[Callable]:
    """Compile a scalar expression to a numpy kernel over whole columns.

    ``leaf(expr)`` resolves the nodes the caller supplies as columns — it
    is asked first at every node, as the scalar walk consults its carried
    environment first — and returns a kernel or ``None``.  Constants,
    arithmetic, comparisons, ``and``/``or``/``not`` and the ``abs``/
    ``min``/``max`` calls are built around them; kernels pass their
    arguments through, so one compiler serves the fan-out's per-edge
    kernels ``f(rank, vloc, eidx)`` and the delivery's column kernels
    ``f(cols)``.  Returns ``None`` when the expression is outside the
    vectorizable fragment (non-numeric maps, reads ``leaf`` cannot
    supply, set operations).
    """
    expr = unalias(expr)
    kern = leaf(expr)
    if kern is not None:
        return kern
    if isinstance(expr, Const):
        v = expr.value
        if not isinstance(v, (int, float, bool)):
            return None
        return lambda *a: v
    if isinstance(expr, BoolOp):
        kids = [_compile_vector_expr(c, leaf) for c in expr.children()]
        if any(k is None for k in kids):
            return None
        if expr.op == "not":
            return lambda *a, _l=kids[0]: np.logical_not(_l(*a))
        op = np.logical_and if expr.op == "and" else np.logical_or
        return lambda *a, _l=kids[0], _r=kids[1], _op=op: _op(_l(*a), _r(*a))
    if isinstance(expr, (BinOp, Compare)):
        left = _compile_vector_expr(expr.left, leaf)
        right = _compile_vector_expr(expr.right, leaf)
        op = _UFUNCS.get(expr.op)
        if left is None or right is None or op is None:
            return None
        return lambda *a, _l=left, _r=right, _op=op: _op(_l(*a), _r(*a))
    if isinstance(expr, Call):
        args = [_compile_vector_expr(a, leaf) for a in expr.args]
        if any(a is None for a in args) or len(args) < 1:
            return None
        if expr.fn_name == "abs" and len(args) == 1:
            return lambda *a, _a=args[0]: np.abs(_a(*a))
        if expr.fn_name in ("min", "max") and len(args) >= 2:
            op = np.minimum if expr.fn_name == "min" else np.maximum

            def reduce_(*a, _args=tuple(args), _op=op):
                acc = _args[0](*a)
                for k in _args[1:]:
                    acc = _op(acc, k(*a))
                return acc

            return reduce_
        return None
    return None


def _source_leaf(bound, generator: str) -> Callable:
    """Leaves of a fan-out kernel ``f(rank, vloc, eidx)``: numeric
    properties of the input vertex and, under ``out_edges``, of the
    generated edge, read from the rank's local slice."""

    def leaf(expr: Expr) -> Optional[Callable]:
        if not isinstance(expr, PropRead):
            return None
        pm = bound.maps.get(expr.decl.name)
        if pm is None or not pm.is_numeric:
            return None
        idx = unalias(expr.index)
        if isinstance(idx, InputVertex) and isinstance(pm, VertexPropertyMap):
            slc = pm.local_slice
            return lambda rank, vloc, eidx, _s=slc: _s(rank)[vloc]
        if (
            generator == "out_edges"
            and isinstance(idx, GenVar)
            and idx.kind == EDGE
            and isinstance(pm, EdgePropertyMap)
        ):
            slc = pm.local_slice
            return lambda rank, vloc, eidx, _s=slc: _s(rank)[eidx]
        return None

    return leaf


def _column_leaf(col_of: dict) -> Callable:
    """Leaves of a delivery kernel ``f(cols)``: the keys a row carries."""

    def leaf(expr: Expr) -> Optional[Callable]:
        i = col_of.get(expr.key())
        return None if i is None else (lambda cols, _i=i: cols[_i])

    return leaf


def edge_index_arrays(indptr: np.ndarray, vloc: np.ndarray) -> tuple:
    """Per-edge ``(start, eidx)`` for a batch of start vertices.

    ``eidx`` lists the CSR arc positions of every out-arc of every vertex
    in ``vloc`` (local indices), vertex by vertex in CSR order — the order
    a per-vertex generator loop would visit them — and ``start[i]`` is the
    position within ``vloc`` of the vertex arc ``eidx[i]`` leaves.
    """
    begin = indptr[vloc]
    counts = indptr[vloc + 1] - begin
    total = int(counts.sum())
    start = np.repeat(np.arange(len(vloc)), counts)
    offset = begin - (np.cumsum(counts) - counts)
    return start, np.arange(total) + np.repeat(offset, counts)


#: Value dtype kinds a ``+=`` may add into each target kind, bitwise as
#: the scalar ``old + delta`` stores them.
_ADDS_INTO = {"f": "bif", "i": "bi"}


def recognize_vector_shape(ba) -> tuple[Optional[VectorPlan], str]:
    """Bind the plan's confluence class to batch kernels: ``(plan, "")``,
    or ``(None, reason)`` naming the first requirement it misses.

    The structure — generator, gathers at the input vertex, a merged
    extremum compare-and-assign or ``+=`` at the generated neighbour — is
    the planner's match (:class:`~repro.patterns.planner.Extremum`,
    :class:`~repro.patterns.planner.Sum`).  What remains needs the
    binding:

    * the eval step reads exactly the target property;
    * the target map is a numeric :class:`VertexPropertyMap`;
    * every env key the payload carries to the eval step (the candidate,
      and possibly liveness-retained extras such as the input vertex id)
      is computable source-locally by a vector kernel;
    * the candidate (extremum) is carried; the added value and the test
      (sum) are computable from the carried values, and the value's
      dtype adds into the target's exactly as the scalar walk adds.
    """
    plan = ba.plan
    m = plan.confluence
    if m is None:
        return None, plan.confluence_reason
    eval_step = m.steps[-1]
    if eval_step._read_keys != [m.target.key()]:
        return None, "the eval step must read only the target property"
    target_map = ba.bound.maps.get(m.target.decl.name)
    if not isinstance(target_map, VertexPropertyMap) or not target_map.is_numeric:
        return None, "the target must be a numeric vertex property map"
    # Reconstruct the carried payload layout exactly as the scalar walk
    # packs it: env insertion order (generator base keys, then each gather
    # step's reads / routing / folds), filtered to the eval step's carry.
    gen = plan.action.generator
    input_key = plan.action.input.key()
    ordered: list = [input_key, gen.var.key()]
    key_expr: dict = {input_key: _INPUT_VALUE}
    if gen.source == "out_edges":
        sk, tk = SrcOf(gen.var).key(), TrgOf(gen.var).key()
        ordered += [sk, tk]
        key_expr[sk] = _INPUT_VALUE  # src of a generated out-arc IS the input
    for s in m.steps[:-1]:
        for e in (*s.reads, *s.routing, *s.folds):
            ordered.append(e.key())
            key_expr.setdefault(e.key(), e)
    seen: set = set()
    payload_keys = [
        k
        for k in ordered
        if k in eval_step._carry and not (k in seen or seen.add(k))
    ]
    # Every carried key must have a source-local vector kernel.
    source_leaf = _source_leaf(ba.bound, gen.source)
    carry_vecs: list = []
    for k in payload_keys:
        src_e = key_expr.get(k)
        if src_e is _INPUT_VALUE:
            kern = lambda rank, vloc, eidx, vglob: vglob  # noqa: E731
        elif isinstance(src_e, Expr):
            inner = _compile_vector_expr(src_e, source_leaf)
            if inner is None:
                return None, f"no vector kernel for the carried {src_e.pretty()}"
            kern = (
                lambda _f: lambda rank, vloc, eidx, vglob: _f(rank, vloc, eidx)
            )(inner)
        else:
            return None, "a carried value is not computable at the input vertex"
        carry_vecs.append((ba._slot_of[k], kern))
    # The delivery's value columns: the address (the neighbour), then the
    # carried keys in payload order.
    col_of = {eval_step._loc_key: 0}
    for i, k in enumerate(payload_keys):
        col_of.setdefault(k, 1 + i)
    test = None
    if m.kind == "extremum":
        cand = col_of.get(m.cand.key())
        if cand is None:
            return None, "the candidate must be carried to the neighbour"
        value = lambda cols, _i=cand: cols[_i]  # noqa: E731
        update = "min" if m.minimize else "max"
    else:
        leaf = _column_leaf(col_of)
        value = _compile_vector_expr(m.value, leaf)
        if value is None:
            return None, "no vector kernel for the added value"
        if m.test is not None:
            test = _compile_vector_expr(m.test, leaf)
            if test is None:
                return None, "no vector kernel for the test"
        # The dtype the kernel adds, from zero-length columns.
        empty = np.empty(0, dtype=np.int64)
        probe = [empty] + [
            np.asarray(kern(0, empty, empty, empty)) for _slot, kern in carry_vecs
        ]
        kind = np.asarray(value(probe)).dtype.kind
        if kind not in _ADDS_INTO.get(np.dtype(target_map.dtype).kind, ""):
            return None, "the added value's dtype does not add into the target's"
        update = "add"
    slot_sig = tuple(slot for slot, _ in carry_vecs)
    return VectorPlan(
        generator=gen.source,
        eval_si=m.eval_si,
        target_map=target_map,
        update=update,
        value=value,
        test=test,
        fused=m.kind == "extremum" and m.source_local,
        dependent=m.target.decl.name in plan.dependent_props,
        carry_vecs=carry_vecs,
        slot_sig=slot_sig,
        payload_len=3 + 2 * len(carry_vecs),
    ), ""


# ---------------------------------------------------------------------------
# Tier 2b: the in-order column lowering of a step chain
# ---------------------------------------------------------------------------
#
# An action with no confluence class runs its plan's steps as column
# stages: a run of rows standing at one resume point walks the chain one
# step at a time, every row reading the state at the start of the run plus
# its own writes.  A row's work reads and writes only at the vertex its
# message is addressed to (reads and merged modifications sit at their
# step's locality, and every inline step has the row's vertex as its
# locality), so rows at distinct vertices commute and only rows sharing a
# vertex can see each other.  :class:`ColumnDryRun` records what each row
# would write, send and hand to the work hook; the executor applies the
# prefix that reading the run-start state cannot have changed
# (:meth:`ColumnDryRun.end`) and walks the rest again on the new state.


def _expr_reason(expr: Expr, numeric: Callable) -> str:
    """Why no column kernel evaluates ``expr`` ("" when one does)."""
    expr = unalias(expr)
    if isinstance(expr, Contains):
        return f"{expr.read.decl.name} is a set (membership test)"
    if isinstance(expr, PropRead):
        if not numeric(expr.decl):
            return f"{expr.decl.name} is not numeric"
        return _expr_reason(expr.index, numeric)
    if isinstance(expr, Const):
        ok = isinstance(expr.value, (int, float, bool))
        return "" if ok else f"the constant {expr.value!r} is not numeric"
    if isinstance(expr, (BinOp, Compare)) and expr.op not in _UFUNCS:
        return f"no column operator for {expr.op!r}"
    if isinstance(expr, Call) and expr.fn_name not in ("abs", "min", "max"):
        return f"no column kernel for {expr.fn_name}()"
    for child in expr.children():
        reason = _expr_reason(child, numeric)
        if reason:
            return reason
    return ""


def step_reason(step, numeric: Callable) -> str:
    """Why no column stage runs plan step ``step`` ("" when one does).

    ``numeric(decl)`` says whether a property's values are numeric
    (binding time asks the bound map; ``repro plan`` the declaration).
    """
    exprs = [*step.reads, *step.routing, *step.folds]
    if step.test is not None:
        exprs.append(step.test)
    for m in step.mods:
        name = m.target.decl.name
        if isinstance(m, ModifyCall):
            return f"{m.method} into the set {name}"
        if m.target.decl.target_kind == EDGE:
            return f"writes the edge property {name}"
        if not numeric(m.target.decl):
            return f"{name} is not numeric"
        exprs.append(m.value)
    for e in exprs:
        reason = _expr_reason(e, numeric)
        if reason:
            return reason
    return ""


def _decl_numeric(decl) -> bool:
    return decl.value_kind != "set" and decl.dtype is not object


def lowering_verdicts(plan, numeric: Callable = _decl_numeric) -> list:
    """One line per condition: how the vector tier runs it when the
    action has no confluence class (``repro plan`` prints these).

    ``lowered (first_come)`` is a :class:`~repro.patterns.planner.FirstCome`
    claim, ``lowered (assign)`` a masked write merged into the eval step,
    ``lowered (mask)`` an eval mask whose writes follow in modify steps;
    ``falls back (step k: why)`` names the first step no column stage
    expresses, where each row resumes the row walk.  An action with a
    confluence class runs its batch kernel instead (``lowered (extremum)``
    or ``lowered (sum)``) when the binding admits it.
    """
    if plan.confluence is not None:
        return [f"lowered ({plan.confluence.kind})"] * len(plan.cond_plans)
    if plan.mode != "optimized":
        return ["falls back (naive plans run the row walk)"] * len(plan.cond_plans)
    out = []
    for cp in plan.cond_plans:
        reason = next(
            (f"step {i}: {r}" for i, s in enumerate(cp.steps) if (r := step_reason(s, numeric))),
            "",
        )
        if reason:
            out.append(f"falls back ({reason})")
        elif cp.first_come is not None:
            out.append("lowered (first_come)")
        else:
            out.append(f"lowered ({'assign' if cp.merged and cp.steps[-1].mods else 'mask'})")
    return out


@dataclass
class _ColumnMod:
    """One modification as a column stage."""

    pm: VertexPropertyMap
    dtype: np.dtype
    add: bool  # ``+=`` (else ``=``)
    value: Callable  # kernel(env, rows)
    dependent: bool  # a change is a work item
    refresh: tuple  # env key holding the target's value, refreshed on change


@dataclass
class ColumnStage:
    """Plan step ``(ci, si)`` for one env layout, as a column stage."""

    kind: str  # 'elide' | 'gather' | 'eval' | 'modify' | 'fallback'
    loc_key: tuple
    ops: list  # gather: [(key, kernel)] adding env keys; eval: the reads
    keys_out: tuple  # the env layout after the stage
    test: Optional[Callable] = None
    mods: Optional[list] = None
    claim: object = _MISSING  # first_come: the sentinel ``c``
    on_true: Optional[tuple] = None  # next (ci, si); None: the walk ends
    on_false: Optional[tuple] = None


class ColumnLowering:
    """The vector tier's in-order lowering of one bound action's plan.

    Stages are compiled per ``(ci, si, env layout)`` on first use: the
    keys a row carries decide which reads a gather still performs and
    which expression nodes are columns, as they decide elision and
    evaluation in the row walk.
    """

    def __init__(self, ba) -> None:
        self.plan = ba.plan
        self.maps = ba.bound.maps
        self.graph = ba.bound.graph
        self._stages: dict = {}
        numeric = lambda decl: getattr(self.maps.get(decl.name), "is_numeric", False)  # noqa: E731
        self.reasons = {
            (ci, si): step_reason(s, numeric)
            for ci, cp in enumerate(self.plan.cond_plans)
            for si, s in enumerate(cp.steps)
        }
        #: Worth installing: optimized mode and some step has a stage.
        self.lowers = self.plan.mode == "optimized" and not all(self.reasons.values())
        #: A row handed back to the row walk may write an edge property
        #: that a row at another vertex reads.
        self.writes_edges = any(
            m.target.decl.target_kind == EDGE
            for cp in self.plan.cond_plans
            for s in cp.steps
            for m in s.mods
        )

    def stage(self, ci: int, si: int, keys: tuple) -> ColumnStage:
        st = self._stages.get((ci, si, keys))
        if st is None:
            st = self._stages[(ci, si, keys)] = self._compile(ci, si, keys)
        return st

    def start_rows(self, rank: int, starts: np.ndarray) -> Optional[tuple]:
        """The generator's rows for a run of starts owned by ``rank``:
        ``(keys, env, x, start)``, where ``start[i]`` is the position of
        row ``i``'s start, in the order the row walk generates them; None
        when the generator has no column form (``in_edges``, a set)."""
        action = self.plan.action
        gen = action.generator
        input_key = action.input.key()
        if gen is None:
            return (input_key,), {input_key: starts}, starts, np.arange(len(starts))
        if not gen.is_builtin or gen.source == "in_edges":
            return None
        csr = self.graph.locals[rank]
        vloc = self.graph.partition.local_index_array(starts)
        start, eidx = edge_index_arrays(csr.indptr, vloc)
        x, t = starts[start], csr.targets[eidx]
        gen_key = gen.var.key()
        if gen.source == "adj":
            return (input_key, gen_key), {input_key: x, gen_key: t}, x, start
        src_key, trg_key = SrcOf(gen.var).key(), TrgOf(gen.var).key()
        gid = eidx + self.graph.edge_offsets[rank]
        env = {input_key: x, gen_key: gid, src_key: x, trg_key: t}
        return tuple(env), env, x, start

    # -- compilation ----------------------------------------------------------
    def _leaf(self, have: set, loc_key) -> Callable:
        maps = self.maps

        def leaf(expr: Expr) -> Optional[Callable]:
            k = expr.key()
            if k in have:
                return lambda env, rows, _k=k: env[_k]
            if not isinstance(expr, PropRead):
                return None
            pm = maps.get(expr.decl.name)
            if pm is None or not pm.is_numeric:
                return None
            if isinstance(pm, VertexPropertyMap):
                if unalias(expr.index).key() != loc_key:
                    return None
                return lambda env, rows, _pm=pm: rows.read(_pm)
            idx = _compile_vector_expr(expr.index, leaf)
            if idx is None:
                return None
            return lambda env, rows, _pm=pm, _i=idx: rows.read_edges(_pm, _i(env, rows))

        return leaf

    def _next(self, ci: int, si: int, taken: bool) -> Optional[tuple]:
        cp = self.plan.cond_plans[ci]
        if taken and si + 1 < len(cp.steps):
            return (ci, si + 1)
        nxt = cp.next_group if taken else (
            cp.next_on_false if cp.next_on_false is not None else cp.next_group
        )
        return None if nxt is None else (nxt, 0)

    def _compile(self, ci: int, si: int, keys: tuple) -> ColumnStage:
        step = self.plan.cond_plans[ci].steps[si]
        loc = step._loc_key
        fallback = ColumnStage("fallback", loc, [], keys)
        if self.plan.mode != "optimized" or self.reasons[(ci, si)] or loc not in keys:
            return fallback
        have = set(keys)
        if step.kind == "gather":
            provided = step._read_keys + step._routing_keys + step._fold_keys
            if all(k in have for k in provided):
                return ColumnStage("elide", loc, [], keys, on_true=(ci, si + 1))
            ops = []
            out = list(keys)
            for e in (*step.reads, *step.routing, *step.folds):
                k = e.key()
                if k in have:
                    continue
                kern = _compile_vector_expr(e, self._leaf(have, loc))
                if kern is None:
                    return fallback
                ops.append((k, kern))
                have.add(k)
                out.append(k)
            return ColumnStage("gather", loc, ops, tuple(out), on_true=(ci, si + 1))
        ops = []
        local = have
        if step.kind == "eval":
            # The eval step re-reads its values inside the lock, even those
            # a gather already carried.
            for r in step.reads:
                kern = _compile_vector_expr(r, self._leaf(have - {r.key()}, loc))
                if kern is None:
                    return fallback
                ops.append((r.key(), kern))
            local = have | {r.key() for r in step.reads}
        leaf = self._leaf(local, loc)
        test = None
        if step.test is not None:
            test = _compile_vector_expr(step.test, leaf)
            if test is None:
                return fallback
        mods = []
        for m in step.mods:
            value = _compile_vector_expr(m.value, leaf)
            if value is None or unalias(m.target.index).key() != loc:
                return fallback
            pm = self.maps[m.target.decl.name]
            mods.append(
                _ColumnMod(
                    pm=pm,
                    dtype=np.dtype(pm.dtype),
                    add=isinstance(m, AugAdd),
                    value=value,
                    dependent=m.target.decl.name in self.plan.dependent_props,
                    refresh=("read", m.target.decl.name, unalias(m.target.index).key()),
                )
            )
        if step.kind == "modify":
            return ColumnStage("modify", loc, [], keys, mods=mods, on_true=self._next(ci, si, True))
        fc = self.plan.cond_plans[ci].first_come
        return ColumnStage(
            "eval",
            loc,
            ops,
            keys,
            test=test,
            mods=mods,
            claim=fc.sentinel if fc is not None and fc.eval_si == si else _MISSING,
            on_true=self._next(ci, si, True),
            on_false=self._next(ci, si, False),
        )


class ColumnRows:
    """Rows of a dry run standing at one step with one env layout.

    ``env`` maps each key to a column (one value per row, in key order);
    ``rows`` are the rows' positions in the run (ascending), ``x`` their
    vertex and ``xl`` its local index at the rank.
    """

    __slots__ = ("ci", "si", "keys", "env", "rows", "x", "xl", "run")

    def __init__(self, ci, si, keys, env, rows, x, xl, run) -> None:
        self.ci, self.si, self.keys, self.env = ci, si, keys, env
        self.rows, self.x, self.xl, self.run = rows, x, xl, run

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, mask: np.ndarray) -> "ColumnRows":
        return ColumnRows(
            self.ci,
            self.si,
            self.keys,
            {k: c[mask] for k, c in self.env.items()},
            self.rows[mask],
            self.x[mask],
            self.xl[mask],
            self.run,
        )

    def read(self, pm) -> np.ndarray:
        """``pm`` at each row's vertex: the run-start value, or what the
        row itself (or a first-come claim it comes after) wrote."""
        vals = pm.local_slice(self.run.rank)[self.xl]
        ov = self.run.overlay.get(id(pm))
        if ov is not None:
            has = ov[0][self.rows]
            if has.any():
                vals = np.where(has, ov[1][self.rows], vals)
        return vals

    def read_edges(self, pm, gids) -> np.ndarray:
        """Edge property ``pm`` at global edge ids ``gids``, all stored at
        the rank (the row walk's ``pm.get(gid, rank=rank)``)."""
        rank = self.run.rank
        offsets = self.run.lowering.graph.edge_offsets
        local = np.asarray(gids, dtype=np.int64) - offsets[rank]
        if len(local) and (local.min() < 0 or local.max() >= offsets[rank + 1] - offsets[rank]):
            raise LocalityError(f"{pm.name}: edges not all stored at rank {rank}")
        return pm.local_slice(rank)[local]


def _column(value, n: int) -> np.ndarray:
    col = np.asarray(value)
    return col if col.ndim else np.full(n, col)


class ColumnDryRun:
    """One in-order walk of a run's rows over the state at its start.

    Nothing is written to the maps: each row's writes go to a log and to
    an overlay the row's own later reads see (rows after a first-come
    claim at their vertex see the claim too).  Per row it records the
    assignments, changes and work items, the exit (a send) and where the
    row fell back.
    """

    def __init__(self, lowering: ColumnLowering, rank: int, ci, si, keys, env, x, xl) -> None:
        m = len(x)
        self.lowering = lowering
        self.rank = rank
        self.m = m
        self.x = x
        self.xl = xl  # local indices of ``x``
        self.overlay: dict = {}  # id(pm) -> (has, values), per row
        self.log: list = []  # (pm, rows, values) in step order per row
        self.wrote = np.zeros(m, dtype=bool)  # a change the cut rule sees
        self.assigns = np.zeros(m, dtype=np.int64)
        self.changes = np.zeros(m, dtype=np.int64)
        self.work = np.zeros(m, dtype=np.int64)  # dependent changes
        self.exits: list = []  # ColumnRows leaving by a send
        self.fallbacks: list = []  # ColumnRows handed to the row walk
        self.fallback_of = np.full(m, -1, dtype=np.int64)
        self._start = (ci, si)
        env = dict(env)  # the walk adds and refreshes keys in place
        pending = [ColumnRows(ci, si, keys, env, np.arange(m), x, self.xl, self)]
        while pending:  # the caller silences numpy's float warnings
            self._advance(pending.pop(), pending)

    # -- the walk ---------------------------------------------------------------
    def _advance(self, g: ColumnRows, pending: list) -> None:
        lowering = self.lowering
        while True:
            st = lowering.stage(g.ci, g.si, g.keys)
            if st.kind == "elide":
                g.si += 1
                continue
            if st.loc_key in g.env:
                away = g.env[st.loc_key] != g.x
                if away.any():
                    if away.all():
                        self.exits.append(g)
                        return
                    self.exits.append(g.take(away))
                    g = g.take(~away)
            if st.kind == "fallback":
                self.fallback_of[g.rows] = len(self.fallbacks)
                self.fallbacks.append(g)
                return
            n = len(g)
            if st.kind == "gather":
                env = g.env
                for k, kern in st.ops:
                    env[k] = _column(kern(env, g), n)
                g.keys = st.keys_out
                g.si += 1
                continue
            if st.kind == "modify":
                self._apply(g, st.mods, g.env, None)
                taken = None
            else:
                local = dict(g.env)
                for k, kern in st.ops:
                    local[k] = _column(kern(local, g), n)
                taken = None
                if st.test is not None:
                    taken = _column(st.test(local, g), n).astype(bool, copy=False)
                if st.claim is not _MISSING and (g.ci, g.si) == self._start and n == self.m:
                    taken = self._claim(g, st, local, taken)
                else:
                    self._apply(g, st.mods, local, taken)
            if taken is None or st.on_true == st.on_false or taken.all():
                nxt = st.on_true
            elif not taken.any():
                nxt = st.on_false
            else:
                if st.on_false is not None:
                    other = g.take(~taken)
                    other.ci, other.si = st.on_false
                    pending.append(other)
                g = g.take(taken)
                nxt = st.on_true
            if nxt is None:
                return
            g.ci, g.si = nxt

    def _write(self, md: _ColumnMod, rows: np.ndarray, values: np.ndarray, view=None) -> None:
        """Log a write of ``values`` at ``rows``' vertices; ``view`` (rows,
        values) is what later reads see, by default the writers' own."""
        self.log.append((md.pm, rows, values))
        ov = self.overlay.get(id(md.pm))
        if ov is None:
            ov = self.overlay[id(md.pm)] = (
                np.zeros(self.m, dtype=bool),
                np.empty(self.m, dtype=md.dtype),
            )
        vrows, vvals = view if view is not None else (rows, values)
        ov[0][vrows] = True
        ov[1][vrows] = vvals
        self.changes[rows] += 1
        if md.dependent:
            self.work[rows] += 1

    def _apply(self, g: ColumnRows, mods: list, env: dict, ok) -> None:
        """The row walk's ``_apply_mods`` for every row of ``g`` whose
        test passed (``ok``; None: all)."""
        n = len(g)
        self.assigns[g.rows if ok is None else g.rows[ok]] += len(mods)
        for md in mods:
            old = g.read(md.pm)
            val = _column(md.value(env, g), n)
            if md.add:
                changed = val != 0
                new = old + val
            else:
                changed = old != val
                new = val
            if ok is not None:
                changed &= ok
            if not changed.any():
                continue
            stored = np.asarray(new)[changed].astype(md.dtype)
            rows = g.rows[changed]
            self._write(md, rows, stored)
            self.wrote[rows] = True
            if md.refresh in env:
                col = np.array(env[md.refresh])
                col[changed] = stored
                env[md.refresh] = col

    def _claim(self, g: ColumnRows, st: ColumnStage, local: dict, ok) -> np.ndarray:
        """A :class:`~repro.patterns.planner.FirstCome` eval over the whole
        run: per vertex, the first row that passes the test with a value
        other than the sentinel claims it; the rows before it assign
        without a change and the rows after it fail the test but read
        the claim."""
        (md,) = st.mods
        n = len(g)
        val = _column(md.value(local, g), n)
        stored = val.astype(md.dtype)
        claim = ok & (val != st.claim)
        if (stored[claim] == st.claim).any():
            # A value that stores as the sentinel claims nothing for the
            # rows after it: the rows are ordinary writes.
            self._apply(g, st.mods, local, ok)
            return ok
        idx = np.flatnonzero(claim)
        taken = ok
        if len(idx):
            xs, first = np.unique(g.x[idx], return_index=True)
            claimers = idx[first]
            pos = np.minimum(np.searchsorted(xs, g.x), len(xs) - 1)
            at = np.where(xs[pos] == g.x, claimers[pos], n)
            order = np.arange(n)
            taken = ok & (order <= at)
            after = order >= at
            self._write(md, claimers, stored[claimers], view=(after, stored[at[after]]))
        self.assigns[taken] += 1
        return taken

    # -- the cut --------------------------------------------------------------------
    def end(self) -> int:
        """The last row of the prefix this walk decides: the first row
        that wrote (outside a first-come claim) or fell back at a vertex a
        later row also visits, or the last row."""
        risky = self.wrote | (self.fallback_of >= 0)
        if not risky.any():
            return self.m - 1
        order = np.argsort(self.x, kind="stable")
        later = np.zeros(self.m, dtype=bool)
        later[order[:-1][self.x[order[1:]] == self.x[order[:-1]]]] = True
        if self.lowering.writes_edges:
            later[self.fallback_of >= 0] = True
        cut = np.flatnonzero(risky & later)
        return int(cut[0]) if len(cut) else self.m - 1

    def apply(self, end: int) -> None:
        """Write the logged values of rows ``0..end`` to the maps."""
        for pm, rows, values in self.log:
            keep = rows <= end
            if not keep.all():
                rows, values = rows[keep], values[keep]
            if len(rows):
                pm.assign_many(self.rank, self.xl[rows], values)

    def exit_layouts(self, n: int) -> tuple:
        """The sends of rows ``0..n-1``: per row the index of its exit
        layout (-1: it sends nothing), and per layout ``(ci, si, keys,
        rows, env)`` with its rows ascending."""
        lay = np.full(n, -1, dtype=np.int64)
        if len(self.exits) == 1 and self.exits[0].rows[-1] < n:
            (g,) = self.exits
            lay[g.rows] = 0
            return lay, [(g.ci, g.si, g.keys, g.rows, g.env)]
        by_key: dict = {}
        for g in self.exits:
            by_key.setdefault((g.ci, g.si, g.keys), []).append(g)
        layouts = []
        for (ci, si, keys), groups in by_key.items():
            rows, env = groups[0].rows, groups[0].env
            if len(groups) > 1:
                rows = np.concatenate([g.rows for g in groups])
                order = np.argsort(rows, kind="stable")
                rows = rows[order]
                env = {k: np.concatenate([g.env[k] for g in groups])[order] for k in keys}
            cut = int(np.searchsorted(rows, n))
            if cut < len(rows):
                rows, env = rows[:cut], {k: c[:cut] for k, c in env.items()}
            if cut:
                lay[rows] = len(layouts)
                layouts.append((ci, si, keys, rows, env))
        return lay, layouts
