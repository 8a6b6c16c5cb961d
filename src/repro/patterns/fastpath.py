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

from ..props.property_map import EdgePropertyMap, VertexPropertyMap
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
