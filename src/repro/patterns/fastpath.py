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
Plans matching the SSSP-relax / CC-hook shape — a single ``out_edges`` or
``adj`` generator, one merged comparison condition, and one min/max-style
assignment at the generated neighbour — are additionally compiled to
*batch kernels*: every generator start of a delivered envelope fans out in
one call (carry kernels over per-edge index arrays into ``LocalCSR`` and
property-map backing arrays), the rows travel as column batches
(:class:`~repro.runtime.wire.WireBatch`) and a whole coalesced envelope is
applied as one ``np.minimum.at``-style scatter, with dependent-vertex
``work`` hooks fired from the changed mask.  Plans outside the shape fall
back to the scalar path; the machine's ``fast_path`` flag ("off" |
"compiled" | "vector" | "native") keeps the interpreted path available as
the correctness oracle.

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
            loc_key = unalias(s.locality).key()
            reads = [
                (r.key(), ba.bound.maps[r.decl.name].get, cc.compile(r.index))
                for r in s.reads
            ]
            routing = [(r.key(), cc.compile(r)) for r in s.routing]
            folds = [(f.key(), cc.compile(f)) for f in s.folds]
            steps.append(
                CompiledStep(
                    kind=s.kind,
                    loc_key=loc_key,
                    carry=frozenset(s.live_in - {loc_key}),
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
    compute ``cand`` from values local to the input vertex, and at ``t``
    apply ``target[t] = cand`` when ``cand`` is strictly better (minimize
    or maximize).  Exactly the SSSP-relax / BFS-hop / CC-min-label shape.

    The payload a scalar walk would send to the eval step may carry more
    than the candidate (liveness keeps e.g. the input vertex id alive even
    when the eval handler never consults it).  ``carry_vecs`` reproduces
    that exact layout — one ``(slot, kernel)`` per carried env key in env
    insertion order, each kernel ``f(rank, vloc, eidx, vglob)`` over
    per-edge index arrays (source local index, arc position, source global
    id) returning a per-edge array or a scalar — so vectorized sends are
    indistinguishable from scalar ones on the wire.
    """

    generator: str  # 'out_edges' | 'adj'
    eval_si: int  # step index of the eval step (message resume point)
    cand_key: tuple  # env key carrying the candidate value
    target_map: VertexPropertyMap
    minimize: bool
    dependent: bool  # fires the work hook on change
    carry_vecs: list  # [(slot, kernel)] in payload order
    slot_sig: tuple  # the slot ids, in payload order (batch matching)
    payload_len: int  # 3 + 2 * len(carry_vecs)
    cand_pos: int  # index of the candidate value within the payload

    @property
    def cand_col(self) -> int:
        """The candidate's index among the carried columns."""
        return (self.cand_pos - 4) // 2

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


def _compile_vector_expr(expr: Expr, bound, generator: str) -> Optional[Callable]:
    """Compile a source-local scalar expression to a per-edge numpy kernel.

    The kernel signature is ``f(rank, vloc, eidx)`` over per-edge index
    arrays: ``vloc[i]`` is the local index of edge ``i``'s source vertex
    and ``eidx[i]`` its arc position in the rank's CSR, so one call serves
    every edge of every start vertex of a fan-out.  It returns a per-edge
    array, or a scalar for a constant.  Returns ``None`` when the
    expression is outside the vectorizable fragment (non-numeric maps,
    reads not at the source, set operations).
    """
    expr = unalias(expr)
    if isinstance(expr, Const):
        v = expr.value
        if not isinstance(v, (int, float, bool)):
            return None
        return lambda rank, vloc, eidx: v
    if isinstance(expr, PropRead):
        pm = bound.maps.get(expr.decl.name)
        if pm is None or pm.dtype is object or pm.dtype == "object":
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
    if isinstance(expr, BinOp):
        left = _compile_vector_expr(expr.left, bound, generator)
        right = _compile_vector_expr(expr.right, bound, generator)
        if left is None or right is None:
            return None
        op = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[
            expr.op
        ]
        return lambda rank, vloc, eidx, _l=left, _r=right, _op=op: _op(
            _l(rank, vloc, eidx), _r(rank, vloc, eidx)
        )
    if isinstance(expr, Call):
        args = [_compile_vector_expr(a, bound, generator) for a in expr.args]
        if any(a is None for a in args) or len(args) < 1:
            return None
        if expr.fn_name == "abs" and len(args) == 1:
            return lambda rank, vloc, eidx, _a=args[0]: np.abs(_a(rank, vloc, eidx))
        if expr.fn_name in ("min", "max") and len(args) >= 2:
            op = np.minimum if expr.fn_name == "min" else np.maximum

            def reduce_(rank, vloc, eidx, _args=tuple(args), _op=op):
                acc = _args[0](rank, vloc, eidx)
                for a in _args[1:]:
                    acc = _op(acc, a(rank, vloc, eidx))
                return acc

            return reduce_
        return None
    return None


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


def recognize_vector_shape(ba) -> Optional[VectorPlan]:
    """Match a compiled plan against the vectorizable shape, or ``None``.

    Required structure (checked, never assumed):

    * optimized planning mode, single condition, merged eval+modify,
      no else-branch and no following condition group;
    * a builtin ``out_edges`` or ``adj`` generator;
    * all pre-eval steps are gathers at the input vertex; the eval step is
      last and sits at the generated neighbour (``trg(e)`` or ``u``);
    * the test is a plain comparison between a numeric vertex property at
      the neighbour and a candidate computed from source-local values;
    * exactly one modification: assigning that same candidate to that
      same property — i.e. a min/max update;
    * every env key the payload carries to the eval step (the candidate,
      and possibly liveness-retained extras such as the input vertex id)
      is computable source-locally by a vector kernel.
    """
    plan = ba.plan
    action = plan.action
    if plan.mode != "optimized" or len(plan.cond_plans) != 1:
        return None
    cp = plan.cond_plans[0]
    if not cp.merged or cp.next_on_false is not None or cp.next_group is not None:
        return None
    gen = action.generator
    if gen is None or not gen.is_builtin or gen.source not in ("out_edges", "adj"):
        return None
    steps = cp.steps
    eval_steps = [i for i, s in enumerate(steps) if s.kind == "eval"]
    if len(eval_steps) != 1 or eval_steps[0] != len(steps) - 1:
        return None
    eval_si = eval_steps[0]
    eval_step = steps[eval_si]
    input_key = action.input.key()
    for s in steps[:eval_si]:
        if s.kind != "gather" or unalias(s.locality).key() != input_key:
            return None
    # eval locality must be the generated neighbour
    neighbour = TrgOf(gen.var) if gen.source == "out_edges" else gen.var
    if unalias(eval_step.locality).key() != neighbour.key():
        return None
    # test: Compare(cand, target[t]) in either orientation
    test = unalias(eval_step.test) if eval_step.test is not None else None
    if not isinstance(test, Compare) or test.op not in ("<", "<=", ">", ">="):
        return None
    left, right = unalias(test.left), unalias(test.right)

    def is_target_read(e: Expr) -> bool:
        return (
            isinstance(e, PropRead)
            and unalias(e.index).key() == neighbour.key()
        )

    if is_target_read(right) and not is_target_read(left):
        target_read, cand_expr = right, left
        minimize = test.op in ("<", "<=")  # cand < cur  =>  keep the min
    elif is_target_read(left) and not is_target_read(right):
        target_read, cand_expr = left, right
        minimize = test.op in (">", ">=")  # cur > cand  =>  keep the min
    else:
        return None
    # eval-step local reads: exactly the target read
    if [r.key() for r in eval_step.reads] != [target_read.key()]:
        return None
    # single modification: target = cand
    if len(eval_step.mods) != 1 or not isinstance(eval_step.mods[0], Assign):
        return None
    mod = eval_step.mods[0]
    if (
        mod.target.key() != target_read.key()
        or unalias(mod.value).key() != cand_expr.key()
    ):
        return None
    target_map = ba.bound.maps.get(target_read.decl.name)
    if not isinstance(target_map, VertexPropertyMap):
        return None
    if target_map.dtype is object or target_map.dtype == "object":
        return None
    # Reconstruct the carried payload layout exactly as the scalar walk
    # packs it: env insertion order (generator base keys, then each gather
    # step's reads / routing / folds), filtered to the eval step's live-in.
    cand_key = cand_expr.key()
    input_key = action.input.key()
    ordered: list = [input_key, gen.var.key()]
    key_expr: dict = {input_key: _INPUT_VALUE}
    if gen.source == "out_edges":
        sk, tk = SrcOf(gen.var).key(), TrgOf(gen.var).key()
        ordered += [sk, tk]
        key_expr[sk] = _INPUT_VALUE  # src of a generated out-arc IS the input
    for s in steps[:eval_si]:
        for r in s.reads:
            ordered.append(r.key())
            key_expr.setdefault(r.key(), r)
        for r in s.routing:
            ordered.append(r.key())
            key_expr.setdefault(r.key(), r)
        for f in s.folds:
            ordered.append(f.key())
            key_expr.setdefault(f.key(), f)
    seen: set = set()
    ordered = [k for k in ordered if not (k in seen or seen.add(k))]
    carried = (eval_step.live_in - {unalias(eval_step.locality).key()}) & set(ordered)
    payload_keys = [k for k in ordered if k in carried]
    if cand_key not in carried:
        return None
    # Every carried key must have a source-local vector kernel.
    carry_vecs: list = []
    slot_sig: list = []
    cand_pos = -1
    for i, k in enumerate(payload_keys):
        src_e = key_expr.get(k)
        if src_e is _INPUT_VALUE:
            kern = lambda rank, vloc, eidx, vglob: vglob  # noqa: E731
        elif isinstance(src_e, Expr):
            inner = _compile_vector_expr(src_e, ba.bound, gen.source)
            if inner is None:
                return None
            kern = (
                lambda _f: lambda rank, vloc, eidx, vglob: _f(rank, vloc, eidx)
            )(inner)
        else:
            return None
        slot = ba._slot_of[k]
        carry_vecs.append((slot, kern))
        slot_sig.append(slot)
        if k == cand_key:
            cand_pos = 3 + 2 * i + 1
    return VectorPlan(
        generator=gen.source,
        eval_si=eval_si,
        cand_key=cand_key,
        target_map=target_map,
        minimize=minimize,
        dependent=target_read.decl.name in plan.dependent_props,
        carry_vecs=carry_vecs,
        slot_sig=tuple(slot_sig),
        payload_len=3 + 2 * len(carry_vecs),
        cand_pos=cand_pos,
    )
