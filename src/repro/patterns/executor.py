"""Pattern execution over the active-message runtime.

:func:`bind` materializes a pattern against a machine and a distributed
graph: property declarations become distributed property maps, each action
is compiled (:mod:`repro.patterns.planner`) and registered as a typed
active message, and the result — a :class:`BoundPattern` — exposes
:class:`BoundAction` handles that strategies invoke inside epochs.

Runtime walk (per message): the handler resumes the compiled step chain at
``(condition, step)`` with the environment carried in the payload.  Steps
whose locality equals the current vertex run inline (no message — the
paper's merging/elision); a step at a different vertex sends one message
addressed by the vertex's owner (object-based addressing).  Gather steps
read local property values and "routing" values (vertex ids of child
localities); the evaluate step re-reads its local values *inside the
vertex's lock*, tests the condition, and applies the merged modification
group — the paper's single-vertex consistency guarantee (Sec. IV-A/B).

Dependency detection (Sec. IV-C): when an action both reads and writes a
property map, any actual change of that map's value marks the written
vertex dependent and calls the action's ``work`` hook — the customization
point strategies use (``fixed_point`` re-runs the action, Delta-stepping
re-buckets the vertex).  The vector tier discovers dependents one delivery
(an envelope, or several merged ones) at a time and hands the whole array
to ``work_many``.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from itertools import groupby
from typing import Callable, Optional, Union

import numpy as np

from ..graph.distributed import DistributedGraph
from ..props.lockmap import LockMap
from ..props.property_map import EdgePropertyMap, VertexPropertyMap
from ..runtime.epoch import Epoch
from ..runtime.machine import Machine
from ..runtime.wire import WireBatch
from .action import Action, Assign, AugAdd, ModifyCall
from .errors import PlanningError
from .expr import (
    EDGE,
    SET,
    VERTEX,
    Alias,
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
from ..runtime.coalescing import CoalescingLayer
from .fastpath import (
    _MISSING,
    ColumnDryRun,
    ColumnLowering,
    VectorPlan,
    compile_steps,
    recognize_vector_shape,
)
from .pattern import Pattern, PropertyDecl, default_for
from .planner import ActionPlan, compile_action

WorkHook = Callable[..., None]  # work(ctx, vertex); work_many(ctx, int64 array)

_NONE = np.empty(0, dtype=np.int64)  # no rows


class _Evaluator:
    """Evaluates expressions given a carried env and a local reader."""

    def __init__(self, bound: "BoundPattern", rank: Optional[int]) -> None:
        self.bound = bound
        self.rank = rank

    def read(self, decl: PropertyDecl, index_value: int):
        pm = self.bound.maps[decl.name]
        return pm.get(index_value, rank=self.rank)

    def eval(self, expr: Expr, env: dict, allow_reads: bool = True):
        expr = unalias(expr)
        k = expr.key()
        if k in env:
            return env[k]
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, PropRead):
            if not allow_reads:
                raise PlanningError(
                    f"{expr.pretty()} needed but not gathered (planner bug?)"
                )
            idx = self.eval(expr.index, env, allow_reads)
            return self.read(expr.decl, idx)
        if isinstance(expr, (InputVertex, GenVar)):
            raise PlanningError(
                f"{expr.pretty()} missing from the environment (planner bug?)"
            )
        if isinstance(expr, SrcOf):
            gid = self.eval(expr.edge, env, allow_reads)
            return self.bound.graph.src(gid)
        if isinstance(expr, TrgOf):
            gid = self.eval(expr.edge, env, allow_reads)
            return self.bound.graph.trg(gid)
        if isinstance(expr, BoolOp):
            left = self.eval(expr.left, env, allow_reads)
            if expr.op == "not":
                return not left
            if expr.op == "and":
                return bool(left) and bool(self.eval(expr.right, env, allow_reads))
            return bool(left) or bool(self.eval(expr.right, env, allow_reads))
        if isinstance(expr, Contains):
            container = self.eval(expr.read, env, allow_reads)
            item = self.eval(expr.item, env, allow_reads)
            return container is not None and item in container
        if isinstance(expr, (BinOp, Compare, Call)):
            vals = [self.eval(c, env, allow_reads) for c in expr.children()]
            return expr.apply(*vals)
        raise PlanningError(f"cannot evaluate {expr!r}")  # pragma: no cover


class BoundAction:
    """A compiled, machine-registered action; what strategies invoke."""

    def __init__(self, bound: "BoundPattern", plan: ActionPlan) -> None:
        self.bound = bound
        self.plan = plan
        self.action = plan.action
        self.name = plan.action.name
        #: The paper's work hook: ``work(ctx, vertex)`` called when a
        #: dependency is discovered.  ``None`` = dependencies ignored.
        #: Assigning it resets :attr:`work_many` (see the property below).
        self._work: Optional[WorkHook] = None
        #: Batch form of the hook: ``work_many(ctx, vertices)`` receives
        #: the dependents one delivery discovered (an int64 array, all
        #: owned by ``ctx.rank``) in one call.  ``None`` = call ``work``
        #: per vertex.
        self._work_many: Optional[WorkHook] = None
        #: Count of property values actually changed by this action.
        self.change_count = 0
        #: Count of modification statements executed (even if value equal).
        self.assign_count = 0
        # message slot table: env key -> small int
        keys: list = sorted(self._all_keys(), key=repr)
        self._slot_of = {k: i for i, k in enumerate(keys)}
        self._key_of = keys
        # Unique message-type name: binding the same pattern repeatedly on
        # one machine (e.g. one bind per source in betweenness) must not
        # collide in the registry.
        base_name = f"pat.{bound.pattern.name}.{self.name}"
        name = base_name
        k = 1
        while name in bound.machine.registry:
            k += 1
            name = f"{base_name}~{k}"
        self.mtype = bound.machine.register(
            name,
            self._handler,
            address_of=lambda p: p[0],
            **bound.layer_config.get(self.name, {}),
        )
        # -- execution fast paths (repro/patterns/fastpath.py) --------------
        # "off": interpreted tree walk (the correctness oracle).
        # "compiled": per-step closures compiled once, bit-identical
        # payloads/statistics/values to the interpreted walk.
        # "vector": additionally, recognizable plan shapes get a numpy
        # batch kernel installed as the message type's batch handler, fused
        # across the gather->evaluate round where the planner's extremum
        # match has a source-local candidate (``VectorPlan.fused``):
        # rank-local edges are applied inline and remote rows are deduped
        # before the wire.  Recognized does not imply fused (a src(e)
        # candidate is not source-local, a sum is order-sensitive).
        # Unrecognized shapes (``vector_reason`` says why) run their step
        # chain as column stages in arrival order (``lowering``), each row
        # resuming the compiled walk at the first step no stage expresses.
        fp = bound.machine.fast_path
        self._compiled = compile_steps(self) if fp != "off" else None
        self._walk_fn = self._walk if self._compiled is None else self._walk_compiled
        self.vector_plan: Optional[VectorPlan] = None
        self.vector_reason = f"fast_path={fp!r} has no vector tier"
        self.lowering: Optional[ColumnLowering] = None
        if fp == "vector":
            self.vector_plan, self.vector_reason = recognize_vector_shape(self)
            if self.vector_plan is None:
                bound.machine.stats.count_fusion("fallbacks")
                lowering = ColumnLowering(self)
                if lowering.lowers:
                    self.lowering = lowering
        # Bulk column sends may bypass the per-payload layer walk only when
        # the stack is exactly one coalescing layer (flush boundaries are
        # then reproduced precisely; any other layer must see each row).
        # The "off" oracle never takes the bulk path.
        layers = self.mtype.layers
        self._bulk_layer = (
            layers[0]
            if fp != "off" and len(layers) == 1 and isinstance(layers[0], CoalescingLayer)
            else None
        )
        if self.vector_plan is not None:
            self.mtype.batch_handler = self._batch_handler
            # Merged delivery reorders envelopes: legal only where the
            # planner proved the update confluent (an extremum, not a sum).
            self.mtype.order_free = self.vector_plan.order_free
        elif self.lowering is not None:
            # Arrival order decides claims and sends: never merged, fused
            # or deduped (``order_free`` stays False).
            self.mtype.batch_handler = self._lowered_batch_handler

    @property
    def _fused(self) -> bool:
        """True when the vector tier fuses this action's message round."""
        return self.vector_plan is not None and self.vector_plan.fused

    # -- slot table -----------------------------------------------------------
    def _all_keys(self) -> set:
        keys = set(self.plan.base_keys)
        for cp in self.plan.cond_plans:
            for s in cp.steps:
                keys.add(unalias(s.locality).key())
                keys |= {r.key() for r in s.reads}
                keys |= {r.key() for r in s.routing}
                keys |= {f.key() for f in s.folds}
                keys |= set(s.live_in) | set(s.live_out)
        return keys

    # -- the dependency hook -----------------------------------------------------
    @property
    def work(self) -> Optional[WorkHook]:
        return self._work

    @work.setter
    def work(self, hook: Optional[WorkHook]) -> None:
        # A batch form belongs to the per-vertex hook it was installed
        # with; a strategy that sets only ``work`` gets the default loop.
        self._work = hook
        self.work_many = None

    @property
    def work_many(self) -> Optional[WorkHook]:
        return self._work_many

    @work_many.setter
    def work_many(self, hook: Optional[WorkHook]) -> None:
        self._work_many = hook
        # Forked workers decide at spawn which actions report dependents.
        self.bound.machine.transport.hooks_changed()

    def fire_work(self, ctx, vertices: np.ndarray) -> None:
        """Hand one delivery's dependents to the installed hook."""
        many = self._work_many
        if many is not None:
            many(ctx, vertices)
        elif self._work is not None:
            work = self._work
            for w in vertices.tolist():
                work(ctx, w)

    # -- invocation -------------------------------------------------------------
    def invoke(self, target: Union[Epoch, Machine], v: int) -> None:
        """Start the action at vertex ``v`` (driver side)."""
        machine = target.machine if isinstance(target, Epoch) else target
        machine.inject(self.mtype, (int(v), -1, 0))

    def invoke_from(self, ctx, v: int) -> None:
        """Start the action at ``v`` from inside a handler (work hooks)."""
        ctx.send(self.mtype, (int(v), -1, 0))

    def invoke_many(self, target: Union[Epoch, Machine], vertices) -> None:
        """Start the action at every vertex of ``vertices`` (driver side).

        Same messages, flush boundaries and counters as :meth:`invoke` per
        vertex in order; behind a single coalescing layer the starts enter
        the buffers as columns.
        """
        machine = target.machine if isinstance(target, Epoch) else target
        self._send_starts(machine, -1, vertices)

    def invoke_many_from(self, ctx, vertices) -> None:
        """Bulk :meth:`invoke_from` (what a ``work_many`` hook calls)."""
        self._send_starts(ctx.machine, ctx.src, vertices)

    def _send_starts(self, machine: Machine, src: int, vertices) -> None:
        if not isinstance(vertices, (np.ndarray, list, tuple)):
            vertices = list(vertices)
        # Always a copy: the buffers keep views of this column until flush.
        vertices = np.array(vertices, dtype=np.int64)
        n = len(vertices)
        if n:
            self._send_columns(machine, src, WireBatch([vertices, -1, 0], n))

    def __call__(self, target: Union[Epoch, Machine], v: int) -> None:
        self.invoke(target, v)

    # -- payloads ------------------------------------------------------------------
    def _pack(self, dest: int, ci: int, si: int, env: dict, carry: set) -> tuple:
        flat: list = [int(dest), ci, si]
        for k, val in env.items():
            if k in carry:
                flat.append(self._slot_of[k])
                flat.append(val)
        return tuple(flat)

    def _unpack(self, payload: tuple) -> tuple[int, int, int, dict]:
        dest, ci, si = payload[0], payload[1], payload[2]
        env: dict = {}
        for i in range(3, len(payload), 2):
            env[self._key_of[payload[i]]] = payload[i + 1]
        return dest, ci, si, env

    # -- handler ---------------------------------------------------------------------
    def _handler(self, ctx, payload: tuple) -> None:
        dest, ci, si, env = self._unpack(payload)
        if ci == -1:
            if self.vector_plan is not None:
                self._fan_out(ctx, (dest,))
            else:
                self._run_generator(ctx, dest)
        else:
            # restore the destination step's locality value from the
            # address slot (elided from the carried env when packing)
            step = self.plan.cond_plans[ci].steps[si]
            env.setdefault(step._loc_key, dest)
            self._walk_fn(ctx, dest, ci, si, env)

    def _run_generator(self, ctx, v: int) -> None:
        g = self.bound.graph
        a = self.action
        input_key = a.input.key()
        first = 0  # first condition index
        gen = a.generator
        if gen is None:
            self._walk_fn(ctx, v, first, 0, {input_key: v})
            return
        gen_key = gen.var.key()
        if gen.is_builtin:
            if gen.source == "out_edges":
                src_key = SrcOf(gen.var).key()
                trg_key = TrgOf(gen.var).key()
                gids, targets = g.out_edges(v)
                for gid, t in zip(gids.tolist(), targets.tolist()):
                    self._walk_fn(
                        ctx,
                        v,
                        first,
                        0,
                        {input_key: v, gen_key: gid, src_key: v, trg_key: t},
                    )
            elif gen.source == "in_edges":
                src_key = SrcOf(gen.var).key()
                trg_key = TrgOf(gen.var).key()
                gids, sources = g.in_edges(v)
                for gid, s in zip(gids.tolist(), sources.tolist()):
                    self._walk_fn(
                        ctx,
                        v,
                        first,
                        0,
                        {input_key: v, gen_key: gid, src_key: s, trg_key: v},
                    )
            else:  # adj
                for u in g.adj(v).tolist():
                    self._walk_fn(ctx, v, first, 0, {input_key: v, gen_key: u})
        else:
            # set-valued property map generator, read at v
            ev = _Evaluator(self.bound, ctx.rank)
            items = ev.eval(gen.source, {input_key: v})
            for u in items if items is not None else ():
                self._walk_fn(ctx, v, first, 0, {input_key: v, gen_key: int(u)})

    # -- the step walker ----------------------------------------------------------------
    def _walk(self, ctx, at_vertex: int, ci: int, si: int, env: dict) -> None:
        plans = self.plan.cond_plans
        optimized = self.plan.mode == "optimized"
        ev = _Evaluator(self.bound, ctx.rank)
        while True:
            cp = plans[ci]
            step = cp.steps[si]
            loc_key = step._loc_key
            if loc_key not in env:
                raise PlanningError(
                    f"routing value {step.locality.pretty()} unknown at step "
                    f"{ci}.{si} of {self.name} (planner bug?)"
                )
            dest = env[loc_key]

            # Run-time elision (optimized mode): skip gather hops whose
            # values are all already in the environment.
            if (
                optimized
                and step.kind == "gather"
                and all(k in env for k in step._read_keys)
                and all(k in env for k in step._routing_keys)
                and all(k in env for k in step._fold_keys)
            ):
                si += 1
                continue

            if dest != at_vertex:
                # The destination step's own locality value rides in the
                # address slot (payload[0]); don't duplicate it in the env.
                ctx.send(self.mtype, self._pack(dest, ci, si, env, step._carry))
                return

            if step.kind == "gather":
                for r in step.reads:
                    if r.key() not in env or not optimized:
                        idx = ev.eval(r.index, env)
                        env[r.key()] = ev.read(r.decl, idx)
                for child in step.routing:
                    if child.key() not in env or not optimized:
                        env[child.key()] = ev.eval(child, env)
                for f in step.folds:
                    if f.key() not in env:
                        env[f.key()] = ev.eval(f, env)
                si += 1
                continue

            # eval / modify steps run under the vertex lock: condition
            # reads at this vertex and the merged first modification are
            # synchronized (Sec. IV-B).
            with self.bound.lockmap.lock(at_vertex):
                if step.kind == "eval":
                    local_env = dict(env)
                    for r in step.reads:
                        idx = ev.eval(r.index, local_env)
                        local_env[r.key()] = ev.read(r.decl, idx)
                    ok = (
                        True
                        if step.test is None
                        else bool(ev.eval(step.test, local_env))
                    )
                    if ok:
                        self._apply_mods(ctx, ev, step.mods, local_env)
                        taken = True
                    else:
                        taken = False
                else:  # modify
                    self._apply_mods(ctx, ev, step.mods, env)
                    taken = True

            if step.kind == "modify" or taken:
                if si + 1 < len(cp.steps):
                    si += 1
                    continue
                nxt = cp.next_group
            else:
                nxt = cp.next_on_false if cp.next_on_false is not None else cp.next_group
            if nxt is None:
                return
            ci, si = nxt, 0

    def _apply_mods(self, ctx, ev: _Evaluator, mods, env: dict) -> None:
        dependent = self.plan.dependent_props
        for m in mods:
            target = m.target
            w = ev.eval(target.index, env)
            pm = self.bound.maps[target.decl.name]
            changed = False
            if isinstance(m, Assign):
                new = ev.eval(m.value, env)
                old = pm.get(w, rank=ctx.rank)
                self.assign_count += 1
                if old != new:
                    pm.set(w, new, rank=ctx.rank)
                    changed = True
            elif isinstance(m, AugAdd):
                delta = ev.eval(m.value, env)
                old = pm.get(w, rank=ctx.rank)
                self.assign_count += 1
                if delta != 0:
                    pm.set(w, old + delta, rank=ctx.rank)
                    changed = True
            elif isinstance(m, ModifyCall):
                container = pm.get(w, rank=ctx.rank)
                if container is None:
                    container = set()
                    pm.set(w, container, rank=ctx.rank)
                args = [ev.eval(a, env) for a in m.args]
                self.assign_count += 1
                if m.method == "insert":
                    item = args[0] if len(args) == 1 else tuple(args)
                    if item not in container:
                        container.add(item)
                        changed = True
                elif m.method == "remove":
                    item = args[0] if len(args) == 1 else tuple(args)
                    if item in container:
                        container.discard(item)
                        changed = True
            if changed:
                self.change_count += 1
                # refresh env copies of this value (later mods in the group)
                k = ("read", target.decl.name, unalias(target.index).key())
                if k in env:
                    env[k] = pm.get(w, rank=ctx.rank)
                if target.decl.name in dependent:
                    ctx.stats.count_work_item()
                    if self.work is not None:
                        self.work(ctx, w)

    # -- tier 1: the compiled step walker -----------------------------------------
    def _walk_compiled(self, ctx, at_vertex: int, ci: int, si: int, env: dict) -> None:
        """Closure-compiled twin of :meth:`_walk` (fast_path != "off").

        Identical control flow, payloads, statistics and property values —
        only the per-message expression interpretation is replaced by the
        closures built at bind() time (:func:`~repro.patterns.fastpath.compile_steps`).
        """
        plans = self._compiled
        cond_plans = self.plan.cond_plans
        optimized = self.plan.mode == "optimized"
        rank = ctx.rank
        while True:
            steps = plans[ci]
            step = steps[si]
            dest = env.get(step.loc_key, _MISSING)
            if dest is _MISSING:
                raise PlanningError(
                    f"routing value for step {ci}.{si} of {self.name} "
                    "unknown (planner bug?)"
                )

            is_gather = step.kind == "gather"
            if is_gather and optimized and all(k in env for k in step.elide_keys):
                si += 1
                continue

            if dest != at_vertex:
                ctx.send(self.mtype, self._pack(dest, ci, si, env, step.carry))
                return

            if is_gather:
                for k, get, idx in step.reads:
                    if k not in env or not optimized:
                        env[k] = get(idx(env, rank), rank=rank)
                for k, fn in step.routing:
                    if k not in env or not optimized:
                        env[k] = fn(env, rank)
                for k, fn in step.folds:
                    if k not in env:
                        env[k] = fn(env, rank)
                si += 1
                continue

            with self.bound.lockmap.lock(at_vertex):
                if step.kind == "eval":
                    local_env = dict(env)
                    for k, get, idx in step.reads:
                        local_env[k] = get(idx(local_env, rank), rank=rank)
                    taken = step.test is None or bool(step.test(local_env, rank))
                    if taken:
                        for mod in step.mods:
                            mod(ctx, local_env, rank)
                else:  # modify
                    for mod in step.mods:
                        mod(ctx, env, rank)
                    taken = True

            if step.kind == "modify" or taken:
                if si + 1 < len(steps):
                    si += 1
                    continue
                nxt = cond_plans[ci].next_group
            else:
                cp = cond_plans[ci]
                nxt = cp.next_on_false if cp.next_on_false is not None else cp.next_group
            if nxt is None:
                return
            ci, si = nxt, 0

    # -- tier 2: columnar fan-out and batch delivery ----------------------------------
    def _fan_out(self, ctx, starts) -> None:
        """Multi-source generator fan-out for a recognized plan shape.

        One kernel evaluation per carried env key produces that key's
        column for every out-edge of every vertex in ``starts`` (the
        bind-time numpy closures over per-edge index arrays).  Rows whose
        eval step runs here are applied inline and are not messages:
        self-loop arcs, as elision would, and — when the plan is fused
        (``VectorPlan.fused``, see
        :func:`~repro.patterns.locality.fusion_report`) — every rank-local
        edge, the collapsed message round.  All other rows leave through
        :meth:`_send_columns`; counts and payload values match the scalar
        walk's exactly.
        """
        vp = self.vector_plan
        fused = vp.fused
        g = self.bound.graph
        rank = ctx.rank
        stats = ctx.stats
        vglob = np.asarray(starts, dtype=np.int64)
        vloc = g.partition.local_index_array(vglob)
        targets, sources, cols = vp.fan_out(rank, g.locals[rank], vloc, vglob)
        total = len(targets)
        if total == 0:
            return
        # The one address resolution of the fan-out.
        owners = self._owners(ctx.machine, targets)
        if fused:
            stats.count_fusion("fused_rounds")
            inline = owners == rank
        else:
            inline = targets == sources  # self-loops
        n_inline = int(np.count_nonzero(inline))
        if (
            0 < n_inline < total
            and not vp.order_free
            and vp.dependent
            and (self._work is not None or self._work_many is not None)
        ):
            # A work hook may send: its sends land between the rows the
            # scalar walk generates before and after each self-loop.
            cut = (np.flatnonzero(inline[1:] != inline[:-1]) + 1).tolist()
            for lo, hi in zip([0, *cut], [*cut, total]):
                run = [targets[lo:hi], *(c[lo:hi] for c in cols)]
                if inline[lo]:
                    self._apply_batch(ctx, run)
                else:
                    batch = WireBatch(vp.payload_columns(run[0], run[1:]), hi - lo)
                    self._send_columns(ctx.machine, rank, batch, owners[lo:hi])
            return
        if n_inline:
            if fused:
                stats.count_fusion("fused_edges", n_inline)
            self._apply_batch(ctx, [targets[inline], *(c[inline] for c in cols)])
            if n_inline == total:
                return
            keep = ~inline
            targets, owners = targets[keep], owners[keep]
            cols = [c[keep] for c in cols]
        if fused:
            if len(targets) > 1:
                # Confluent extremum: of several candidates fanned out to
                # the same remote vertex in one round, only the best can
                # survive the compare-and-assign — dominated rows change
                # neither the final map nor the dependent set, so drop
                # them before they reach the wire.
                cand = vp.value([targets, *cols])
                if not vp.minimize and cand.dtype.kind == "f":
                    # NaN sorts last, yet never wins the compare: rank it
                    # below every candidate so it cannot crowd out the max.
                    cand = np.where(np.isnan(cand), -np.inf, cand)
                order = np.lexsort((cand, targets))
                ts = targets[order]
                best = np.empty(len(ts), dtype=bool)
                if vp.minimize:
                    best[0] = True  # first of each ascending-cand group
                    np.not_equal(ts[1:], ts[:-1], out=best[1:])
                else:
                    best[-1] = True  # last of each group: the max
                    np.not_equal(ts[1:], ts[:-1], out=best[:-1])
                keep = order[best]
                if len(keep) < len(targets):
                    keep.sort()  # preserve generation order on the wire
                    targets, owners = targets[keep], owners[keep]
                    cols = [c[keep] for c in cols]
            stats.count_fusion("remote_rows", len(targets))
        batch = WireBatch(vp.payload_columns(targets, cols), len(targets))
        self._send_columns(ctx.machine, rank, batch, owners)

    def _owners(self, machine: Machine, vertices: np.ndarray) -> np.ndarray:
        """Owner rank per vertex: ``owner_array`` raises ``IndexError`` for
        an out-of-range vertex, as ``Partition.owner`` does."""
        owners = self.bound.graph.partition.owner_array(vertices)
        n_ranks = machine.n_ranks
        if owners.min() < 0 or owners.max() >= n_ranks:
            raise ValueError(
                f"owner map returned a rank outside [0, {n_ranks}) for a "
                f"vertex of {self.name}"
            )
        return owners

    def _send_columns(self, machine: Machine, src: int, batch: WireBatch, owners=None) -> None:
        """Ship payload rows as column batches.

        With a single coalescing layer and spans off, each destination
        rank's rows are appended to its buffer as columns, with the exact
        flush boundaries sequential sends would produce — logical send
        counts, flush counts and envelope contents are unchanged.  An
        order-free type takes one stable split per rank; any other type
        also flushes its buffers in the order sequential sends would
        (:meth:`CoalescingLayer.send_rows_in_order`), because the ``fifo``
        and ``lifo`` schedules deliver by that order.  Any other
        configuration (telemetry spans, reduction/caching layers, no
        coalescing, the ``off`` oracle) must see every row: the batch is
        iterated and each row — a tuple of plain Python values — takes the
        ordinary send path (``inject`` for the driver's ``src == -1``).
        ``owners`` is the owner of each row's address vertex when the
        caller has resolved it already.
        """
        layer = self._bulk_layer
        if layer is None or machine.telemetry.spans_on:
            send = machine.inject if src < 0 else partial(machine.transport.send, src)
            for row in batch:
                send(self.mtype, row)
            return
        if owners is None:
            owners = self._owners(machine, batch.column(0))
        counts = np.bincount(owners, minlength=machine.n_ranks)
        with machine.transport.bulk_guard:
            if counts.max() == batch.nrows:
                layer.send_rows(src, int(owners[0]), batch)
                return
            if not self.mtype.order_free:
                layer.send_rows_in_order(src, owners, batch)
                return
            batch = batch.take(np.argsort(owners, kind="stable"))
            lo = 0
            for r, n in enumerate(counts.tolist()):
                if n:
                    layer.send_rows(src, r, batch[lo : lo + n])
                    lo += n

    def _batch_handler(self, ctx, payloads) -> None:
        """Vectorized delivery of one coalesced envelope.

        Payloads addressed at the recognized eval step are applied as one
        scatter kernel and every generator start of the envelope joins one
        multi-source fan-out; anything else (unrecognized resume points)
        falls back to the scalar handler, preserving exact semantics for
        the long tail.  A column batch — flushed by the coalescing layer
        on ``sim``/``threads``, decoded from a frame on ``process`` — is
        consumed column-wise; row tuples are recognized one by one
        (:meth:`_batch_rows`).
        """
        vp = self.vector_plan
        if isinstance(payloads, WireBatch):
            if payloads.ncols == 3 and payloads.col_const(1) == -1:
                # A whole frame of generator starts (work-hook re-invokes,
                # driver injections): zero per-row dispatch.
                tel = ctx.machine.telemetry
                if tel.spans_on:
                    tel.annotate(starts=len(payloads))
                self._fan_out(ctx, payloads.column(0))
                ctx.stats.count_vector_items(self.mtype.name, len(payloads))
                return
            if payloads.ncols == vp.payload_len:
                self._batch_handler_columnar(ctx, payloads)
                return
        self._batch_rows(ctx, payloads)

    def _batch_rows(self, ctx, payloads) -> None:
        """Delivery of an envelope held as row tuples.

        Each row is an eval-step payload of the recognized shape, a
        generator start or anything else (run by the scalar handler).  An
        order-free update applies every eval row in one scatter, then fans
        out every start; an order-sensitive one (a sum) takes consecutive
        runs of one kind in arrival order, as the scalar handler would —
        the ``(r, r)`` buffer mixes driver starts with rank ``r``'s own
        fan-out rows, and a start's self-loop adds must land between the
        rows delivered around it.
        """
        vp = self.vector_plan
        esi, plen, sig = vp.eval_si, vp.payload_len, vp.slot_sig
        positions = vp.value_positions

        def kind(p) -> int:  # 0: eval row, 1: generator start, 2: other
            if (
                len(p) == plen
                and p[1] == 0
                and p[2] == esi
                and all(p[3 + 2 * i] == s for i, s in enumerate(sig))
            ):
                return 0
            return 1 if len(p) == 3 and p[1] == -1 else 2

        kinds = [kind(p) for p in payloads]
        tel = ctx.machine.telemetry
        if tel.spans_on:
            tel.annotate(
                vectorized=kinds.count(0), starts=kinds.count(1), fallback=kinds.count(2)
            )
        rows = list(zip(kinds, payloads))
        if vp.order_free:
            rows.sort(key=lambda kp: kp[0])  # stable: arrival order per kind
        name = self.mtype.name
        for k, run in groupby(rows, key=lambda kp: kp[0]):
            run = [p for _, p in run]
            if k == 0:
                self._apply_batch(ctx, [np.array([p[i] for p in run]) for i in positions])
                ctx.stats.count_vector_items(name, len(run))
            elif k == 1:
                self._fan_out(ctx, [p[0] for p in run])
                ctx.stats.count_vector_items(name, len(run))
            else:
                for p in run:
                    self._handler(ctx, p)

    def _batch_handler_columnar(self, ctx, wb: WireBatch) -> None:
        """Column-wise delivery of a batch shaped like eval-step payloads.

        The recognition predicate is tested per column instead of per
        row, and the value columns feed the scatter kernel directly —
        per-row tuples are only materialized when a non-constant
        predicate column rules some row out (which the fast-path send
        shape never produces: every row it emits shares
        ``ci==0``/``si``/slot ids).
        """
        vp = self.vector_plan
        # Recognition predicate: ci == 0, si == eval_si, slot ids match.
        checks = [(1, 0), (2, vp.eval_si)] + [
            (3 + 2 * i, s) for i, s in enumerate(vp.slot_sig)
        ]
        mask = None  # None -> all rows match so far
        for col, expect in checks:
            const = wb.col_const(col)
            if const is not None:
                if const != expect:
                    mask = np.zeros(len(wb), dtype=bool)
                    break
                continue
            m = wb.column(col) == expect
            mask = m if mask is None else (mask & m)
        if mask is not None:
            # Some row is not an eval row of the shape: recognise row by
            # row, which keeps a sum's arrival order.
            self._batch_rows(ctx, wb._materialize())
            return
        # Every row matches: the common case for coalesced fast-path
        # traffic (constant ci/si/slot columns are scalars).
        tel = ctx.machine.telemetry
        if tel.spans_on:
            tel.annotate(vectorized=len(wb), fallback=0)
        self._apply_batch(ctx, [wb.column(i) for i in vp.value_positions])
        ctx.stats.count_vector_items(self.mtype.name, len(wb))

    def _apply_batch(self, ctx, cols: list) -> None:
        """Apply a batch of eval-step rows, given as value columns (the
        destination first, then the carried values; see
        :attr:`VectorPlan.value_positions`).

        Equivalent to running the merged eval+modify handler once per row.
        An extremum is one scatter whose compare-and-update *is* the
        condition test plus assignment, applied under every touched
        vertex's lock; the work hook fires once per vertex whose value the
        batch improved — the same dependent-vertex set the scalar walk
        discovers (it may fire fewer times for vertices improved
        repeatedly within one batch, which only dedupes re-activation).
        A sum is :meth:`_apply_sum`.
        """
        vp = self.vector_plan
        dv = np.asarray(cols[0], dtype=np.int64)
        if vp.update == "add":
            self._apply_sum(ctx, dv, cols)
            return
        cv = np.asarray(vp.value(cols))
        local = self.bound.graph.partition.local_index_array(dv)
        self.assign_count += len(dv)
        with self.bound.lockmap.lock_many(dv):
            changed = vp.target_map.scatter_extremum(
                ctx.rank, local, cv, minimize=vp.minimize
            )
        if not changed.any():
            return
        touched = np.unique(dv[changed])
        self.change_count += len(touched)
        if vp.dependent:
            # Fired after the locks are released: the hook may send (and
            # the thread transport's layer locks must not nest inside
            # vertex locks held for the whole batch).
            ctx.stats.count_work_item(len(touched))
            self.fire_work(ctx, touched)

    def _apply_sum(self, ctx, dv: np.ndarray, cols: list) -> None:
        """``target[t] += value`` for every row that passes the test, in
        row order — bitwise the scalar walk's ``old + delta`` per row.

        Counters are per row, as the scalar walk keeps them: a row that
        passes the test is an assignment; one whose value is nonzero (a
        NaN is, ``±0.0`` is not) is added, counts as a change and a work
        item, and fires the work hook — once per row, in row order.
        """
        vp = self.vector_plan
        delta = np.asarray(vp.value(cols))
        if delta.ndim == 0:
            delta = np.full(len(dv), delta)
        if vp.test is not None:
            ok = np.broadcast_to(np.asarray(vp.test(cols), dtype=bool), dv.shape)
            if not ok.all():
                dv, delta = dv[ok], delta[ok]
        self.assign_count += len(dv)
        nz = delta != 0
        if not nz.all():
            dv, delta = dv[nz], delta[nz]
        if not len(dv):
            return
        local = self.bound.graph.partition.local_index_array(dv)
        with self.bound.lockmap.lock_many(dv):
            vp.target_map.scatter_add(ctx.rank, local, delta)
        self.change_count += len(dv)
        if vp.dependent:
            ctx.stats.count_work_item(len(dv))
            self.fire_work(ctx, dv)

    # -- tier 2b: a step chain as column stages, in arrival order ---------------------
    def _lowered_batch_handler(self, ctx, payloads) -> None:
        """Delivery of one envelope of a lowered action (no confluence class).

        The envelope is cut into runs of one resume point in arrival order
        (consecutive generator starts are one run); each run walks the
        plan's steps as column stages (:meth:`_run_lowered`).  A run whose
        first step has no stage, or whose starts have no column generator,
        is handed to the scalar handler row by row.
        """
        with np.errstate(all="ignore"):  # the row walk's float semantics
            vectorized = self._lowered_deliver(ctx, payloads)
        if vectorized:
            ctx.stats.count_vector_items(self.mtype.name, vectorized)
        tel = ctx.machine.telemetry
        if tel.spans_on:
            tel.annotate(vectorized=vectorized, fallback=len(payloads) - vectorized)

    def _lowered_deliver(self, ctx, payloads) -> int:
        """Run an envelope's runs; returns the payloads no row of which
        resumed the row walk."""
        low = self.lowering
        vectorized = 0
        for ci, si, slots, cols, rows in self._lowered_runs(payloads):
            n = len(cols[0])
            run = None
            if ci == -1:
                starts = np.asarray(cols[0], dtype=np.int64)
                run = low.start_rows(ctx.rank, starts)
                if run is not None:
                    keys, env, x, start = run
                    run = (0, 0, keys, env, x, start)
            elif all(c.ndim == 1 for c in cols):
                keys = tuple(self._key_of[s] for s in slots)
                env = dict(zip(keys, cols[1:]))
                loc_key = self.plan.cond_plans[ci].steps[si]._loc_key
                env.setdefault(loc_key, cols[0])
                keys = tuple(env)
                if low.stage(ci, si, keys).kind != "fallback":
                    x = np.asarray(cols[0], dtype=np.int64)
                    run = (ci, si, keys, env, x, None)
            if run is None:
                ctx.stats.count_fusion("row_fallbacks", n)
                for p in rows():
                    self._handler(ctx, p)
                continue
            ci, si, keys, env, x, start = run
            fell = self._run_lowered(ctx, ci, si, keys, env, x)
            if start is not None and len(fell):
                fell = np.unique(start[fell])
            vectorized += n - len(fell)
        return vectorized

    def _lowered_runs(self, payloads):
        """``(ci, si, slots, columns, rows)`` per run of one resume point,
        in arrival order: ``columns`` holds the address and each carried
        value as arrays, ``rows()`` the run's payload tuples."""
        if isinstance(payloads, WireBatch):
            width = payloads.ncols
            sig = [payloads.col_const(i) for i in (1, 2, *range(3, width, 2))]
            if None not in sig:
                cols = [payloads.column(0), *(payloads.column(i) for i in range(4, width, 2))]
                yield sig[0], sig[1], tuple(sig[2:]), cols, payloads._materialize
                return
            payloads = payloads._materialize()
        for (ci, si, slots), run in groupby(payloads, key=lambda p: (p[1], p[2], p[3::2])):
            run = tuple(run)
            vals = list(zip(*run))
            cols = [np.array(vals[0]), *(np.array(vals[i]) for i in range(4, len(vals), 2))]
            yield ci, si, slots, cols, (lambda _r=run: _r)

    def _run_lowered(self, ctx, ci, si, keys, env, x) -> np.ndarray:
        """Run rows standing at step ``(ci, si)`` (columns ``env`` in key
        order ``keys``, vertices ``x``) as column stages, prefix by prefix.

        Each dry run (:class:`~repro.patterns.fastpath.ColumnDryRun`) reads
        the state at the start of the rows left; its prefix up to
        :meth:`~repro.patterns.fastpath.ColumnDryRun.end` is written under
        the rows' locks and then replayed in row order (:meth:`_emit_lowered`).
        Returns the rows handed back to the row walk.
        """
        low = self.lowering
        lockmap = self.bound.lockmap
        fell = [_NONE]
        lo, m = 0, len(x)
        xl = self.bound.graph.partition.local_index_array(x)
        while lo < m:
            rest = {k: c[lo:] for k, c in env.items()} if lo else env
            with lockmap.lock_many(x[lo:]) if lockmap.concurrent else nullcontext():
                dry = ColumnDryRun(low, ctx.rank, ci, si, keys, rest, x[lo:], xl[lo:])
                end = dry.end()
                dry.apply(end)
            fell.append(lo + self._emit_lowered(ctx, dry, end))
            lo += end + 1
        return np.concatenate(fell)

    def _emit_lowered(self, ctx, dry, end: int) -> np.ndarray:
        """Replay rows ``0..end`` of a dry run whose writes are applied:
        counters, then in row order each row's sends, work-hook calls
        (the hook may send) and resumed row walks, as the row walk makes
        them.  Returns the resumed rows."""
        n = end + 1
        machine, rank = ctx.machine, ctx.rank
        self.assign_count += int(dry.assigns[:n].sum())
        self.change_count += int(dry.changes[:n].sum())
        work = dry.work[:n]
        n_work = int(work.sum())
        if n_work:
            ctx.stats.count_work_item(n_work)
        fell = events = np.flatnonzero(dry.fallback_of[:n] >= 0) if dry.fallbacks else _NONE
        hook = self._work
        if hook is not None and n_work:
            events = np.union1d(np.flatnonzero(work), fell)
        lay, layouts = dry.exit_layouts(n)
        batches = []
        for ci, si, keys, rows, env in layouts:
            step = self.plan.cond_plans[ci].steps[si]
            dest = np.asarray(env[step._loc_key], dtype=np.int64)
            cols: list = [dest, ci, si]
            for k in keys:
                if k in step._carry:
                    cols += (self._slot_of[k], env[k])
            batches.append((WireBatch(cols, len(rows)), self._owners(machine, dest), rows))
        if not len(events) and len(batches) == 1:  # the common case: one send
            self._send_columns(machine, rank, *batches[0][:2])
            return fell
        pos = np.empty(n, dtype=np.int64)
        for _, _, rows in batches:
            pos[rows] = np.arange(len(rows))
        sends = np.flatnonzero(lay >= 0)

        def send(rows: np.ndarray) -> None:
            """The exits of ``rows`` (ascending), one batch per layout run."""
            ls = lay[rows]
            cut = (np.flatnonzero(ls[1:] != ls[:-1]) + 1).tolist()
            for a, b in zip([0, *cut], [*cut, len(rows)]):
                batch, owners, _ = batches[ls[a]]
                lo = int(pos[rows[a]])
                hi = lo + b - a
                if hi - lo < batch.nrows:
                    batch, owners = batch.take(slice(lo, hi)), owners[lo:hi]
                self._send_columns(machine, rank, batch, owners)

        done = 0  # position in ``sends``
        for e in events.tolist():
            k = int(np.searchsorted(sends, e))
            if k > done:
                send(sends[done:k])
                done = k
            v = int(dry.x[e])
            if hook is not None:
                for _ in range(int(work[e])):
                    hook(ctx, v)
            f = int(dry.fallback_of[e])
            if f >= 0:
                g = dry.fallbacks[f]
                j = int(np.searchsorted(g.rows, e))
                env = {k: c[j].item() if isinstance(c[j], np.generic) else c[j] for k, c in g.env.items()}
                self._walk_fn(ctx, v, g.ci, g.si, env)
        if done < len(sends):
            send(sends[done:])
        if len(fell):
            ctx.stats.count_fusion("row_fallbacks", len(fell))
        return fell

    # -- introspection ------------------------------------------------------------
    def describe(self) -> str:
        return self.plan.describe()

    def reset_counters(self) -> None:
        self.change_count = 0
        self.assign_count = 0

    def release(self) -> None:
        """Let go of the binding once the machine has shut down.

        The walkers, kernels, work hooks and the back reference to the
        pattern each close a reference cycle through this action, so the
        maps they reach would outlive the caller's last reference until
        the next cyclic collection.  Counters and :meth:`describe` keep
        working; the action can no longer run.
        """
        self.mtype.batch_handler = None
        self.mtype.order_free = False
        self.bound = None
        self.vector_plan = None
        self.lowering = None
        self._compiled = None
        self._walk_fn = None
        self._work = self._work_many = None


class BoundPattern:
    """A pattern bound to a machine + graph with materialized maps."""

    def __init__(
        self,
        pattern: Pattern,
        machine: Machine,
        graph: DistributedGraph,
        *,
        props: Optional[dict] = None,
        mode: str = "optimized",
        lockmap: Optional[LockMap] = None,
        layers: Optional[dict] = None,
    ) -> None:
        self.pattern = pattern
        self.machine = machine
        self.graph = graph
        # The locking scheme follows the transport (Sec. IV-B) unless the
        # caller parameterizes the algorithm with a lock map of its own.
        self.lockmap = lockmap or LockMap(
            graph.n_vertices, concurrent=machine.transport.concurrent_handlers
        )
        # Track the lock map on the graph so mutations that add vertices
        # grow its coverage along with the property maps.
        lockreg = getattr(graph, "_lockmaps", None)
        if lockreg is not None:
            lockreg.add(self.lockmap)
        self.layer_config = layers or {}
        if machine.resolver.owner_map is None:
            machine.attach_graph(graph)
        self.maps: dict[str, Union[VertexPropertyMap, EdgePropertyMap]] = {}
        props = props or {}
        for name, decl in pattern.properties.items():
            if name in props:
                self.maps[name] = props[name]
                continue
            default = decl.default
            if decl.value_kind == SET:
                default = None  # sets created lazily on first insert
            elif default is None:
                default = default_for(decl)
            if decl.target_kind == VERTEX:
                self.maps[name] = VertexPropertyMap(
                    graph, decl.dtype, default, name=name
                )
            else:
                self.maps[name] = EdgePropertyMap(
                    graph, decl.dtype, default, name=name
                )
        # Checkpointing: every map the pattern touches (created here or
        # supplied via props) is part of the algorithm state; register it
        # so epoch-aligned snapshots capture the full union.
        ckpts = getattr(machine, "checkpoints", None)
        if ckpts is not None:
            for pm in self.maps.values():
                ckpts.register_map(pm)
        # Process transport: pattern-bound maps are the algorithm state;
        # hand them over so numeric ones are re-homed into shared memory
        # at spawn and object ones are synced back at epoch boundaries.
        adopt = getattr(machine.transport, "adopt_map", None)
        if adopt is not None:
            for pm in self.maps.values():
                adopt(pm)
        self.actions: dict[str, BoundAction] = {}
        for name, action in pattern.actions.items():
            plan = compile_action(action, mode)
            self.actions[name] = BoundAction(self, plan)

    def __getitem__(self, action_name: str) -> BoundAction:
        return self.actions[action_name]

    def map(self, name: str):
        return self.maps[name]

    def describe(self) -> str:
        return "\n\n".join(a.describe() for a in self.actions.values())


def bind_once(machine: Machine, key: tuple, make: Callable[[], BoundPattern]) -> BoundPattern:
    """The machine's binding for ``key``, made by ``make()`` on first use.

    Later calls reuse the same registered actions and property maps, so
    repeated runs neither grow the message registry nor re-adopt maps;
    bound maps migrate with the graph across mutations and rebalances.
    ``key`` should name everything the binding closes over (family,
    graph, supplied maps, layer configuration).
    """
    bp = machine.bound_patterns.get(key)
    if bp is None:
        bp = machine.bound_patterns[key] = make()
    return bp


def bind(
    pattern: Pattern,
    machine: Machine,
    graph: DistributedGraph,
    *,
    props: Optional[dict] = None,
    mode: str = "optimized",
    lockmap: Optional[LockMap] = None,
    layers: Optional[dict] = None,
) -> BoundPattern:
    """Bind ``pattern`` to ``machine``/``graph``; compile all actions.

    ``props`` supplies pre-built property maps by declaration name (e.g. a
    weight map filled from the graph builder); missing ones are created
    with declaration defaults.  ``layers`` configures per-action message
    layers: ``{"relax": {"coalescing": 64, "reduction": ...}}``.
    """
    return BoundPattern(
        pattern,
        machine,
        graph,
        props=props,
        mode=mode,
        lockmap=lockmap,
        layers=layers,
    )
