"""Communication synthesis: compiling actions to message plans.

Implements Sec. IV-A of the paper.  For every condition:

1. find the localities required to evaluate it (property-read analysis);
2. build the depth-first communication tree over those localities and
   prune it (handled by :class:`~repro.patterns.locality.LocalityTree`);
3. emit *gather* steps visiting the tree — every step reads the property
   values local to its locality plus the "routing reads" that reveal the
   vertex ids of child localities;
4. emit the *evaluate* step.  When the first modification group's
   accesses are a subset of the condition's localities, the evaluation is
   **merged** with that group ("this is not a mere optimization" — the
   merged handler gives the paper's single-vertex consistency guarantee);
5. emit gather + *modify* steps for each remaining modification group
   (grouped by written-value locality, order preserved).

Two planning modes:

* ``optimized`` (default) — gather steps follow DFS pre-order and jump
  directly between consecutive localities ("straight to vertex 3 from 2"),
  scalar subexpressions are pre-folded as soon as their reads are
  available (Fig. 6's ``dist[v] + weight[e]`` payload), and at run time
  already-known values elide whole hops (the paper's elision between
  consecutive statements).
* ``naive`` — the textbook depth-first walk that backtracks through
  parents, reproducing Fig. 5's 8-message example exactly; no folding,
  no elision.

The compiled :class:`ActionPlan` is a pure description; execution lives in
:mod:`repro.patterns.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

from .action import Action, Assign, AugAdd, Condition, Modification
from .errors import PlanningError, PatternValidationError
from .expr import (
    SCALAR,
    SET,
    BinOp,
    Call,
    Compare,
    Const,
    Expr,
    PropRead,
    SrcOf,
    TrgOf,
    unalias,
)
from .locality import (
    LocalityAnalysis,
    LocalityTree,
    is_source_local,
    required_localities,
)

MODES = ("optimized", "naive")


@dataclass
class Step:
    """One hop of an action's communication."""

    sid: int
    locality: Expr  # vertex expression; the step runs at its runtime value
    kind: str  # 'gather' | 'eval' | 'modify'
    reads: list[PropRead] = field(default_factory=list)
    routing: list[Expr] = field(default_factory=list)  # child localities learned here
    folds: list[Expr] = field(default_factory=list)  # subexpressions folded here
    test: Optional[Expr] = None  # eval only
    mods: list[Modification] = field(default_factory=list)  # eval (merged) / modify
    live_out: set = field(default_factory=set)  # env keys carried to the next step
    live_in: set = field(default_factory=set)  # env keys this step (and later) needs
    # Memoized hot-path lookups, filled in by :meth:`finalize` once the
    # plan is complete (the executor consults these per message; computing
    # ``key()`` repr-sorts and tuples per call would dominate the handler).
    _loc_key: Optional[tuple] = None
    _read_keys: list = field(default_factory=list)
    _routing_keys: list = field(default_factory=list)
    _fold_keys: list = field(default_factory=list)
    _carry: frozenset = frozenset()

    def finalize(self) -> None:
        """Precompute per-step keys and the carried-payload layout.

        Called by :meth:`Planner.compile` after liveness (including the
        cross-condition pass) has settled, so ``_carry`` — the env keys a
        message to this step actually ships (its own locality rides in the
        address slot instead) — is final.
        """
        self._loc_key = unalias(self.locality).key()
        self._read_keys = [r.key() for r in self.reads]
        self._routing_keys = [r.key() for r in self.routing]
        self._fold_keys = [f.key() for f in self.folds]
        self._carry = frozenset(self.live_in - {self._loc_key})

    def describe(self) -> str:
        bits = [f"@{self.locality.pretty()}"]
        if self.reads:
            bits.append("read{" + ", ".join(r.pretty() for r in self.reads) + "}")
        if self.routing:
            bits.append("route{" + ", ".join(r.pretty() for r in self.routing) + "}")
        if self.folds:
            bits.append("fold{" + ", ".join(f.pretty() for f in self.folds) + "}")
        if self.test is not None:
            bits.append(f"test({self.test.pretty()})")
        if self.mods:
            bits.append("mod{" + "; ".join(m.describe() for m in self.mods) + "}")
        return f"{self.kind:<7} " + " ".join(bits)


@dataclass
class CondPlan:
    """Compiled steps for one condition."""

    index: int
    cond: Condition
    steps: list[Step]
    merged: bool  # evaluation merged with the first modification group
    next_on_false: Optional[int]  # cond index of the next elif/else in group
    next_group: Optional[int]  # cond index starting the following group
    entry: Optional[Expr] = None  # where execution stands when the
    # condition starts (the action's input vertex)
    first_come: Optional["FirstCome"] = None  # the claim form, if matched

    def eval_step(self) -> Step:
        for s in self.steps:
            if s.kind == "eval":
                return s
        raise PlanningError("condition plan has no eval step")  # pragma: no cover

    def message_sequence(self) -> list[str]:
        """Symbolic hop sequence: localities of consecutive distinct steps,
        starting from the action's input vertex (where the generator runs).

        Assumes every distinct locality expression lands on a different
        vertex — the worst case the paper counts in Figs. 5 and 6.
        """
        hops: list[str] = []
        prev = self.entry.key() if self.entry is not None else None
        for s in self.steps:
            cur = s.locality.key()
            if prev is not None and cur != prev:
                hops.append(s.locality.pretty())
            prev = cur
        return hops

    def static_message_count(self) -> int:
        """Worst-case message count for this condition (distinct localities)."""
        return len(self.message_sequence())

    def describe(self, verdict: str = "") -> str:
        head = f"condition {self.index} ({self.cond.kind}"
        if self.cond.test is not None:
            head += f": {self.cond.test.pretty()}"
        head += f"){' [merged eval+modify]' if self.merged else ''}"
        lines = [head]
        lines += [f"  {s.describe()}" for s in self.steps]
        lines.append(f"  worst-case messages: {self.static_message_count()}")
        if verdict:
            lines.append(f"  {verdict}")
        return "\n".join(lines)


@dataclass(frozen=True)
class _RelaxMatch:
    """What both confluence classes match: gathers at the input vertex,
    then one merged eval step at the generated neighbour."""

    steps: tuple  # the condition's steps; the eval step is last
    neighbour: Expr  # where the eval step runs: ``trg(e)`` or ``u``
    target: PropRead  # the property updated at the neighbour

    @property
    def eval_si(self) -> int:
        return len(self.steps) - 1


@dataclass(frozen=True)
class Extremum(_RelaxMatch):
    """An action whose only condition is a confluent extremum update.

    ``target = cand`` when ``cand < target`` (or ``<=``, ``>``, ``>=``, in
    either orientation), merged into one eval step at the generated
    neighbour, after gathers that all run at the input vertex.  Such
    updates commute and are idempotent: the final map and the dependent
    set ``{t : final[t] != initial[t]}`` are the same under every delivery
    order.  That is what licenses the vector tier's batch scatter, merged
    delivery and, when the candidate is also source-local, fusing the
    gather -> evaluate round
    (:func:`~repro.patterns.locality.fusion_report`).
    """

    kind: ClassVar[str] = "extremum"
    cand: Expr  # the candidate compared with ``target`` and installed
    minimize: bool  # the update keeps the smaller value
    source_local: bool  # cand is computable at the input vertex


@dataclass(frozen=True)
class Sum(_RelaxMatch):
    """An action whose only condition accumulates ``target += value``.

    The same relax shape as :class:`Extremum` — gathers at the input
    vertex, one merged eval step at the generated neighbour — with one
    ``+=`` of a source-local value into a scalar neighbour property,
    under a test that reads only values carried from the input vertex;
    neither reads the property added into.  (Whether the target's dtype
    takes the value's is the vector recogniser's check.)
    Float addition does not associate, so a sum is order-*sensitive*: the
    vector tier applies a delivery's rows in arrival order (one
    unbuffered ``np.add.at``), which is bitwise the scalar walk, and no
    reader that reorders rows — merged delivery, fusion, fan-out dedupe —
    may act on it.
    """

    kind: ClassVar[str] = "sum"
    value: Expr  # the source-local value added to ``target``
    test: Optional[Expr]  # the condition, over source-local values


#: The confluence classes :attr:`ActionPlan.confluence` may hold.
Confluence = Union[Extremum, Sum]


@dataclass(frozen=True)
class FirstCome:
    """A condition that claims a vertex: ``when(P[x] == c): P[x] = e``.

    The test and the write sit in one merged eval step at ``x``.  Applied
    to a run of rows in arrival order,
    the first row per ``x`` that finds the sentinel ``c`` and carries an
    ``e != c`` claims ``x``; every row at ``x`` before it (``e == c``)
    assigns without a change, and every row after it fails the test.
    That is a first occurrence per target (``np.unique(...,
    return_index=True)``), so the vector tier's in-order lowering may
    apply a run's claims at once although the rows share targets.  It
    is a step class, not a confluence class: the order of the rows still
    decides the winner, so nothing may reorder them.
    """

    kind: ClassVar[str] = "first_come"
    eval_si: int  # the claim's eval step
    target: PropRead  # ``P[x]``
    sentinel: object  # ``c``
    value: Expr  # ``e``


def match_first_come(cp: CondPlan) -> Optional[FirstCome]:
    """The :class:`FirstCome` form of condition ``cp``, if it has one."""
    if not cp.merged:
        return None
    eval_si = next(i for i, s in enumerate(cp.steps) if s.kind == "eval")
    step = cp.steps[eval_si]
    test = unalias(step.test) if step.test is not None else None
    if not isinstance(test, Compare) or test.op != "==" or len(step.mods) != 1:
        return None
    left, right = unalias(test.left), unalias(test.right)
    read, const = (left, right) if isinstance(right, Const) else (right, left)
    if not isinstance(read, PropRead) or not isinstance(const, Const):
        return None
    mod = step.mods[0]
    if (
        not isinstance(mod, Assign)
        or mod.target.key() != read.key()
        or unalias(read.index).key() != step._loc_key
        or read.decl.value_kind == SET
    ):
        return None
    return FirstCome(eval_si=eval_si, target=read, sentinel=const.value, value=mod.value)


def match_confluence(
    action: Action, mode: str, cond_plans: list[CondPlan]
) -> tuple[Optional[Confluence], str]:
    """The structural match for a confluence class: ``(match, "")``, or
    ``(None, reason)`` naming the first requirement the plan misses.

    A single ``+=`` is matched as :class:`Sum`; anything else is tried as
    :class:`Extremum`.
    """
    if mode != "optimized" or len(cond_plans) != 1:
        return None, "needs optimized mode with a single condition"
    cp = cond_plans[0]
    if not cp.merged or cp.next_on_false is not None or cp.next_group is not None:
        return None, "eval and modify must merge with no else branch"
    gen = action.generator
    if gen is None or not gen.is_builtin or gen.source not in ("out_edges", "adj"):
        return None, "needs a builtin out_edges/adj generator"
    steps = cp.steps
    if [s.kind for s in steps].count("eval") != 1 or steps[-1].kind != "eval":
        return None, "needs exactly one eval step, last"
    input_key = action.input.key()
    if any(s.kind != "gather" or s._loc_key != input_key for s in steps[:-1]):
        return None, "pre-eval gathers must all run at the input vertex"
    eval_step = steps[-1]
    neighbour = TrgOf(gen.var) if gen.source == "out_edges" else gen.var
    if eval_step._loc_key != neighbour.key():
        return None, "eval must run at the generated neighbour"
    mods = eval_step.mods
    if len(mods) == 1 and isinstance(mods[0], AugAdd):
        return _match_sum(steps, neighbour, gen.source)
    return _match_extremum(steps, neighbour, gen.source)


def _match_extremum(steps: list, neighbour: Expr, generator: str):
    eval_step = steps[-1]
    test = unalias(eval_step.test) if eval_step.test is not None else None
    if not isinstance(test, Compare) or test.op not in ("<", "<=", ">", ">="):
        return None, "test must be an ordering comparison"
    left, right = unalias(test.left), unalias(test.right)

    def is_target_read(e: Expr) -> bool:
        return isinstance(e, PropRead) and unalias(e.index).key() == neighbour.key()

    if is_target_read(right) and not is_target_read(left):
        target, cand = right, left
        minimize = test.op in ("<", "<=")  # cand < cur: keep the min
    elif is_target_read(left) and not is_target_read(right):
        target, cand = left, right
        minimize = test.op in (">", ">=")  # cur > cand: keep the min
    else:
        return None, "test must compare a neighbour property against a candidate"
    mods = eval_step.mods
    if len(mods) != 1 or not isinstance(mods[0], Assign):
        return None, "needs a single assignment modification"
    mod = mods[0]
    if mod.target.key() != target.key() or unalias(mod.value).key() != cand.key():
        return None, "assignment must install the compared candidate (extremum)"
    return Extremum(
        steps=tuple(steps),
        neighbour=neighbour,
        target=target,
        cand=cand,
        minimize=minimize,
        source_local=is_source_local(cand, generator),
    ), ""


def _match_sum(steps: list, neighbour: Expr, generator: str):
    eval_step = steps[-1]
    mod = eval_step.mods[0]
    target = mod.target
    if unalias(target.index).key() != neighbour.key():
        return None, "the add must apply at the generated neighbour"
    decl = target.decl
    if decl.value_kind != SCALAR:
        return None, "the add target must be a scalar property"
    if not is_source_local(mod.value, generator):
        return None, "the added value must be computable at the input vertex"
    test = eval_step.test
    if test is not None and not is_source_local(test, generator):
        return None, "the test must read only values carried from the input vertex"
    # The scalar walk re-reads a source value per edge, after the adds
    # of earlier edges (a self-loop, a repeated start) have landed; the
    # column fan-out reads every edge's value before any add.
    reads = mod.value.reads() + (test.reads() if test is not None else [])
    if any(r.decl.name == decl.name for r in reads):
        return None, "the added value and the test must not read the property added into"
    return Sum(
        steps=tuple(steps),
        neighbour=neighbour,
        target=target,
        value=mod.value,
        test=test,
    ), ""


@dataclass
class ActionPlan:
    """The full compiled form of an action."""

    action: Action
    mode: str
    analysis: LocalityAnalysis
    cond_plans: list[CondPlan]
    base_keys: set  # env keys available right after the generator step
    dependent_props: set
    #: The update class the action proves (:class:`Extremum` or
    #: :class:`Sum`), read by the vector tier; only an :class:`Extremum`
    #: may be reordered (merged delivery, fusion, fan-out dedupe).
    confluence: Optional[Confluence] = None
    confluence_reason: str = ""  # why ``confluence`` is None

    def first_cond(self) -> int:
        return 0

    def static_message_count(self, fused: bool = False) -> int:
        """Worst-case messages for one straight-line run taking every
        condition's true branch (distinct-locality assumption).

        With ``fused=True``, count as the vector fast path executes when
        the plan's extremum update has a source-local candidate: the
        evaluate hop is performed inline at the source rank, so one
        message round disappears from the straight-line count.
        """
        base = sum(cp.static_message_count() for cp in self.cond_plans)
        m = self.confluence
        return base - 1 if fused and isinstance(m, Extremum) and m.source_local else base

    def describe(self, verdicts: Optional[list] = None) -> str:
        """The plan as text; ``verdicts`` adds one line under each
        condition (``repro plan`` prints the vector tier's lowering)."""
        lines = [
            f"plan for {self.action.pattern.name}.{self.action.name} "
            f"[{self.mode}]"
        ]
        if self.action.generator is not None:
            lines.append(f"  {self.action.generator.describe()}")
        for i, cp in enumerate(self.cond_plans):
            text = cp.describe(verdicts[i] if verdicts else "")
            lines.append("  " + text.replace("\n", "\n  "))
        lines.append(f"  dependent properties: {sorted(self.dependent_props) or '{}'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------


def _dedup_reads(reads: list[PropRead]) -> list[PropRead]:
    seen: dict[tuple, PropRead] = {}
    for r in reads:
        k = r.key()
        if k not in seen:
            seen[k] = r
    return list(seen.values())


def _mod_groups(analysis: LocalityAnalysis, mods: list[Modification]):
    """Group consecutive modifications by the locality of the value they
    modify, preserving order (paper: "the modifications are not reordered,
    so if modifications of values at different localities are interleaved,
    they will not be grouped")."""
    groups: list[tuple[Expr, list[Modification]]] = []
    for m in mods:
        site = analysis.locality_of_read(m.target)
        if groups and groups[-1][0].key() == site.key():
            groups[-1][1].append(m)
        else:
            groups.append((site, [m]))
    return groups


def _foldable_subexprs(expr: Expr, available: set, already: set) -> list[Expr]:
    """Maximal scalar subexpressions computable from ``available`` reads.

    A node is foldable if it is a BinOp/Call, every property read under it
    is in ``available``, and it actually contains at least one read (no
    point folding constants).  Maximality: a foldable node's children are
    not reported separately.
    """
    out: list[Expr] = []

    def go(e: Expr) -> bool:
        """Returns True if e is fully available (all reads known)."""
        e = unalias(e)
        if isinstance(e, Const):
            return True
        if isinstance(e, PropRead):
            return e.key() in available
        kids = [unalias(c) for c in e.children()]
        kid_ok = [go(c) for c in kids]
        ok = all(kid_ok)
        if (
            ok
            and isinstance(e, (BinOp, Call))
            and e.reads()
            and e.key() not in available
            and e.key() not in already
        ):
            out.append(e)
            return True
        if not ok:
            # children that were fully available but the parent is not:
            # fold the available ones
            for c, c_ok in zip(kids, kid_ok):
                if (
                    c_ok
                    and isinstance(c, (BinOp, Call))
                    and c.reads()
                    and c.key() not in available
                    and c.key() not in already
                ):
                    out.append(c)
        return ok

    go(expr)
    # Deduplicate by key, keep order.
    seen: set = set()
    uniq = []
    for e in out:
        if e.key() not in seen:
            seen.add(e.key())
            uniq.append(e)
    return uniq


class Planner:
    """Compiles one action into an :class:`ActionPlan`."""

    def __init__(self, action: Action, mode: str = "optimized") -> None:
        if mode not in MODES:
            raise ValueError(f"unknown planning mode {mode!r}; use {MODES}")
        self.action = action
        self.mode = mode
        self.analysis = LocalityAnalysis(action)

    # -- public -------------------------------------------------------------
    def compile(self) -> ActionPlan:
        self._validate()
        base = self._base_keys()
        cond_plans: list[CondPlan] = []
        conds = self.action.conditions
        for i, cond in enumerate(conds):
            cond_plans.append(self._compile_condition(i, cond, base))
        # chain links
        for i, cp in enumerate(cond_plans):
            nxt = i + 1
            cp.next_on_false = (
                nxt if nxt < len(conds) and conds[nxt].group == cp.cond.group else None
            )
            cp.next_group = next(
                (j for j in range(i + 1, len(conds)) if conds[j].group > cp.cond.group),
                None,
            )
        # Cross-condition liveness: execution flows from condition i into
        # later conditions, so any key a later condition consumes at entry
        # must stay live through all of i's steps (the paper's "the last
        # modification statement begins the communication for the next
        # non-else condition" implies exactly this carrying).
        entry_needs = [set(cp.steps[0].live_in) if cp.steps else set() for cp in cond_plans]
        downstream: set = set()
        for i in range(len(cond_plans) - 1, -1, -1):
            for s in cond_plans[i].steps:
                s.live_in |= downstream
                s.live_out |= downstream
            downstream |= entry_needs[i]
        # Liveness is final: memoize per-step keys and payload layouts.
        for cp in cond_plans:
            for s in cp.steps:
                s.finalize()
            cp.first_come = match_first_come(cp)
        confluence, reason = match_confluence(self.action, self.mode, cond_plans)
        return ActionPlan(
            action=self.action,
            mode=self.mode,
            analysis=self.analysis,
            cond_plans=cond_plans,
            base_keys=base,
            dependent_props=self.action.dependent_props(),
            confluence=confluence,
            confluence_reason=reason,
        )

    # -- validation ---------------------------------------------------------------
    def _validate(self) -> None:
        a = self.action
        if not a.conditions:
            raise PatternValidationError(
                f"action {a.name!r} has no conditions; an action consists of "
                "at least one condition (paper Sec. III-C)"
            )
        if a._open is not None:
            raise PatternValidationError(
                f"action {a.name!r} has an unclosed condition block"
            )
        # Paper Sec. III-C: "the boolean expressions must involve
        # accessing property maps".
        for cond in a.conditions:
            if cond.test is not None and not cond.test.reads():
                raise PatternValidationError(
                    f"condition {cond.test.pretty()} in action {a.name!r} "
                    "accesses no property map (paper Sec. III-C)"
                )
        # every expression must only use this action's variables
        for read in a.all_reads():
            for node in read.walk():
                name = getattr(node, "action_name", None)
                if name is not None and name != a.name:
                    raise PatternValidationError(
                        f"action {a.name!r} uses variable of action {name!r}"
                    )
        # generator variable must exist if referenced
        if a.generator is None:
            for read in a.all_reads():
                for node in read.walk():
                    if getattr(node, "action_name", None) == a.name and hasattr(
                        node, "kind"
                    ):
                        from .expr import GenVar

                        if isinstance(node, GenVar):
                            raise PatternValidationError(
                                f"action {a.name!r} uses a generator variable "
                                "but declares no generator"
                            )

    # -- helpers ---------------------------------------------------------------------
    def _base_keys(self) -> set:
        """Env keys filled by the generator step at the input vertex."""
        base = {self.action.input.key()}
        gen = self.action.generator
        if gen is not None:
            base.add(gen.var.key())
            if gen.var.kind == "edge":
                # src and trg of the generated edge are known at v (the
                # edge record is stored with v)
                base.add(SrcOf(gen.var).key())
                base.add(TrgOf(gen.var).key())
        return base

    def _compile_condition(self, index: int, cond: Condition, base: set) -> CondPlan:
        analysis = self.analysis
        test_reads = _dedup_reads(cond.test.reads()) if cond.test is not None else []
        groups = _mod_groups(analysis, cond.modifications)

        # Which localities does the condition touch?
        test_locs = required_localities(analysis, test_reads)
        test_loc_keys = {l.key() for l in test_locs}
        # also count the base localities as "accessed by the condition"
        accessible = test_loc_keys | {self.action.input.key()}
        gen = self.action.generator
        if gen is not None and gen.var.kind == "edge":
            accessible |= {SrcOf(gen.var).key(), TrgOf(gen.var).key()}

        # Merge decision (Sec. IV-A): first group merges into the evaluate
        # message when its accesses are within the condition's localities.
        merged = False
        eval_site: Expr
        merged_mods: list[Modification] = []
        rest_groups = groups
        if groups:
            site0, mods0 = groups[0]
            g_reads = _dedup_reads([r for m in mods0 for r in m.reads()])
            g_locs = {analysis.locality_of_read(r).key() for r in g_reads}
            if site0.key() in accessible and g_locs <= accessible | {site0.key()}:
                merged = True
                eval_site = site0
                merged_mods = mods0
                rest_groups = groups[1:]
            else:
                eval_site = (
                    test_locs[-1] if test_locs else self.action.input
                )
        else:  # pragma: no cover - validation forbids empty bodies
            eval_site = test_locs[-1] if test_locs else self.action.input

        # Localities to gather before evaluation: test reads + merged-group
        # reads, over the pruned communication tree including the eval site.
        pre_reads = _dedup_reads(
            test_reads + [r for m in merged_mods for r in m.reads()]
        )
        # Reads performed *at* the eval site happen inside the evaluate
        # handler itself (that is the synchronization guarantee), so they
        # are not gathered ahead.
        gather_reads = [
            r
            for r in pre_reads
            if analysis.locality_of_read(r).key() != eval_site.key()
        ]
        steps = self._gather_steps(gather_reads, eval_site, base)

        eval_step = Step(
            sid=len(steps),
            locality=eval_site,
            kind="eval",
            reads=[
                r
                for r in pre_reads
                if analysis.locality_of_read(r).key() == eval_site.key()
            ],
            test=cond.test,
            mods=merged_mods,
        )
        steps.append(eval_step)

        # Remaining modification groups: gather their values, hop, modify.
        for site, mods in rest_groups:
            g_reads = _dedup_reads([r for m in mods for r in m.reads()])
            local_reads = [
                r for r in g_reads if analysis.locality_of_read(r).key() == site.key()
            ]
            remote_reads = [
                r for r in g_reads if analysis.locality_of_read(r).key() != site.key()
            ]
            for s in self._gather_steps(remote_reads, site, base):
                s.sid = len(steps)
                steps.append(s)
            steps.append(
                Step(
                    sid=len(steps),
                    locality=site,
                    kind="modify",
                    reads=local_reads,
                    mods=list(mods),
                )
            )

        self._plan_folds(steps, base)
        self._plan_liveness(steps, base)
        return CondPlan(
            index=index,
            cond=cond,
            steps=steps,
            merged=merged,
            next_on_false=None,
            next_group=None,
            entry=self.action.input,
        )

    def _gather_steps(
        self, reads: list[PropRead], final_site: Expr, base: set
    ) -> list[Step]:
        """Gather steps visiting the pruned tree; excludes the final site's
        own step (the caller appends eval/modify there)."""
        analysis = self.analysis
        req = required_localities(analysis, reads)
        tree = LocalityTree(analysis, req + [final_site])
        order = tree.euler_walk() if self.mode == "naive" else tree.dfs_order()
        final_key = unalias(final_site).key()
        # The final site is visited by the eval/modify step itself, so a
        # *trailing* gather visit there is redundant.  Earlier visits must
        # stay: they may carry routing reads (e.g. reading prnt[v] at v
        # before hopping to prnt[v] and back).
        while order and order[-1] == final_key:
            order.pop()

        reads_by_loc: dict[tuple, list[PropRead]] = {}
        for r in reads:
            reads_by_loc.setdefault(analysis.locality_of_read(r).key(), []).append(r)

        done_reads: set = set()
        done_routing: set = set(base)
        steps: list[Step] = []
        for key in order:
            node = tree.nodes[key]
            my_reads = [
                r for r in reads_by_loc.get(key, []) if r.key() not in done_reads
            ]
            routing = []
            for child_key in tree.children.get(key, ()):
                child = tree.nodes[child_key]
                if child.key() not in done_routing:
                    routing.append(child)
                    done_routing.add(child.key())
            if self.mode == "optimized" and not my_reads and not routing:
                continue  # nothing to learn here; hop elided at compile time
            for r in my_reads:
                done_reads.add(r.key())
            steps.append(
                Step(
                    sid=len(steps),
                    locality=node,
                    kind="gather",
                    reads=my_reads,
                    routing=routing,
                )
            )
        # Routing values for the final site must be known; _add_path has
        # already ensured its ancestors are in the tree, and the loop above
        # recorded it as some node's child (or it is the root / base).
        return steps

    def _plan_folds(self, steps: list[Step], base: set) -> None:
        """Assign subexpression folds to gather steps (optimized mode)."""
        if self.mode != "optimized":
            return
        # Find the eval step's expressions to fold for.
        targets: list[Expr] = []
        for s in steps:
            if s.kind in ("eval", "modify"):
                if s.test is not None:
                    targets.append(s.test)
                for m in s.mods:
                    if hasattr(m, "value"):  # Assign / AugAdd
                        targets.append(m.value)
                    else:  # ModifyCall
                        targets.extend(m.args)
        available: set = set(base)
        folded: set = set()
        for s in steps:
            if s.kind != "gather":
                # Reads at evaluate/modify steps go into the handler's
                # lock-local environment, not the carried one — they are
                # NOT available to later folds.
                continue
            for r in s.reads:
                available.add(r.key())
            for t in targets:
                for f in _foldable_subexprs(t, available, folded):
                    s.folds.append(f)
                    folded.add(f.key())
                    available.add(f.key())

    def _plan_liveness(self, steps: list[Step], base: set) -> None:
        """Compute live-out env keys per step (what the payload carries).

        A key is live after step k if some later step needs it: as a read
        it performs? no — reads are local; as routing destination; as a
        leaf of a test/mod expression evaluated later; or as a fold input
        not yet folded.  Conservative and per-condition; cross-condition
        reuse is handled by the runtime env (which keeps everything the
        liveness here marks live at the condition's last step: nothing).
        """
        n = len(steps)
        # keys provided by each step
        provides: list[set] = []
        for s in steps:
            p = {r.key() for r in s.reads}
            p |= {r.key() for r in s.routing}
            p |= {f.key() for f in s.folds}
            provides.append(p)

        # keys each step *consumes* from the incoming env
        def expr_leaf_keys(e: Expr, folds_available: set) -> set:
            e = unalias(e)
            if e.key() in folds_available:
                return {e.key()}
            if isinstance(e, PropRead):
                return {e.key()} | expr_leaf_keys(e.index, folds_available)
            from .expr import GenVar, InputVertex

            if isinstance(e, (GenVar, InputVertex)):
                return {e.key()}
            if isinstance(e, (SrcOf, TrgOf)):
                # the endpoint value itself is carried (computed at the
                # generator step); the edge id is not needed downstream
                return {e.key()}
            out: set = set()
            for c in e.children():
                out |= expr_leaf_keys(c, folds_available)
            return out

        folds_so_far: set = set()
        consumes: list[set] = []
        for s in steps:
            c: set = {s.locality.key()}  # routing to this step needs its key
            for f in s.folds:
                c |= expr_leaf_keys(f, folds_so_far)
            if s.test is not None:
                c |= expr_leaf_keys(s.test, folds_so_far | {f.key() for f in s.folds})
            for m in s.mods:
                c |= expr_leaf_keys(m.target.index, folds_so_far)
                if hasattr(m, "value"):  # Assign / AugAdd
                    c |= expr_leaf_keys(m.value, folds_so_far)
                else:  # ModifyCall
                    for a in m.args:
                        c |= expr_leaf_keys(a, folds_so_far)
            # reads performed here consume their index expressions
            for r in s.reads:
                c |= expr_leaf_keys(r.index, folds_so_far)
            consumes.append(c)
            folds_so_far |= {f.key() for f in s.folds}

        for k in range(n - 1, -1, -1):
            # After step k, a key is live iff some later step consumes it
            # before any later step provides it.
            later_consumes: set = set()
            later_provides: set = set()
            for j in range(k + 1, n):
                later_consumes |= consumes[j] - later_provides
                later_provides |= provides[j]
            steps[k].live_out = later_consumes
        # live_in[k]: needed at k or afterwards and not produced at/after k.
        for k in range(n):
            need: set = set()
            provided: set = set()
            for j in range(k, n):
                need |= consumes[j] - provided
                provided |= provides[j]
            steps[k].live_in = need


def compile_action(action: Action, mode: str = "optimized") -> ActionPlan:
    """Compile an action to its communication plan."""
    return Planner(action, mode).compile()
