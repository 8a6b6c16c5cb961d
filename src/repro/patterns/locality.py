"""Locality analysis (paper Definition 1) and the dependency graph of
localities (Definition 2).

    Definition 1 (Locality).  The locality of any value used in a pattern
    is described by the vertex that it is accessed at.  The locality of
    the input vertex v, the generated edges e, and of the generated
    vertices u is the vertex v.  The locality of a vertex or edge
    property access p(x) is x if x is a vertex, and the locality of x if
    x is an edge.  The locality of the special functions trg and src is
    the locality of the edge they are applied to.

    Definition 2 (Dependency Graph).  A directed edge (v1, v2) is added
    between values v1 and v2 if v1 is the locality of v2.

Localities are themselves vertex-valued expressions (``v``, ``trg(e)``,
``prnt[v]``, ``chg[prnt[v]]``, ...), canonicalized by structural key.
Because every locality's defining value has exactly one locality, the
dependency graph restricted to localities is a *tree* rooted at the input
vertex — the paper's "depth-first communication tree".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import PlanningError
from .expr import (
    EDGE,
    VERTEX,
    BinOp,
    Call,
    Compare,
    Const,
    Expr,
    GenVar,
    InputVertex,
    PropRead,
    SrcOf,
    TrgOf,
    unalias,
)

if TYPE_CHECKING:  # pragma: no cover
    from .action import Action


class LocalityAnalysis:
    """Locality queries for one action."""

    def __init__(self, action: "Action") -> None:
        self.action = action
        self.input = action.input

    # -- Definition 1 -------------------------------------------------------
    def locality_of_value(self, expr: Expr) -> Optional[Expr]:
        """The vertex expression at which ``expr``'s value is accessed.

        ``None`` for constants (available everywhere).
        """
        expr = unalias(expr)
        if isinstance(expr, Const):
            return None
        if isinstance(expr, InputVertex):
            return expr
        if isinstance(expr, GenVar):
            # generated edges and vertices are produced at the input vertex
            return self.input
        if isinstance(expr, (SrcOf, TrgOf)):
            return self.locality_of_value(expr.edge)
        if isinstance(expr, PropRead):
            idx = unalias(expr.index)
            if idx.kind == VERTEX:
                return idx
            if idx.kind == EDGE:
                return self.locality_of_value(idx)
            raise PlanningError(f"property index of unexpected kind: {idx!r}")
        raise PlanningError(
            f"{expr!r} is not a single value with a locality; decompose it "
            "into property reads first"
        )

    def locality_of_read(self, read: PropRead) -> Expr:
        loc = self.locality_of_value(read)
        assert loc is not None
        return loc

    # -- Definition 2 ----------------------------------------------------------
    def parent_locality(self, loc: Expr) -> Optional[Expr]:
        """The locality at which ``loc``'s own vertex value is learned.

        The root (input vertex) has no parent.
        """
        loc = unalias(loc)
        if loc.kind != VERTEX:
            raise PlanningError(f"localities are vertex-valued; got {loc!r}")
        parent = self.locality_of_value(loc)
        if parent is None or parent.key() == loc.key():
            return None
        return parent


class LocalityTree:
    """The pruned depth-first communication tree for a set of required
    localities (paper Sec. IV-A, step 2: "the depth-first communication
    tree is pruned of edges that are not contained in a path to a
    required locality").
    """

    def __init__(self, analysis: LocalityAnalysis, required: list[Expr]) -> None:
        self.analysis = analysis
        self.nodes: dict[tuple, Expr] = {}  # key -> representative expr
        self.parent: dict[tuple, Optional[tuple]] = {}
        self.children: dict[tuple, list[tuple]] = {}
        self.required: list[tuple] = []
        self.root_key: Optional[tuple] = None
        for loc in required:
            self._add_path(loc)
            k = unalias(loc).key()
            if k not in self.required:
                self.required.append(k)
        if self.root_key is None:
            # no reads at all: the tree is just the input vertex
            self._add_path(analysis.input)

    def _add_path(self, loc: Expr) -> None:
        """Insert ``loc`` and all its ancestors up to the root."""
        loc = unalias(loc)
        key = loc.key()
        if key in self.nodes:
            return
        self.nodes[key] = loc
        parent = self.analysis.parent_locality(loc)
        if parent is None:
            self.parent[key] = None
            if self.root_key is not None and self.root_key != key:
                raise PlanningError(
                    "multiple roots in locality tree (action uses vertices "
                    "unreachable from its input vertex)"
                )
            self.root_key = key
            self.children.setdefault(key, [])
            return
        self._add_path(parent)
        pkey = unalias(parent).key()
        self.parent[key] = pkey
        self.children.setdefault(pkey, []).append(key)
        self.children.setdefault(key, [])

    # -- traversals -----------------------------------------------------------
    def dfs_order(self) -> list[tuple]:
        """All tree nodes in depth-first pre-order (children in insertion
        order, i.e. order of first appearance in the action text)."""
        order: list[tuple] = []

        def go(k: tuple) -> None:
            order.append(k)
            for c in self.children.get(k, ()):
                go(c)

        assert self.root_key is not None
        go(self.root_key)
        return order

    def euler_walk(self) -> list[tuple]:
        """Depth-first walk *with backtracking through parents*, visiting
        every node; consecutive entries are always parent/child pairs.
        This is the paper's naive gather order (Fig. 5's 8 messages).

        The walk does not return to the root after the last subtree — the
        final evaluate hop leaves from wherever gathering ended.
        """
        walk: list[tuple] = []

        def go(k: tuple) -> None:
            walk.append(k)
            kids = self.children.get(k, ())
            for i, c in enumerate(kids):
                go(c)
                # return to k only to branch into another sibling subtree
                if i < len(kids) - 1:
                    walk.append(k)

        assert self.root_key is not None
        go(self.root_key)
        return walk

    def depth(self, key: tuple) -> int:
        d = 0
        k: Optional[tuple] = key
        while self.parent.get(k) is not None:
            k = self.parent[k]
            d += 1
        return d

    def pretty(self) -> str:
        lines = []

        def go(k: tuple, indent: int) -> None:
            mark = "*" if k in self.required else " "
            lines.append("  " * indent + mark + " " + self.nodes[k].pretty())
            for c in self.children.get(k, ()):
                go(c, indent + 1)

        if self.root_key is not None:
            go(self.root_key, 0)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fusion legality (vector fast path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusionReport:
    """Whether a plan's gather -> evaluate pair may be fused
    (``fast_path="vector"``), and why not when it may not.

    Fusion executes the generator fan-out *and* the eval-step's
    compare-and-assign in a single pass at the source rank
    for every generated neighbour that is rank-local — collapsing the
    gather -> evaluate message round to zero messages for those edges.
    Legality requires two properties, both provable statically:

    1. **Source-local gather**: every value the eval step consumes
       (the candidate) is computable from data at the input vertex or on
       the generated edge, so no extra hop is needed to build it.
    2. **Confluent update**: the eval step is a merged extremum
       compare-and-assign (``p[t] = cand if cand < p[t]``, or ``>``).
       Such updates commute and are idempotent, so applying a rank-local
       edge inline instead of through a message cannot change the final
       map or the dependent-vertex set (``{t : final[t] != initial[t]}``)
       under any delivery order — the same argument that makes the
       vector scatter legal, extended across the message boundary.
    """

    fusable: bool
    reason: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.fusable


def _source_local(expr: Expr, generator_source: str) -> bool:
    """True when ``expr`` is computable at the input vertex (Definition 1):
    constants, properties of the input vertex, properties of the generated
    edge (the edge is produced at the input vertex), and pure arithmetic
    over those."""
    expr = unalias(expr)
    if isinstance(expr, Const):
        return True
    if isinstance(expr, InputVertex):
        return True
    if isinstance(expr, GenVar):
        # generated edges/vertices are produced at the input vertex
        return True
    if isinstance(expr, PropRead):
        idx = unalias(expr.index)
        if isinstance(idx, InputVertex):
            return True
        if (
            generator_source == "out_edges"
            and isinstance(idx, GenVar)
            and idx.kind == EDGE
        ):
            return True
        return False
    if isinstance(expr, (BinOp, Compare)):
        return _source_local(expr.left, generator_source) and _source_local(
            expr.right, generator_source
        )
    if isinstance(expr, Call):
        return all(_source_local(a, generator_source) for a in expr.args)
    return False


def fusion_report(plan) -> FusionReport:
    """Structural fusion legality for an :class:`~repro.patterns.planner.ActionPlan`.

    This is the planner-level half of the decision (shape only); the
    vector tier additionally requires the bound property maps to be
    numeric (checked at bind time by the vector-shape recognizer).
    """

    def no(reason: str) -> FusionReport:
        return FusionReport(False, reason)

    if plan.mode != "optimized" or len(plan.cond_plans) != 1:
        return no("needs optimized mode with a single condition")
    cp = plan.cond_plans[0]
    if not cp.merged or cp.next_on_false is not None or cp.next_group is not None:
        return no("eval and modify must merge with no else branch")
    gen = plan.action.generator
    if gen is None or not gen.is_builtin or gen.source not in ("out_edges", "adj"):
        return no("needs a builtin out_edges/adj generator")
    steps = cp.steps
    eval_steps = [i for i, s in enumerate(steps) if s.kind == "eval"]
    if len(eval_steps) != 1 or eval_steps[0] != len(steps) - 1:
        return no("needs exactly one eval step, last")
    input_key = plan.action.input.key()
    for s in steps[: eval_steps[0]]:
        if s.kind != "gather" or unalias(s.locality).key() != input_key:
            return no("pre-eval gathers must all run at the input vertex")
    eval_step = steps[eval_steps[0]]
    neighbour = TrgOf(gen.var) if gen.source == "out_edges" else gen.var
    if unalias(eval_step.locality).key() != neighbour.key():
        return no("eval must run at the generated neighbour")
    test = unalias(eval_step.test) if eval_step.test is not None else None
    if not isinstance(test, Compare) or test.op not in ("<", "<=", ">", ">="):
        return no("test must be an ordering comparison")
    left, right = unalias(test.left), unalias(test.right)

    def is_target_read(e: Expr) -> bool:
        return isinstance(e, PropRead) and unalias(e.index).key() == neighbour.key()

    if is_target_read(right) and not is_target_read(left):
        target_read, cand = right, left
    elif is_target_read(left) and not is_target_read(right):
        target_read, cand = left, right
    else:
        return no("test must compare a neighbour property against a candidate")
    if not _source_local(cand, gen.source):
        return no("candidate must be computable at the input vertex")
    mods = eval_step.mods
    if len(mods) != 1 or type(mods[0]).__name__ != "Assign":
        return no("needs a single assignment modification")
    mod = mods[0]
    if (
        mod.target.key() != target_read.key()
        or unalias(mod.value).key() != unalias(cand).key()
    ):
        return no("assignment must install the compared candidate (extremum)")
    return FusionReport(True, "source-local candidate + confluent extremum update")


def required_localities(
    analysis: LocalityAnalysis, reads: list[PropRead]
) -> list[Expr]:
    """Distinct localities of ``reads`` in first-appearance order."""
    seen: dict[tuple, Expr] = {}
    for r in reads:
        loc = analysis.locality_of_read(r)
        k = unalias(loc).key()
        if k not in seen:
            seen[k] = unalias(loc)
    return list(seen.values())
