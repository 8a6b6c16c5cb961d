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
    BoolOp,
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

    Fusion executes the generator fan-out *and* the eval step's
    compare-and-assign in one pass at the source rank for every rank-local
    neighbour, so those edges send no message.  It is legal when the plan
    matched :class:`~repro.patterns.planner.Extremum` with a source-local
    candidate: building the candidate needs no extra hop, and a confluent
    update applied inline instead of through a message leaves the final
    map and the dependent-vertex set unchanged under any delivery order —
    the argument that makes the vector scatter legal, extended across the
    message boundary.
    """

    fusable: bool
    reason: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.fusable


def is_source_local(expr: Expr, generator_source: str) -> bool:
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
    if isinstance(expr, (BinOp, Compare, BoolOp, Call)):
        return all(is_source_local(c, generator_source) for c in expr.children())
    return False


def fusion_report(plan) -> FusionReport:
    """Fusion legality for an :class:`~repro.patterns.planner.ActionPlan`.

    A reader of the planner's one decision, ``plan.confluence``: the round
    fuses when the action is an extremum update whose candidate is
    source-local.  A sum never fuses: applying rank-local rows inline
    would move them ahead of remote rows delivered earlier, and float
    addition does not associate.  The vector tier additionally requires
    the bound maps to be numeric (checked at bind time by the
    vector-shape recognizer).
    """
    m = plan.confluence
    if m is None:
        return FusionReport(False, plan.confluence_reason)
    if m.kind != "extremum":
        return FusionReport(False, f"a {m.kind} update is order-sensitive")
    if not m.source_local:
        return FusionReport(False, "candidate must be computable at the input vertex")
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
