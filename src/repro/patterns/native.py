"""Native codegen tier (``fast_path="native"``): fused per-schema kernels.

The vector tier (:mod:`repro.patterns.fastpath`) interprets a recognized
plan shape through a fixed set of closures — one ``np.minimum.at`` here,
one numpy closure per carried column there.  This module instead *generates a
Python module* specialized on the (pattern shape, property dtypes, wire
schema) triple and loads it through the two-level kernel cache
(:mod:`repro.patterns.kernelcache`).  The generated module defines
``make(jit)`` returning three kernels:

``fanout``
    Multi-source generator fan-out: given a batch of start vertices, one
    call produces the target vertex of every generated edge plus every
    carried payload column (candidate values included), evaluated
    directly over the rank's CSR and property backing arrays.
``scatter``
    The merged eval+modify loop: in-place compare-and-update of the
    target map with the exact changed-mask semantics of
    ``scatter_extremum``.
``collect``
    Dependent-set collection (unique changed destinations).

Two backends share the generated source.  Under ``native_backend="jit"``
``make`` receives ``numba.njit(cache=True)`` and the loop-form kernels
compile to machine code (persisted next to the cached module, so a second
process skips the JIT).  Under ``"interp"`` ``make`` receives ``None``
and the vectorized-numpy forms run — same values, no numba dependency;
this keeps the whole native tier testable where numba is absent.

**Fusion.**  When :func:`repro.patterns.locality.fusion_report` proves
the plan's gather -> evaluate pair legal to fuse (source-local candidate
plus confluent extremum update), the executor applies rank-local edges
inline from the fanout output — no message at all — and only remote
edges travel the wire, as the same column batches the vector tier sends
(``BoundAction._send_columns``); ``ActionPlan.static_message_count(fused=True)``
reflects the collapsed round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from ..props.property_map import EdgePropertyMap, VertexPropertyMap
from .expr import (
    EDGE,
    BinOp,
    Call,
    Const,
    Expr,
    GenVar,
    InputVertex,
    PropRead,
    unalias,
)
from .fastpath import _INPUT_VALUE, VectorPlan
from .kernelcache import CODEGEN_VERSION, cache_key, load_kernels
from .locality import fusion_report


def get_njit():
    """The ``numba.njit(cache=True)`` decorator, or ``None`` without numba."""
    try:
        import numba
    except ImportError:
        return None
    return numba.njit(cache=True)


@dataclass
class NativePlan:
    """A vector-shaped plan lowered to generated kernels."""

    vector: VectorPlan
    spec: dict  # canonical kernel spec (the cache key's preimage)
    key: str  # content-hash cache key
    origin: str  # "memory" | "disk" | "compile"
    backend: str  # "jit" | "interp"
    fused: bool  # gather->evaluate fusion proven legal
    kernels: dict  # fanout / scatter / collect
    vmaps: list  # VertexPropertyMap args, in V0.. order
    emaps: list  # EdgePropertyMap args, in E0.. order


# ---------------------------------------------------------------------------
# Expression lowering: Expr -> generated source fragments
# ---------------------------------------------------------------------------


@dataclass
class _Col:
    vec: str  # array-form source over (srcl, flat, reps) index arrays
    loop: str  # scalar-form source at (i, l, e) inside the fan-out loop
    dtok: object  # dtype token: np.dtype, or a python scalar (weak, NEP 50)
    is_const: bool


def _const_src(v) -> Optional[str]:
    if isinstance(v, bool):
        return repr(v)
    if isinstance(v, int):
        return repr(v)
    if isinstance(v, float):
        if math.isnan(v):
            return "np.nan"
        if math.isinf(v):
            return "np.inf" if v > 0 else "-np.inf"
        return repr(v)
    return None


class _Lowering:
    """Lowers source-local expressions to kernel source, collecting the
    property-map arguments the generated kernels will take."""

    def __init__(self, bound, generator: str) -> None:
        self.bound = bound
        self.generator = generator
        self.vmaps: list = []
        self.emaps: list = []
        self._vslot: dict[int, int] = {}  # id(map) -> V index
        self._eslot: dict[int, int] = {}

    @property
    def vdtypes(self) -> list[str]:
        return [np.dtype(m.dtype).name for m in self.vmaps]

    @property
    def edtypes(self) -> list[str]:
        return [np.dtype(m.dtype).name for m in self.emaps]

    def lower_input(self) -> _Col:
        return _Col("vglob[reps]", "vglob[i]", np.dtype(np.int64), False)

    def lower(self, expr: Expr) -> Optional[_Col]:
        expr = unalias(expr)
        if isinstance(expr, Const):
            src = _const_src(expr.value)
            if src is None:
                return None
            return _Col(src, src, expr.value, True)
        if isinstance(expr, PropRead):
            pm = self.bound.maps.get(expr.decl.name)
            if pm is None or pm.dtype is object or pm.dtype == "object":
                return None
            idx = unalias(expr.index)
            if isinstance(idx, InputVertex) and isinstance(pm, VertexPropertyMap):
                k = self._vslot.setdefault(id(pm), len(self.vmaps))
                if k == len(self.vmaps):
                    self.vmaps.append(pm)
                return _Col(f"V{k}[srcl]", f"V{k}[l]", np.dtype(pm.dtype), False)
            if (
                self.generator == "out_edges"
                and isinstance(idx, GenVar)
                and idx.kind == EDGE
                and isinstance(pm, EdgePropertyMap)
            ):
                k = self._eslot.setdefault(id(pm), len(self.emaps))
                if k == len(self.emaps):
                    self.emaps.append(pm)
                return _Col(f"E{k}[flat]", f"E{k}[e]", np.dtype(pm.dtype), False)
            return None
        if isinstance(expr, BinOp):
            left = self.lower(expr.left)
            right = self.lower(expr.right)
            if left is None or right is None:
                return None
            dt = np.result_type(left.dtok, right.dtok)
            if expr.op == "/" and dt.kind in "bui":
                dt = np.dtype(np.float64)  # true division promotes to float
            return _Col(
                f"({left.vec} {expr.op} {right.vec})",
                f"({left.loop} {expr.op} {right.loop})",
                dt,
                left.is_const and right.is_const,
            )
        if isinstance(expr, Call):
            args = [self.lower(a) for a in expr.args]
            if any(a is None for a in args) or not args:
                return None
            if expr.fn_name == "abs" and len(args) == 1:
                (a,) = args
                return _Col(
                    f"np.abs({a.vec})", f"abs({a.loop})", a.dtok, a.is_const
                )
            if expr.fn_name in ("min", "max") and len(args) >= 2:
                vec_fn = "np.minimum" if expr.fn_name == "min" else "np.maximum"
                vec = args[0].vec
                loop = args[0].loop
                for a in args[1:]:
                    vec = f"{vec_fn}({vec}, {a.vec})"
                    loop = f"{expr.fn_name}({loop}, {a.loop})"
                dt = np.result_type(*[a.dtok for a in args])
                return _Col(vec, loop, dt, all(a.is_const for a in args))
            return None
        return None


def _dtype_attr(name: str) -> str:
    """numpy dtype name -> ``np.<attr>`` spelled for generated source."""
    return {"bool": "bool_"}.get(name, name)


# ---------------------------------------------------------------------------
# Module source generation
# ---------------------------------------------------------------------------


def generate_source(spec: dict) -> str:
    """Emit the kernel module for one canonical spec.

    The module is pure generated text: every schema-dependent quantity —
    column expressions, dtypes, the comparison direction — is baked in as
    a literal, so both backends run straight-line specialized code.  (The
    payload layout — slot ids, eval step index — stays in the spec as part
    of the wire schema the kernels were generated against; rows leave as
    columns, :meth:`~repro.patterns.fastpath.VectorPlan.payload_columns`.)
    """
    ncols = len(spec["cols"])
    nv, ne = len(spec["vdtypes"]), len(spec["edtypes"])
    props = [f"V{i}" for i in range(nv)] + [f"E{i}" for i in range(ne)]
    sig = ", ".join(["locs", "vglob", "indptr", "targets"] + props)
    cvars = [f"c{i}" for i in range(ncols)]
    ret = ", ".join(["t"] + cvars)
    cmp = "<" if spec["minimize"] else ">"
    ext = "np.minimum" if spec["minimize"] else "np.maximum"
    dts = [_dtype_attr(d) for d in spec["col_dtypes"]]

    out: list[str] = []
    a = out.append
    a(f"# Generated by repro.patterns.native - codegen v{CODEGEN_VERSION}.")
    a("# Specialized on one (pattern shape, property dtypes, wire schema);")
    a("# regenerated whenever the spec hash changes.  Do not edit.")
    a("import numpy as np")
    a("")
    a("")
    a("def make(jit):")
    # -- fan-out: vectorized form (interp backend) ------------------------
    a(f"    def fanout_vec({sig}):")
    a("        starts = indptr[locs]")
    a("        counts = indptr[locs + 1] - starts")
    a("        total = int(counts.sum())")
    a("        reps = np.repeat(np.arange(locs.shape[0]), counts)")
    a("        cum = np.cumsum(counts) - counts")
    a("        flat = np.arange(total) + np.repeat(starts - cum, counts)")
    a("        srcl = locs[reps]")
    a("        t = targets[flat]")
    for i, (src, dt, const) in enumerate(
        zip(spec["cols"], dts, spec["col_const"])
    ):
        if const:
            a(f"        c{i} = np.full(total, {src}, dtype=np.{dt})")
        else:
            a(f"        c{i} = np.asarray({src}, dtype=np.{dt})")
    a(f"        return {ret}")
    a("")
    # -- fan-out: loop form (jit backend) ---------------------------------
    a(f"    def fanout_loop({sig}):")
    a("        k = locs.shape[0]")
    a("        total = 0")
    a("        for i in range(k):")
    a("            total += indptr[locs[i] + 1] - indptr[locs[i]]")
    a("        t = np.empty(total, dtype=np.int64)")
    for i, dt in enumerate(dts):
        a(f"        c{i} = np.empty(total, dtype=np.{dt})")
    a("        p = 0")
    a("        for i in range(k):")
    a("            l = locs[i]")
    a("            for e in range(indptr[l], indptr[l + 1]):")
    a("                t[p] = targets[e]")
    for i, src in enumerate(spec["cols_loop"]):
        a(f"                c{i}[p] = {src}")
    a("                p += 1")
    a(f"        return {ret}")
    a("")
    # -- extremum scatter --------------------------------------------------
    a("    def scatter_vec(arr, idx, vals):")
    a("        before = arr[idx]")
    a(f"        {ext}.at(arr, idx, vals)")
    a(f"        return arr[idx] {cmp} before")
    a("")
    a("    def scatter_loop(arr, idx, vals):")
    a("        before = arr[idx]")
    a("        for i in range(idx.shape[0]):")
    a("            j = idx[i]")
    a(f"            if vals[i] {cmp} arr[j]:")
    a("                arr[j] = vals[i]")
    a(f"        return arr[idx] {cmp} before")
    a("")
    # -- dependent-set collection -----------------------------------------
    a("    def collect(dv, changed):")
    a("        return np.unique(dv[changed])")
    a("")
    a("    if jit is not None:")
    a("        fanout = jit(fanout_loop)")
    a("        scatter = jit(scatter_loop)")
    a("    else:")
    a("        fanout = fanout_vec")
    a("        scatter = scatter_vec")
    a('    return {"fanout": fanout, "scatter": scatter, "collect": collect}')
    a("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def build_native_plan(ba) -> Optional[NativePlan]:
    """Lower a bound action's recognized vector shape to native kernels.

    Returns ``None`` when the shape was not recognized or a carried value
    falls outside the lowerable fragment — the executor then stays on the
    vector/compiled path (counted as ``repro_native_fallbacks``).
    """
    vp = ba.vector_plan
    if vp is None:
        return None
    machine = ba.bound.machine
    backend = machine.native_backend or "interp"
    jit = get_njit() if backend == "jit" else None
    if backend == "jit" and jit is None:  # pragma: no cover - machine validates
        return None
    low = _Lowering(ba.bound, vp.generator)
    cols: list[_Col] = []
    for _slot, src_e in vp.carry_exprs:
        c = low.lower_input() if src_e is _INPUT_VALUE else low.lower(src_e)
        if c is None:
            return None
        cols.append(c)
    spec = {
        "kind": "extremum_fanout",
        "generator": vp.generator,
        "minimize": bool(vp.minimize),
        "esi": int(vp.eval_si),
        "slots": [int(s) for s in vp.slot_sig],
        "cand_col": int(vp.cand_col),
        "target_dtype": np.dtype(vp.target_map.dtype).name,
        "vdtypes": low.vdtypes,
        "edtypes": low.edtypes,
        "cols": [c.vec for c in cols],
        "cols_loop": [c.loop for c in cols],
        "col_dtypes": [np.result_type(c.dtok).name for c in cols],
        "col_const": [bool(c.is_const) for c in cols],
    }
    t0 = perf_counter()
    kernels, origin = load_kernels(spec, generate_source, jit, stats=machine.stats)
    if origin == "compile":
        machine.stats.count_native("jit_seconds", perf_counter() - t0)
    machine.flight.record(
        "kernel_compile", key=cache_key(spec), origin=origin
    )
    return NativePlan(
        vector=vp,
        spec=spec,
        key=cache_key(spec),
        origin=origin,
        backend=backend,
        fused=fusion_report(ba.plan).fusable,
        kernels=kernels,
        vmaps=low.vmaps,
        emaps=low.emaps,
    )
