"""Outside-in tracing: wrap public callables of the program under test.

The benchmark may not edit ``src/`` and does not switch on the runtime's
own ``telemetry="spans"``; instead :class:`Tracer` replaces the attributes
listed in :data:`TABLE` with timing wrappers for the length of a traced
pass and puts the original function objects back afterwards.

Two kinds of record come out of a pass:

* **spans** — coarse calls (solve, algorithm, strategy, epoch, drain,
  probe) kept one by one with their parent's id;
* **aggregates** — per-message callables (send, resolve, coalesce, wire,
  handler, invoke) kept as ``[count, total_ns, self_ns, first_ns]`` per
  layer name, snapshotted into every epoch span as it closes.

Self time is a record's duration minus the time covered by the wrapped
calls made underneath it, so the self times of one pass add up to the
duration of its root span.

The wrappers keep their state in this module's :class:`Tracer` object and
assume one thread runs the program under test (true for the ``sim``
transport and for the parent of the ``process`` transport).  Wrappers that
are installed when the process transport forks are copied into the rank
workers, where they time into a copy of the tables nobody reads.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns as _now

AGG, SPAN, ENTER, EXIT = "agg", "span", "enter", "exit"

#: ``(module, class or None, public attribute, layer name, kind)``.
#: ``ENTER``/``EXIT`` open and close an individual span around a context
#: manager's body; their own run time is aggregated under ``<name>_overhead``.
TABLE = (
    ("repro.patterns.executor", "BoundAction", "invoke", "patterns.invoke", AGG),
    ("repro.runtime.transport", "Transport", "run_handler", "patterns.handler", AGG),
    ("repro.runtime.transport", "Transport", "send", "runtime.send", AGG),
    ("repro.runtime.addressing", "AddressResolver", "resolve", "runtime.resolve", AGG),
    ("repro.runtime.coalescing", "CoalescingLayer", "send", "runtime.coalesce", AGG),
    ("repro.runtime.coalescing", "CoalescingLayer", "send_rows", "runtime.coalesce", AGG),
    ("repro.runtime.coalescing", "CoalescingLayer", "flush", "runtime.coalesce", AGG),
    ("repro.runtime.transport", "Transport", "wire_batch", "runtime.wire", AGG),
    ("repro.runtime.process", "ProcessTransport", "wire_batch", "runtime.wire", AGG),
    ("repro.runtime.sim", "SimTransport", "drain", "runtime.drain", SPAN),
    ("repro.runtime.process", "ProcessTransport", "drain", "runtime.drain", SPAN),
    ("repro.runtime.termination", "OracleDetector", "probe", "runtime.probe", SPAN),
    ("repro.runtime.epoch", "Epoch", "__enter__", "runtime.epoch", ENTER),
    ("repro.runtime.epoch", "Epoch", "__exit__", "runtime.epoch", EXIT),
    # Strategies are module functions; patch the name the algorithm calls.
    ("repro.algorithms.sssp", None, "delta_stepping", "strategies.delta_stepping", SPAN),
    ("repro.algorithms.cc", None, "once", "strategies.once", SPAN),
)


class TraceTableError(RuntimeError):
    """A :data:`TABLE` entry no longer matches the program under test."""


def _resolve(module: str, cls: str | None, attr: str, name: str):
    """The object owning ``attr`` and the function currently stored there."""
    where = f"{module}.{cls + '.' if cls else ''}{attr}"
    try:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        # vars(), not getattr(): an inherited attribute would be patched
        # on the wrong class and a bound method could not be restored.
        original = vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as err:
        raise TraceTableError(
            f"trace table entry {where} (layer {name!r}) no longer exists: {err!r}"
        ) from err
    if not callable(original):
        raise TraceTableError(f"trace table entry {where} (layer {name!r}) is not callable")
    return owner, original


class Tracer:
    """Installs the wrappers and holds what they record for one pass."""

    def __init__(self, table=TABLE) -> None:
        self.table = tuple(table)
        self._patched: list = []  # (owner, attr, original, wrapper)
        #: ``[id, parent id or None, name, start_ns, end_ns, self_ns, extra]``
        self.spans: list = []
        #: layer name -> ``[count, total_ns, self_ns, first_ns]``
        self.agg: dict = {}
        for _m, _c, _a, name, kind in self.table:
            if kind == AGG:
                self.agg.setdefault(name, [0, 0, 0, 0])
            elif kind == ENTER:
                self.agg.setdefault(name + "_overhead", [0, 0, 0, 0])
        self._agg_mark = {k: (0, 0, 0) for k in self.agg}
        self._children: list = []  # child-time accumulator per open record
        self._open: list = []  # ids of the open spans, innermost last

    def reset(self) -> None:
        """Forget the last pass.  Clears in place: the installed wrappers
        hold references to these containers."""
        if self._open:
            raise RuntimeError("reset with spans still open")
        self.spans.clear()
        for key, slot in self.agg.items():
            slot[:] = [0, 0, 0, 0]
            self._agg_mark[key] = (0, 0, 0)

    # -- install / uninstall ----------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        # Resolve everything first: a stale entry must fail by name before
        # any attribute has been replaced.
        resolved = [(_resolve(m, c, a, n), a, n, k) for m, c, a, n, k in self.table]
        for (owner, original), attr, name, kind in resolved:
            wrapper = self._wrap(original, name, kind)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in reversed(self._patched):
            if vars(owner).get(attr) is not wrapper:
                raise RuntimeError(
                    f"{owner.__name__}.{attr} was replaced while traced; "
                    "cannot restore it safely"
                )
            setattr(owner, attr, original)
            assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
        self._patched = []

    # -- spans opened by the benchmark's own code ---------------------------------
    def open_span(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, parent, name, 0, 0, 0, {}])
        self._open.append(sid)
        self._children.append(0)
        self.spans[sid][3] = _now()
        return sid

    def close_span(self) -> list:
        end = _now()
        child = self._children.pop()
        span = self.spans[self._open.pop()]
        span[4] = end
        span[5] = end - span[3] - child
        if self._children:
            self._children[-1] += end - span[3]
        return span

    @contextmanager
    def span(self, name: str):
        self.open_span(name)
        try:
            yield
        finally:
            self.close_span()

    # -- wrappers -------------------------------------------------------------------
    def _wrap(self, original, name: str, kind: str):
        if kind == SPAN:
            return self._wrap_span(original, name)
        if kind == ENTER:
            inner = self._wrap_agg(original, name + "_overhead")

            def enter(*args, **kwargs):
                self.open_span(name)
                try:
                    return inner(*args, **kwargs)
                except BaseException:
                    self.close_span()
                    raise

            return enter
        if kind == EXIT:
            inner = self._wrap_agg(original, name + "_overhead")

            def exit_(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._close_epoch()

            return exit_
        return self._wrap_agg(original, name)

    def _wrap_agg(self, original, name: str):
        children = self._children
        slot = self.agg[name]

        def wrapper(*args, **kwargs):
            children.append(0)
            start = _now()
            try:
                return original(*args, **kwargs)
            finally:
                took = _now() - start
                slot[0] += 1
                slot[1] += took
                slot[2] += took - children.pop()
                if not slot[3]:
                    slot[3] = took
                if children:
                    children[-1] += took

        return wrapper

    def _wrap_span(self, original, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        return wrapper

    def _close_epoch(self) -> None:
        """Close an epoch span, attaching the aggregates accrued inside it."""
        span = self.close_span()
        delta = {}
        for key, slot in self.agg.items():
            c0, t0, s0 = self._agg_mark[key]
            if slot[0] != c0:
                delta[key] = [slot[0] - c0, slot[1] - t0, slot[2] - s0]
            self._agg_mark[key] = (slot[0], slot[1], slot[2])
        span[6]["agg"] = delta

    # -- reading a finished pass ------------------------------------------------------
    def totals(self) -> dict:
        """``name -> {"count", "total_ns", "self_ns", "first_ns"}`` over the
        aggregates and the spans grouped by name."""
        out = {
            name: dict(zip(("count", "total_ns", "self_ns", "first_ns"), slot))
            for name, slot in self.agg.items()
        }
        for _sid, _parent, name, start, end, self_ns, _extra in self.spans:
            row = out.setdefault(
                name, {"count": 0, "total_ns": 0, "self_ns": 0, "first_ns": end - start}
            )
            row["count"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += self_ns
        return out

    def span_records(self) -> list:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "self_ns")
        return [dict(zip(keys, s[:6]), **s[6]) for s in self.spans]
