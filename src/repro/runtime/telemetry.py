"""Causal telemetry: span-based tracing for the active-message runtime.

The paper reasons about synthesized communication with message diagrams
(Sec. IV-A, Figs. 5-6): a gather chain walked depth-first, then an
evaluate message.  This module reconstructs exactly that view from live
runs: every logical message becomes a **span** carrying a trace id and a
parent span id, every handler invocation becomes a child span of the
message that caused it, and driver injections root new traces — so one
``relax`` invocation's gather -> gather -> evaluate chain appears as a
span tree isomorphic to the planner's dependency-graph-derived plan.

Design constraints (and how they are met):

* **Zero-cost when off.**  ``Machine(telemetry="off")`` (the default)
  leaves one attribute load + branch per logical send / wire envelope /
  delivery on the hot path; nothing is allocated.
* **Bit-identical runs.**  Tracing never changes payloads, statistics,
  scheduling or results: trace context rides in an ``Envelope.trace``
  side slot (ignored by ``__eq__``/``repr``) and in a pending-payload
  side table between the logical send and the wire, so the interpreted
  walk remains the oracle that traced runs are identical to untraced.
* **Causality survives the machinery.**  Context is propagated across
  coalescing (per-payload, through the layer buffer), reduction combines
  (the surviving payload inherits a combined-away span's context),
  caching drops (the message span is marked suppressed), hypercube
  forwards (the envelope is forwarded whole), reliable-delivery retries
  and chaos duplicates (same envelope object -> same context), and chaos
  splits (the trace tuple is sliced alongside the payload halves).
* **Three levels.**  ``off`` | ``counters`` (phase duration/count
  aggregates only — Prometheus food) | ``spans`` (full span records in a
  bounded ring buffer with per-trace sampling).

Span kinds
----------
``msg``     one logical message on the wire (t0 = send, t1 = delivery);
            parent = the handler/batch span that sent it (None for roots).
``handle``  one handler execution for one logical payload; parent = the
            ``msg`` span that was delivered.  Under a vectorized batch
            handler these are zero-duration logical markers whose
            ``via`` arg names the physical ``batch`` span.
``batch``   one batch-handler *call*, which may cover several merged
            coalesced envelopes; ``links`` lists the msg spans of every
            envelope it ran (a batch span has many causal predecessors,
            so it carries links rather than a single parent).
``phase``   per-rank runtime phases: epoch, inject, drain, flush, probe.
``event``   zero-duration instants: chaos faults, retransmissions.

Exports live in :mod:`repro.analysis.telemetry_export` (Chrome-trace /
Perfetto JSON, Prometheus text) and
:mod:`repro.analysis.critical_path` (per-epoch longest causal chain).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Optional

from .chaos import derive_rng

#: Valid values for ``Machine(telemetry=...)`` / ``TelemetryConfig.level``.
LEVELS = ("off", "counters", "spans")

#: Phase names recorded by the runtime (see module docstring).
PHASES = (
    "epoch",
    "inject",
    "drain",
    "flush",
    "probe",
    "handler",
    "retry",
    "snapshot",
    "restore",
)

#: Sentinel pushed on the context stack while executing work whose trace
#: was sampled out: descendants are dropped too, keeping trees closed.
_DROPPED = object()


@dataclass(frozen=True)
class TelemetryConfig:
    """Telemetry knobs.

    ``sample`` applies per *trace* (per root injection), not per span:
    a sampled-out root suppresses its whole causal tree, so recorded
    trees are always complete — no orphan spans from partial sampling.
    """

    level: str = "spans"
    capacity: int = 1 << 16  # ring buffer size (spans); oldest evicted
    sample: float = 1.0  # probability a new trace is recorded
    seed: int = 0  # sampling stream seed (derive_rng(seed, "telemetry"))

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"unknown telemetry level {self.level!r}; use {LEVELS}")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= self.sample <= 1.0:
            raise ValueError("sample must be in [0, 1]")


class Span:
    """One recorded span.  Mutable: ``t1``/``args`` are filled in later."""

    __slots__ = ("sid", "parent", "trace", "kind", "name", "rank", "epoch",
                 "t0", "t1", "links", "args")

    def __init__(self, sid: int, parent: Optional[int], trace: Optional[int],
                 kind: str, name: str, rank: int, epoch: int, t0: float,
                 links: Optional[list] = None, args: Optional[dict] = None) -> None:
        self.sid = sid
        self.parent = parent
        self.trace = trace
        self.kind = kind
        self.name = name
        self.rank = rank
        self.epoch = epoch
        self.t0 = t0
        self.t1: Optional[float] = None
        self.links = links
        self.args = args

    @property
    def duration(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Span({self.sid}, {self.kind}:{self.name}, rank={self.rank}, "
                f"parent={self.parent}, trace={self.trace})")


class _Phase:
    """Reusable, exception-safe phase scope (cheap context manager)."""

    __slots__ = ("tel", "name", "rank", "span", "t0")

    def __init__(self, tel: "Telemetry", name: str, rank: int) -> None:
        self.tel = tel
        self.name = name
        self.rank = rank
        self.span: Optional[Span] = None
        self.t0 = 0.0

    def __enter__(self) -> "_Phase":
        tel = self.tel
        self.t0 = perf_counter()
        if tel.spans_on:
            self.span = tel._begin("phase", self.name, self.rank,
                                   parent=None, trace=None)
            tel._stack().append(self.span)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tel = self.tel
        if self.span is not None:
            st = tel._stack()
            if st and st[-1] is self.span:
                st.pop()
            tel._end(self.span)
        tel._count_phase(self.name, self.rank, perf_counter() - self.t0)


class Telemetry:
    """Per-machine telemetry hub.

    Always installed (``machine.telemetry``); its ``level`` decides how
    much it records.  Wire observers (used by
    :class:`~repro.analysis.tracing.MessageTracer`) are independent of
    the level: they see every wire envelope exactly once, whether or not
    spans are being recorded.
    """

    def __init__(self, machine=None,
                 config: Optional[TelemetryConfig] = None) -> None:
        self.machine = machine
        self.config = config or TelemetryConfig(level="off")
        level = self.config.level
        #: True at level "spans": record span trees + propagate context.
        self.spans_on: bool = level == "spans"
        #: True at "counters" or "spans": aggregate phase counters.
        self.enabled: bool = level != "off"
        self.level = level
        #: Wire observers: ``fn(mtype, src, dest, payload, batch)``.
        self.wire_obs: list = []
        # ring buffer of spans + bookkeeping
        from collections import deque

        self.spans: "deque[Span]" = deque(maxlen=self.config.capacity)
        self.evicted = 0  # spans pushed out of the ring buffer
        self.sampled_out = 0  # whole traces dropped by sampling
        #: phase counters: (phase, rank) -> [invocations, seconds]
        self.phase_counters: dict[tuple[str, int], list] = {}
        # pending context between logical send and the wire:
        # id(payload) -> (payload pin, msg Span | None)
        self._pending: dict[int, tuple] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._sid = 1
        self._next_trace = 1
        self._rng = derive_rng(self.config.seed, "telemetry")
        self.t_start = perf_counter()

    # -- context stack (per OS thread) -----------------------------------------
    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = []
            self._tls.stack = st
        return st

    def current(self) -> Optional[Span]:
        """The innermost active span on this thread (None outside spans)."""
        st = self._stack()
        top = st[-1] if st else None
        return top if isinstance(top, Span) else None

    def annotate(self, **kw) -> None:
        """Attach key/value args to the innermost active span (no-op when
        nothing is active or spans are off)."""
        top = self.current()
        if top is not None:
            if top.args is None:
                top.args = {}
            top.args.update(kw)

    # -- span primitives --------------------------------------------------------
    def _epoch_index(self) -> int:
        m = self.machine
        return len(m.stats.epochs) if m is not None else 0

    def _begin(self, kind: str, name: str, rank: int, parent: Optional[int],
               trace: Optional[int], links: Optional[list] = None,
               args: Optional[dict] = None) -> Span:
        now = perf_counter()
        with self._lock:
            sid = self._sid
            self._sid += 1
            sp = Span(sid, parent, trace, kind, name, rank,
                      self._epoch_index(), now, links, args)
            if len(self.spans) == self.spans.maxlen:
                self.evicted += 1
            self.spans.append(sp)
        return sp

    @staticmethod
    def _end(sp: Span) -> None:
        sp.t1 = perf_counter()

    # -- phases ---------------------------------------------------------------
    def phase(self, name: str, rank: int = -1) -> _Phase:
        return _Phase(self, name, rank)

    def _count_phase(self, name: str, rank: int, seconds: float) -> None:
        with self._lock:
            c = self.phase_counters.setdefault((name, rank), [0, 0.0])
            c[0] += 1
            c[1] += seconds

    def event(self, name: str, rank: int = -1,
              args: Optional[dict] = None) -> None:
        """Zero-duration instant (chaos fault, retransmission, ...)."""
        self._count_phase(name, rank, 0.0)
        if self.spans_on:
            sp = self._begin("event", name, rank, parent=None, trace=None,
                             args=args)
            sp.t1 = sp.t0

    # -- epoch scope (single active epoch per machine) ---------------------------
    def epoch_begin(self) -> None:
        if not self.enabled:
            return
        ph = _Phase(self, "epoch", -1)
        ph.__enter__()
        self._tls.epoch_phase = ph

    def epoch_end(self) -> None:
        if not self.enabled:
            return
        ph = getattr(self._tls, "epoch_phase", None)
        if ph is not None:
            self._tls.epoch_phase = None
            ph.__exit__(None, None, None)

    # -- logical send (Transport.send) ---------------------------------------------
    def on_send(self, mtype, src: int, dest: int, payload: tuple) -> None:
        """Create this logical message's span; called once per send."""
        st = self._stack()
        top = st[-1] if st else None
        if top is _DROPPED:
            self._register(payload, None)
            return
        if isinstance(top, Span) and top.kind not in ("phase", "event"):
            parent, trace = top.sid, top.trace
        else:
            # Root send (driver inject or send outside any handler):
            # sampling decides whether this whole trace is recorded.
            with self._lock:
                keep = (self.config.sample >= 1.0
                        or self._rng.random() < self.config.sample)
                if keep:
                    trace = self._next_trace
                    self._next_trace += 1
            if not keep:
                self.sampled_out += 1
                self._register(payload, None)
                return
            parent = top.sid if isinstance(top, Span) else None
        sp = self._begin("msg", mtype.name, src, parent, trace,
                         args={"dest": dest, "slots": len(payload)})
        self._register(payload, sp)

    def _register(self, payload: tuple, span: Optional[Span]) -> None:
        with self._lock:
            self._pending[id(payload)] = (payload, span)

    def wire_context(self, payload: tuple) -> Optional[Span]:
        """Pop a payload's pending msg span at wire time (may be None)."""
        with self._lock:
            ent = self._pending.pop(id(payload), None)
        return ent[1] if ent is not None else None

    # -- layer hooks ------------------------------------------------------------
    def on_payload_drop(self, payload: tuple, reason: str) -> None:
        """A layer swallowed this payload (cache hit / admit filter)."""
        with self._lock:
            ent = self._pending.pop(id(payload), None)
        if ent is not None and ent[1] is not None:
            sp = ent[1]
            if sp.args is None:
                sp.args = {}
            sp.args["suppressed"] = reason
            sp.t1 = perf_counter()

    def on_payload_combine(self, combined: tuple, a: tuple, b: tuple) -> None:
        """A reduction merged ``a`` and ``b`` into ``combined``.

        The surviving payload keeps (or inherits) a msg span so the
        downstream handler still has a causal parent; the losing span is
        closed and marked combined.
        """
        with self._lock:
            ea = self._pending.pop(id(a), None)
            eb = self._pending.pop(id(b), None)
        sa = ea[1] if ea else None
        sb = eb[1] if eb else None
        if combined is a:
            keep, lose = sa, sb
        elif combined is b:
            keep, lose = sb, sa
        else:  # a fresh tuple (sum-style combiner): keep the older span
            keep, lose = (sa, sb) if sa is not None else (sb, None)
        now = perf_counter()
        if lose is not None:
            if lose.args is None:
                lose.args = {}
            lose.args["combined_into"] = keep.sid if keep is not None else None
            lose.t1 = now
        self._register(combined, keep)

    # -- delivery (Transport.run_handler, level "spans") ----------------------------
    # Each enter_* pushes the span a handler call runs in (``_DROPPED``
    # when its trace was sampled out), so handler sends chain causally;
    # leave() pops and closes it.

    def enter_handle(self, name: str, rank: int, msp) -> None:
        """A ``handle`` span for one scalar payload whose msg span is ``msp``."""
        top = _DROPPED
        if isinstance(msp, Span):
            msp.t1 = perf_counter()
            top = self._begin("handle", name, rank, parent=msp.sid, trace=msp.trace)
        self._stack().append(top)

    def enter_batch(self, name: str, rank: int, envs: tuple, items: int) -> None:
        """A ``batch`` span for one batch-handler call on ``envs``, linking
        every delivered msg span, each marked by a zero-length ``handle``."""
        parents = [s for s in self.msg_spans(envs) if isinstance(s, Span)]
        top = _DROPPED
        if parents:
            top = self._begin("batch", name, rank, parent=None, trace=parents[0].trace,
                              links=[s.sid for s in parents], args={"items": items})
            now = perf_counter()
            for s in parents:
                s.t1 = now
                hs = self._begin("handle", name, rank, parent=s.sid, trace=s.trace,
                                 args={"via": top.sid, "vector": True})
                hs.t1 = hs.t0
        self._stack().append(top)

    def leave(self) -> None:
        top = self._stack().pop()
        if top is not _DROPPED:
            self._end(top)

    @staticmethod
    def msg_spans(envs: tuple):
        """Each row's msg span (or None) over batch envelopes ``envs``."""
        for env in envs:
            if isinstance(env.trace, tuple):
                yield from env.trace
            else:
                yield from (None,) * len(env.payload)

    # -- wire observers (MessageTracer et al.) --------------------------------------
    def add_wire_observer(self, fn) -> None:
        if fn not in self.wire_obs:
            self.wire_obs.append(fn)

    def remove_wire_observer(self, fn) -> None:
        if fn in self.wire_obs:
            self.wire_obs.remove(fn)

    def notify_wire(self, mtype, src: int, dest: int, payload: tuple,
                    batch: bool) -> None:
        for fn in self.wire_obs:
            fn(mtype, src, dest, payload, batch)

    # -- access -----------------------------------------------------------------
    def snapshot_spans(self) -> list:
        """A consistent copy of the ring buffer's spans."""
        with self._lock:
            return list(self.spans)

    def pending_contexts(self) -> int:
        """Payloads with registered context not yet on the wire (buffered
        in layers, or leaked — tests assert this returns to 0)."""
        with self._lock:
            return len(self._pending)

    def counters_snapshot(self) -> dict[tuple[str, int], tuple[int, float]]:
        with self._lock:
            return {k: (v[0], v[1]) for k, v in self.phase_counters.items()}

    def summary(self) -> dict[str, Any]:
        with self._lock:
            by_kind: dict[str, int] = {}
            for sp in self.spans:
                by_kind[sp.kind] = by_kind.get(sp.kind, 0) + 1
            return {
                "level": self.level,
                "spans_recorded": len(self.spans),
                "spans_evicted": self.evicted,
                "traces_sampled_out": self.sampled_out,
                "by_kind": by_kind,
                "phases": sorted({k[0] for k in self.phase_counters}),
            }

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.evicted = 0
            self.sampled_out = 0
            self.phase_counters.clear()
            self._pending.clear()


def make_telemetry(machine, spec) -> Telemetry:
    """Build a machine's telemetry from the ``Machine(telemetry=...)`` arg:
    None / a level string / a :class:`TelemetryConfig`."""
    if spec is None:
        return Telemetry(machine, TelemetryConfig(level="off"))
    if isinstance(spec, str):
        return Telemetry(machine, TelemetryConfig(level=spec))
    if isinstance(spec, TelemetryConfig):
        return Telemetry(machine, spec)
    raise TypeError(
        f"telemetry must be one of {LEVELS}, a TelemetryConfig, or None; "
        f"got {spec!r}"
    )
