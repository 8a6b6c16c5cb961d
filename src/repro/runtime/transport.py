"""Transport abstraction: moving active messages between ranks.

Three transports implement this interface:

* :class:`~repro.runtime.sim.SimTransport` — N simulated ranks in one
  process with deterministic, seeded scheduling.  This is the default and
  the one benchmarks use, because the paper's cost model is message counts,
  which the simulation reproduces exactly and reproducibly.
* :class:`~repro.runtime.threads.ThreadTransport` — one OS thread per rank
  (optionally several worker threads per rank) with real queues; exercises
  the lock-map synchronization story under true interleavings.
* :class:`~repro.runtime.process.ProcessTransport` — one forked OS
  process per rank with shared-memory property maps and a binary wire;
  the transport where adding ranks lowers wall-clock time.

Every transport delivers through :meth:`Transport.run_handler`.

Handlers receive a :class:`HandlerContext` bound to the executing rank;
sending from a handler attributes the message to that rank, so local
deliveries (``src == dest``) are distinguished from remote hops — the
quantity the paper counts in Figs. 5-6.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Union

from .message import Envelope, MessageType
from .wire import WireBatch

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

#: Most rows one merged delivery gathers (:meth:`Transport.merge_room`):
#: envelopes join while the merged batch is below this.  0 delivers every
#: envelope on its own.
MERGE_ROWS = 2048


def merge_key(payload) -> Optional[tuple]:
    """What a queued envelope must share with another to join its delivery.

    Only column batches merge, and only with batches of the same width
    and the same constant condition column (pattern payloads lead with
    ``(address, condition, step)``; ``-1`` marks generator starts), so
    starts never mix with eval-step rows even when both are 3 wide.
    ``None`` for row-tuple envelopes and mixed batches.
    """
    if type(payload) is not WireBatch:
        return None
    ci = payload.col_const(1)
    return None if ci is None else (payload.ncols, ci)


class HandlerContext:
    """Execution context passed to message handlers.

    One context per rank exists per transport; it is reused across handler
    invocations on that rank (handlers on a rank are serialized unless the
    thread transport is configured with multiple workers per rank, in which
    case property-map access must go through a lock map, Sec. IV-B).
    """

    __slots__ = ("machine", "rank", "worker")

    def __init__(self, machine: "Machine", rank: int, worker: int = 0) -> None:
        self.machine = machine
        self.rank = rank
        self.worker = worker

    @property
    def src(self) -> int:
        """The rank this context's sends are attributed to."""
        return self.rank

    # -- sending -------------------------------------------------------------
    def send(
        self,
        mtype: Union[MessageType, str],
        payload: tuple,
        dest: Optional[int] = None,
    ) -> None:
        """Send an active message from this rank (handlers may send freely)."""
        self.machine.transport.send(self.src, mtype, payload, dest)

    # -- introspection ---------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.machine.n_ranks

    @property
    def stats(self):
        return self.machine.stats

    def owner(self, vertex: int) -> int:
        return self.machine.resolver.owner(vertex)

    def is_local(self, vertex: int) -> bool:
        return self.owner(vertex) == self.rank


class Transport:
    """Base class for transports.

    Concrete transports implement queueing, the progress engine, and
    quiescence.  The shared ``send`` path below resolves the destination,
    walks the message type's layer stack (caching -> reduction -> coalescing,
    in whatever order they were installed), updates statistics, and finally
    enqueues an envelope.
    """

    #: Held around bulk sends that reach a layer without passing through
    #: :meth:`_send_through` (``CoalescingLayer.send_rows``).  Nothing to
    #: guard where one thread runs all handlers; the thread transport
    #: installs its layer lock.
    bulk_guard = nullcontext()

    #: The locking scheme this transport needs (paper Sec. IV-B): can two
    #: handlers of one rank run at once?  Never where one thread or process
    #: runs all of a rank's handlers; ``bind`` then builds a lock-free
    #: :class:`~repro.props.lockmap.LockMap`.
    concurrent_handlers = False

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.n_ranks = machine.n_ranks

    # -- public send ---------------------------------------------------------
    def send(
        self,
        src: int,
        mtype: Union[MessageType, str],
        payload: tuple,
        dest: Optional[int] = None,
    ) -> None:
        if isinstance(mtype, str):
            mtype = self.machine.registry.by_name(mtype)
        resolved = self.machine.resolver.resolve(mtype, payload, dest)
        tel = self.machine.telemetry
        if tel.spans_on:
            # One logical message = one span; context survives the layer
            # stack via the pending-payload table until wire time.
            tel.on_send(mtype, src, resolved, payload)
        self._send_through(mtype, 0, src, resolved, payload)

    def _send_through(
        self, mtype: MessageType, layer_index: int, src: int, dest: int, payload: tuple
    ) -> None:
        """Pass ``payload`` through layer ``layer_index`` and below."""
        layers = mtype.layers
        if layer_index < len(layers):
            layer = layers[layer_index]

            def emit(p: tuple, d: int = dest) -> None:
                self._send_through(mtype, layer_index + 1, src, d, p)

            layer.send(src, dest, payload, emit)
        else:
            self._wire(mtype, src, dest, payload)

    def _wire(
        self, mtype: MessageType, src: int, dest: int, payload: tuple, batch: bool = False
    ) -> None:
        """Final enqueue onto the destination mailbox, with statistics."""
        remote = src != dest and src >= 0
        if batch:
            # One physical transfer carrying many logical payloads.
            if isinstance(payload, WireBatch):
                slots = payload.nrows * payload.ncols
            else:
                slots = sum(len(p) for p in payload)
        else:
            slots = len(payload)
        self.machine.stats.count_send(mtype.name, remote, slots)
        # Driver-injected sends (src == -1) are attributed to the destination
        # rank so termination balances stay consistent (sum == in-flight).
        self.machine.detector.on_send(src if src >= 0 else dest)
        tel = self.machine.telemetry
        if tel.wire_obs:
            tel.notify_wire(mtype, src, dest, payload, batch)
        trace = None
        if tel.spans_on:
            if batch:
                trace = tuple(tel.wire_context(p) for p in payload)
            else:
                trace = tel.wire_context(payload)
        env = Envelope(
            dest=dest, type_id=mtype.type_id, payload=payload, src=src, trace=trace
        )
        self._enqueue(env, batch=batch)

    def wire_batch(self, mtype: MessageType, src: int, dest: int, payloads) -> None:
        """Used by the coalescing layer: ship many payloads — a tuple of
        row tuples or a column batch — as one envelope."""
        self._wire(mtype, src, dest, payloads, batch=True)

    # -- to implement ------------------------------------------------------------
    def _enqueue(self, env: Envelope, batch: bool = False) -> None:
        raise NotImplementedError

    def flush_layers(self, mtype_filter=None) -> int:
        """Flush all buffering layers on all types; returns items flushed."""
        tel = self.machine.telemetry
        if not tel.enabled:
            return self._flush_layers(mtype_filter)
        with tel.phase("flush"):
            return self._flush_layers(mtype_filter)

    def _flush_layers(self, mtype_filter=None) -> int:
        flushed = 0
        for mtype in self.machine.registry:
            if mtype_filter is not None and mtype is not mtype_filter:
                continue
            for i, layer in enumerate(mtype.layers):
                for src in range(self.n_ranks):

                    def emit(p: tuple, d: int | None = None, _i=i, _m=mtype, _s=src) -> None:
                        if d is None:  # pragma: no cover - defensive
                            raise ValueError("flush emit requires explicit destination")
                        self._send_through(_m, _i + 1, _s, d, p)

                    flushed += layer.flush(src, emit)
        return flushed

    def pending_layer_items(self) -> int:
        return sum(
            layer.pending() for mtype in self.machine.registry for layer in mtype.layers
        )

    def merge_room(self, env: Envelope, batch: bool) -> tuple:
        """``(key, rows)``: the :func:`merge_key` a queued envelope needs to
        join ``env``'s delivery and how many more rows may join; ``key`` is
        None when nothing may.

        The one legality test of a merged delivery.  Merging reorders
        delivery, so it needs a batch handler whose result is order-free
        (``MessageType.order_free``).  It also needs no chaos layer:
        reliable delivery acks and dedups per envelope.
        """
        machine = self.machine
        if (
            batch
            and machine.chaos is None
            and machine.registry.by_id(env.type_id).order_free
        ):
            key = merge_key(env.payload)
            if key is not None and env.payload.nrows < MERGE_ROWS:
                return key, MERGE_ROWS - env.payload.nrows
        return None, 0

    def run_handler(self, env: Envelope, batch: bool, more: tuple = ()) -> None:
        """Dispatch one envelope at its destination rank.

        The one delivery path: every transport hands each delivered
        envelope here, and nothing else in the runtime calls a message
        type's handlers.  Under chaos, :meth:`ChaosTransport.admit
        <repro.runtime.chaos.ChaosTransport.admit>` runs first (acks,
        dedup, re-ack) and may consume the envelope.

        Coalesced envelopes (``batch=True``) carry a tuple of payload tuples
        or a :class:`~repro.runtime.wire.WireBatch` of payload columns.
        When the message type has a :attr:`MessageType.batch_handler`
        installed (the pattern executor does this for vectorizable plans),
        the whole batch is handed over in one call so it can be executed as
        array kernels; otherwise the scalar handler runs once per payload.
        Either way, handler-call counts reflect the number of *logical*
        payloads so the paper's message-cost model is unchanged.

        ``more`` holds further column envelopes of the same type, width
        and rank that the transport merged into this delivery
        (:meth:`merge_room`): the batch handler runs once on the rows of
        all of them, while the detector, statistics and health accounting
        still count every envelope.

        At telemetry level ``spans`` each handler call runs inside a span
        parented on the delivered msg spans: one ``batch`` span per
        batch-handler call, one ``handle`` span per scalar payload.
        """
        machine = self.machine
        if machine.chaos is not None:
            env = machine.chaos.admit(env)
            if env is None:
                return
        mtype = machine.registry.by_id(env.type_id)
        name = mtype.name
        ctx = self.context_for(env.dest)
        stats = machine.stats
        detector = machine.detector
        tel = machine.telemetry
        detector.on_receive(env.dest)
        t0 = perf_counter()
        if batch:
            payloads = env.payload
            n = len(payloads)
            bh = mtype.batch_handler
            stats.count_handler(name, n)
            stats.count_batch_delivery(name, n, vectorized=bh is not None)
            if more:
                for e in more:
                    k = len(e.payload)
                    detector.on_receive(e.dest)
                    stats.count_handler(name, k)
                    stats.count_batch_delivery(name, k, vectorized=True, joined=True)
                payloads = WireBatch.concat([payloads, *(e.payload for e in more)])
            if not tel.spans_on:
                if bh is not None:
                    bh(ctx, payloads)
                else:
                    handler = mtype.handler
                    for item in payloads:
                        handler(ctx, item)
            elif bh is not None:
                tel.enter_batch(name, env.dest, (env, *more), len(payloads))
                try:
                    bh(ctx, payloads)
                finally:
                    tel.leave()
            else:
                handler = mtype.handler
                for item, msp in zip(payloads, tel.msg_spans((env, *more))):
                    tel.enter_handle(name, env.dest, msp)
                    try:
                        handler(ctx, item)
                    finally:
                        tel.leave()
        else:
            n = 1
            stats.count_handler(name)
            if not tel.spans_on:
                mtype.handler(ctx, env.payload)
            else:
                tel.enter_handle(name, env.dest, env.trace)
                try:
                    mtype.handler(ctx, env.payload)
                finally:
                    tel.leave()
        dt = perf_counter() - t0
        stats.add_handler_time(name, dt)
        health = machine.health
        if health.enabled:
            if more:
                # One note per envelope; the call's time shared by rows.
                per_row = dt / (n + sum(len(e.payload) for e in more))
                health.note_delivery(env.dest, n, per_row * n)
                for e in more:
                    k = len(e.payload)
                    health.note_delivery(env.dest, k, per_row * k)
            else:
                health.note_delivery(env.dest, n, dt)

    def context_for(self, rank: int) -> HandlerContext:
        raise NotImplementedError

    # -- progress / quiescence -------------------------------------------------
    def drain(self) -> int:
        """Run handlers until global quiescence; returns handlers run."""
        raise NotImplementedError

    def pending_messages(self) -> int:
        raise NotImplementedError

    def quiescent(self) -> bool:
        return self.pending_messages() == 0 and self.pending_layer_items() == 0

    def resize(self, n_ranks: int) -> None:
        """Adapt the transport to a new rank count (``Machine.rebalance``).

        Only legal at quiescence: per-rank mailboxes are rebuilt, so any
        in-flight message would be lost.  Subclasses extend this to
        rebuild their per-rank structures.
        """
        if not self.quiescent():
            raise RuntimeError(
                "transport resize requires quiescence (messages in flight "
                "or layer buffers non-empty)"
            )
        if n_ranks < 1:
            raise ValueError("resize needs at least one rank")
        self.n_ranks = n_ranks

    def hooks_changed(self) -> None:
        """A bound action's work hook was set or cleared (see process)."""

    def finish_epoch(self, detector) -> None:
        """Drain and run the termination protocol until quiescence is proven."""
        tel = self.machine.telemetry
        flight = self.machine.flight
        while True:
            self.drain()
            if not tel.enabled:
                proven = detector.probe()
            else:
                with tel.phase("probe"):
                    proven = detector.probe()
            flight.record_probe(proven)
            if proven:
                return

    def shutdown(self) -> None:  # pragma: no cover - trivial default
        """Release transport resources (threads, queues)."""
