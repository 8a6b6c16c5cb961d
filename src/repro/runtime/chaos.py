"""Chaos transport: deterministic, seeded fault injection on the wire.

:class:`ChaosTransport` decorates any :class:`~repro.runtime.transport.
Transport` instance (sim or threads) by intercepting the points
where a transport touches the physical network:

* ``_enqueue`` — every envelope offered to the wire runs through the
  fault pipeline (drop / duplicate / delay / reorder / split / stall);
* ``pending_messages`` — limbo and unacked retransmissions count as
  outstanding work, so termination probes stay honest;
* the progress engine (``step`` on the sim transport, ``drain`` on the
  thread transport) — advances the chaos **tick clock**, releases
  delayed envelopes from limbo, and fires due retransmissions.

Delivery is not intercepted: ``Transport.run_handler`` calls
:meth:`ChaosTransport.admit` (ack consumption, dedup, re-ack) first.

Faults are injected *below* the message layers (caching / reduction /
coalescing) and *below* statistics and termination accounting: a logical
send is counted once in ``Transport._wire`` no matter how many times the
chaos layer drops, duplicates or splits the physical envelope, so the
paper's message-cost model is computed on the intended traffic while the
machinery underneath misbehaves.

Determinism: every fault decision is drawn from a dedicated
``random.Random`` stream derived from the chaos seed (see
:func:`derive_rng`), never from the transport's scheduling stream — the
same ``(schedule, seed)`` pair visits ranks in the same order whether or
not chaos is enabled, and two chaos seeds differ only in faults.  Every
injected fault is appended to :attr:`ChaosTransport.trace` as a
:class:`FaultEvent`; replaying a run with ``ChaosConfig(script=trace)``
reproduces those exact faults (and only those), which is what the
schedule-exploration harness's shrinker exploits to minimize a failing
seed to a small fault trace.

Hypercube note: faults apply when an envelope *enters* the network;
intermediate bit-fixing forwards are faithful.  This models a lossy NIC /
injection queue rather than lossy links, and keeps fault accounting
one-to-one with logical messages.
"""

from __future__ import annotations

import heapq
import random
import threading
from dataclasses import dataclass
from typing import Optional

from .message import Envelope
from .recovery import RankCrashed
from .reliable import (
    ACK_TYPE_ID,
    AckEnvelope,
    ReliableDelivery,
    ReliableEnvelope,
)

#: Fault kinds a :class:`FaultEvent` may carry.
FAULT_KINDS = ("drop", "duplicate", "delay", "reorder", "split", "crash")


def derive_rng(seed, label: str) -> random.Random:
    """An independent, deterministic RNG stream for one concern.

    ``random.Random`` seeds strings stably (hashed with SHA-512, not the
    per-process ``hash``), so ``derive_rng(3, "chaos")`` is the same
    stream on every run and is statistically independent from
    ``derive_rng(3, "schedule")``.  The sim transport and the chaos layer
    both seed through this helper so chaos seeds can never perturb
    scheduling decisions (and vice versa).
    """
    return random.Random(f"{seed}:{label}")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: the ``index``-th wire decision got ``kind``.

    ``arg`` carries the hold-back in ticks for ``delay`` / ``reorder``
    and the dying rank for ``crash``; it is unused for the other kinds.
    ``crash`` events are keyed by **tick**, not wire-decision index —
    a crash fires at a tick boundary and never consumes a decision, so
    replaying a trace with crashes reproduces the exact same fate draws
    for every other fault.  Traces are replayable via
    ``ChaosConfig(script=...)`` and are what the shrinker minimizes.
    """

    index: int
    kind: str
    arg: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}")
        if self.kind == "crash" and self.arg < 0:
            raise ValueError(
                f"crash fault arg={self.arg}: must name the dying rank (>= 0)"
            )


@dataclass(frozen=True)
class ChaosConfig:
    """Fault-injection knobs.  All probabilities are per wire decision.

    ``stall_rank``/``stall_period``/``stall_ticks`` model a rank that
    periodically stops receiving: while ``tick % stall_period <
    stall_ticks`` every delivery addressed to ``stall_rank`` is parked
    until the stall window closes (``stall_period == 0`` means a single
    stall at the start of the run).

    ``crash_rank``/``crash_tick`` schedule a one-shot **rank crash**:
    when the chaos clock reaches ``crash_tick`` the transport raises
    :class:`~repro.runtime.recovery.RankCrashed` for ``crash_rank``,
    dumping that rank's mailbox — recovery (or the test harness) takes
    it from there.  Both must be set together; the crash fires at most
    once per run even across checkpoint rollbacks.

    ``script`` replaces the random fate draw entirely: decision ``i``
    gets the scripted fault if ``i`` appears in the script, and no fault
    otherwise (``crash`` entries are keyed by tick instead and coexist
    with probabilistic faults).  Used for replay and shrinking.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_hops: int = 8
    reorder: float = 0.0
    reorder_window: int = 3
    split: float = 0.0
    stall_rank: int = -1
    stall_period: int = 0
    stall_ticks: int = 0
    crash_rank: int = -1
    crash_tick: int = -1
    drop_acks: bool = True
    script: Optional[tuple[FaultEvent, ...]] = None

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay", "reorder", "split"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {p}")
        if self.drop >= 1.0:
            raise ValueError("drop=1.0 loses every message forever; use < 1")
        if self.drop + self.duplicate + self.delay + self.reorder + self.split > 1.0:
            raise ValueError("fault probabilities must sum to at most 1")
        if self.delay_hops < 1 or self.reorder_window < 1:
            raise ValueError("delay_hops and reorder_window must be >= 1")
        if self.stall_ticks < 0 or self.stall_period < 0:
            raise ValueError("stall_period/stall_ticks must be >= 0")
        if self.stall_period and self.stall_ticks >= self.stall_period:
            raise ValueError("stall_ticks must be < stall_period (the rank must wake)")
        if (self.crash_rank >= 0) != (self.crash_tick >= 0):
            raise ValueError(
                "crash_rank and crash_tick must be set together "
                f"(got crash_rank={self.crash_rank}, crash_tick={self.crash_tick}); "
                "a crash needs both a victim and a time"
            )
        if self.crash_tick == 0:
            raise ValueError(
                "crash_tick must be >= 1: tick 0 is before the first wire "
                "decision, so there is no run to crash"
            )

    @property
    def lossy(self) -> bool:
        """True when messages can be permanently lost without reliability."""
        if self.drop > 0:
            return True
        return bool(self.script) and any(e.kind == "drop" for e in self.script)

    def any_faults(self) -> bool:
        return (
            self.lossy
            or self.duplicate > 0
            or self.delay > 0
            or self.reorder > 0
            or self.split > 0
            or (self.stall_rank >= 0 and self.stall_ticks > 0)
            or self.crash_rank >= 0
            or bool(self.script)
        )


class ChaosTransport:
    """Installs fault injection (and optionally reliability) on a transport.

    The decorator intercepts ``_enqueue`` (the fault pipeline),
    ``pending_messages`` (limbo and unacked retries) and the progress
    engine (``step`` on sim, ``drain`` on threads) on the *instance* it
    wraps, so every internal call site — layer flushes, ``wire_batch``,
    the drain loops — routes through the chaotic wire without the rest
    of the runtime knowing.  Delivery admission is not patched in:
    ``Transport.run_handler`` calls :meth:`admit` explicitly.
    ``machine.transport`` keeps its concrete type (``isinstance`` checks,
    ``hop_observer`` wiring and SPMD mode are unaffected); the controller
    is reachable as ``machine.chaos`` / ``transport.chaos``.
    """

    def __init__(
        self,
        transport,
        config: Optional[ChaosConfig] = None,
        reliable: Optional[ReliableDelivery] = None,
    ) -> None:
        self.inner = transport
        self.machine = transport.machine
        self.config = config or ChaosConfig()
        self.reliable = reliable
        self.stats = self.machine.stats
        self._rng = derive_rng(self.config.seed, "chaos")
        # Crash events are keyed by tick, every other kind by decision
        # index; split the script so a scripted crash can never collide
        # with (or perturb) a scripted wire fault.
        script = self.config.script
        self._script = (
            None
            if script is None
            else {e.index: e for e in script if e.kind != "crash"}
        )
        self._script_crashes = (
            [] if script is None else [e for e in script if e.kind == "crash"]
        )
        n_ranks = self.machine.n_ranks
        for ev in self._script_crashes:
            if ev.arg >= n_ranks:
                raise ValueError(
                    f"scripted crash names rank {ev.arg}, but the machine "
                    f"has only {n_ranks} ranks"
                )
        if self.config.crash_rank >= n_ranks:
            raise ValueError(
                f"crash_rank={self.config.crash_rank}, but the machine has "
                f"only {n_ranks} ranks"
            )
        self._has_crash = bool(self._script_crashes) or self.config.crash_rank >= 0
        #: Ranks currently dead (crashed, not yet revived by recovery).
        self.dead_ranks: set[int] = set()
        # One-shot per crash event: deliberately NOT part of
        # checkpoint_state, so a rolled-back clock cannot re-fire the
        # same crash forever; distinct scripted crashes each still get
        # their single shot (multi-crash recovery scenarios).
        self._config_crash_fired = False
        self._script_crashes_fired: set[int] = set()
        #: Every injected fault, in decision order.  Replayable.
        self.trace: list[FaultEvent] = []
        self._decision = 0
        self._tick = 0
        self._limbo: list = []  # heap of (release_tick, n, env, batch)
        self._limbo_n = 0
        self._lock = threading.RLock()
        # -- install intercepts on the wrapped instance --------------------
        self._orig_enqueue = transport._enqueue
        self._orig_pending = transport.pending_messages
        transport._enqueue = self._enqueue
        transport.pending_messages = self._pending_messages
        if hasattr(transport, "step"):  # sim: tick per scheduler step
            self._orig_step = transport.step
            transport.step = self._step
        else:  # threads: tick per drain pass
            self._orig_drain = transport.drain
            transport.drain = self._drain_threads
        transport.chaos = self

    @property
    def concurrent_handlers(self) -> bool:
        """Faults reorder deliveries; they add no handler thread, so the
        locking scheme is the wrapped transport's."""
        return self.inner.concurrent_handlers

    # -- clock ----------------------------------------------------------------
    @property
    def tick(self) -> int:
        return self._tick

    def _stalled(self, rank: int) -> bool:
        cfg = self.config
        if cfg.stall_rank != rank or cfg.stall_ticks <= 0:
            return False
        if cfg.stall_period <= 0:
            return self._tick < cfg.stall_ticks
        return (self._tick % cfg.stall_period) < cfg.stall_ticks

    def _stall_release_tick(self) -> int:
        cfg = self.config
        if cfg.stall_period <= 0:
            return cfg.stall_ticks
        return self._tick - (self._tick % cfg.stall_period) + cfg.stall_ticks

    # -- fate -----------------------------------------------------------------
    def _fate(self, is_batch: bool, is_ack: bool) -> tuple[str, int]:
        """Decide this wire decision's fault (one decision index per offer)."""
        i = self._decision
        self._decision += 1
        cfg = self.config
        if self._script is not None:
            ev = self._script.get(i)
            if ev is None:
                return ("", 0)
            self.trace.append(ev)
            return (ev.kind, ev.arg)
        r = self._rng.random()
        if is_ack and not cfg.drop_acks:
            return ("", 0)
        kind, arg = "", 0
        acc = cfg.drop
        if r < acc:
            kind = "drop"
        elif r < (acc := acc + cfg.duplicate):
            kind = "duplicate"
        elif r < (acc := acc + cfg.delay):
            kind, arg = "delay", cfg.delay_hops
        elif r < (acc := acc + cfg.reorder):
            kind, arg = "reorder", 1 + self._rng.randrange(cfg.reorder_window)
        elif is_batch and r < acc + cfg.split:
            kind = "split"
        if kind:
            self.trace.append(FaultEvent(i, kind, arg))
        return (kind, arg)

    # -- wire interception -------------------------------------------------------
    def _enqueue(self, env, batch: bool = False) -> None:
        with self._lock:
            if self.reliable is not None and not isinstance(
                env, (ReliableEnvelope, AckEnvelope)
            ):
                env = self.reliable.wrap(env, batch, self._tick)
            self._offer(env, batch, may_split=True)

    def _offer(self, env, batch: bool, may_split: bool = False) -> None:
        """Run one envelope through the fault pipeline.

        ``may_split`` is true only for an envelope's *first* wire offer:
        splitting re-registers the halves under fresh sequence numbers,
        which is only sound while no copy of the original can have been
        delivered yet (a split retransmission would resurrect payloads
        the receiver already accepted under the old number).
        """
        is_ack = env.type_id == ACK_TYPE_ID
        splittable = may_split and batch and len(env.payload) >= 2
        kind, arg = self._fate(splittable, is_ack)
        count = self.stats.count_chaos
        if kind:
            tel = self.machine.telemetry
            if tel.enabled:
                tel.event(
                    "fault",
                    rank=env.dest,
                    args={
                        "kind": kind,
                        "arg": arg,
                        "tick": self._tick,
                        "decision": self._decision - 1,
                        "ack": is_ack,
                    },
                )
            self.machine.flight.record(
                "fault", rank=env.dest, fault=kind, arg=arg,
                tick=self._tick, ack=is_ack,
            )
        if kind == "split":
            if not splittable:  # scripted fault on an ineligible envelope
                self._admit(env, batch)
                return
            count("split_envelopes")
            self._split(env, batch)
            return
        if kind == "drop":
            count("acks_dropped" if is_ack else "dropped")
            # A dropped data envelope survives in the retransmission
            # buffer (if reliability is on) and will be retried; a
            # dropped ack is recovered by the ensuing retransmission.
            return
        if kind == "duplicate":
            count("duplicated")
            self._admit(env, batch)
            self._admit(env, batch)
            return
        if kind in ("delay", "reorder"):
            count("delayed" if kind == "delay" else "reordered")
            self._to_limbo(env, batch, self._tick + max(1, arg))
            return
        self._admit(env, batch)

    def _split(self, env, batch: bool) -> None:
        """Tear one coalesced envelope into two smaller physical envelopes.

        Each half becomes an independent reliable envelope (its own
        sequence number); the original's retransmission entry is retired
        so it is not re-sent whole.  Exercises the vectorized
        batch-delivery path under partial arrival.
        """
        inner = env.env if isinstance(env, ReliableEnvelope) else env
        if isinstance(env, ReliableEnvelope) and self.reliable is not None:
            self.reliable.retire(env)
        mid = len(inner.payload) // 2
        # Batch envelopes carry one trace context per payload; slice the
        # contexts alongside the payload halves so spans survive the split.
        tr = getattr(inner, "trace", None)
        parts = (
            (inner.payload[:mid], None if tr is None else tr[:mid]),
            (inner.payload[mid:], None if tr is None else tr[mid:]),
        )
        for part, part_tr in parts:
            sub = Envelope(
                dest=inner.dest,
                type_id=inner.type_id,
                payload=part,
                src=inner.src,
                trace=part_tr,
            )
            if self.reliable is not None:
                sub = self.reliable.wrap(sub, batch, self._tick)
            self._offer(sub, batch, may_split=True)

    def _admit(self, env, batch: bool) -> None:
        """Final admission to the real wire, honouring rank stalls."""
        if self._stalled(env.dest):
            self.stats.count_chaos("stalled")
            self._to_limbo(env, batch, self._stall_release_tick())
            return
        self._orig_enqueue(env, batch)

    def _to_limbo(self, env, batch: bool, release: int) -> None:
        self._limbo_n += 1
        heapq.heappush(self._limbo, (release, self._limbo_n, env, batch))

    # -- delivery admission ------------------------------------------------------
    def admit(self, env) -> Optional[Envelope]:
        """The envelope whose handler a delivery of ``env`` runs, or None.

        Called by ``Transport.run_handler`` before anything else: an ack
        retires its retransmission and runs no handler; a reliable
        envelope is acked (every copy: the first ack may be lost, and
        only a re-ack of the suppressed duplicate can retire the retry),
        then unwrapped if fresh or suppressed if a duplicate.
        """
        if env.type_id == ACK_TYPE_ID:
            if self.reliable is not None:
                self.reliable.on_ack(env)
            self.stats.count_chaos("acks_delivered")
            return None
        if isinstance(env, ReliableEnvelope):
            assert self.reliable is not None
            fresh = self.reliable.accept(env)
            self.stats.count_chaos("acks_sent")
            ack = self.reliable.make_ack(env, env.dest)
            with self._lock:
                self._offer(ack, False)
            if not fresh:
                self.stats.count_chaos("duplicates_suppressed")
                return None
            return env.env
        return env

    # -- progress ---------------------------------------------------------------
    def _pump(self) -> None:
        """Release matured limbo envelopes and fire due retransmissions."""
        while self._limbo and self._limbo[0][0] <= self._tick:
            _, _, env, batch = heapq.heappop(self._limbo)
            self._admit(env, batch)
        if self.reliable is not None and self.reliable.has_unacked():
            tel = self.machine.telemetry
            for renv, batch in self.reliable.due_retries(self._tick):
                self.stats.count_chaos("retries")
                if tel.enabled:
                    tel.event(
                        "retry",
                        rank=renv.dest,
                        args={
                            "tick": self._tick,
                            "channel": list(renv.channel),
                            "seq": renv.seq,
                        },
                    )
                self.machine.flight.record(
                    "retry", rank=renv.dest, tick=self._tick,
                    channel=list(renv.channel), msg_seq=renv.seq,
                )
                self._offer(renv, batch)

    # -- crashes --------------------------------------------------------------
    def _maybe_crash(self) -> None:
        """Fire a scheduled rank crash once its tick is reached.

        Crashes fire at tick boundaries and never consume a wire
        decision or an RNG draw, so a run with a crash scheduled sees
        byte-identical fault fates for every other decision.  One-shot:
        fired-crash flags survive checkpoint rollback on purpose, so a
        restored clock cannot re-fire the same crash forever.
        """
        if not self._has_crash:
            return
        cfg = self.config
        ev: Optional[FaultEvent] = None
        if (
            cfg.crash_rank >= 0
            and not self._config_crash_fired
            and self._tick >= cfg.crash_tick
        ):
            ev = FaultEvent(self._tick, "crash", cfg.crash_rank)
            self._config_crash_fired = True
        else:
            for k, scripted in enumerate(self._script_crashes):
                if k not in self._script_crashes_fired and self._tick >= scripted.index:
                    ev = scripted
                    self._script_crashes_fired.add(k)
                    break
        if ev is None:
            return
        rank = ev.arg
        self.dead_ranks.add(rank)
        self.trace.append(ev)
        self.stats.count_chaos("crashes")
        self._clear_rank_mailbox(rank)
        tel = self.machine.telemetry
        if tel.enabled:
            tel.event(
                "fault",
                rank=rank,
                args={
                    "kind": "crash",
                    "arg": rank,
                    "tick": self._tick,
                    "decision": -1,
                    "ack": False,
                },
            )
        flight = self.machine.flight
        flight.record(
            "crash", rank=rank, tick=self._tick,
            epoch=len(self.machine.stats.epochs),
        )
        err = RankCrashed(rank, self._tick, len(self.machine.stats.epochs))
        # The black box ships with the exception; Epoch.__exit__ sees the
        # attribute and skips its own auto-dump (one dump per crash).
        err.flight_dump = flight.auto_dump("crash")
        raise err

    def _clear_rank_mailbox(self, rank: int) -> None:
        """Dump a dead rank's undelivered mail (its memory is gone)."""
        t = self.inner
        box = t._mailboxes[rank]
        if hasattr(t, "_completed"):  # threads: keep the drain ledger honest
            with t._lock:
                n = len(box)
                box.clear()
                t._completed += n
        else:
            box.clear()

    def revive(self, rank: int) -> None:
        """Bring a crashed rank back to life (recovery respawned it)."""
        self.dead_ranks.discard(rank)

    # -- checkpointing --------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Chaos clock + fate stream, captured at a quiescent boundary.

        Restoring this rewinds the decision counter, the tick clock and
        the fate RNG, and truncates the trace — so the replayed suffix
        of a recovered run draws the *same* fault fates the crashed
        prefix did, which is what makes recovery bit-identical on the
        sim transport.  The fired-crash flags are deliberately excluded.
        """
        with self._lock:
            return {
                "decision": self._decision,
                "tick": self._tick,
                "limbo_n": self._limbo_n,
                "rng": self._rng.getstate(),
                "trace_len": len(self.trace),
            }

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self._decision = state["decision"]
            self._tick = state["tick"]
            self._limbo_n = state["limbo_n"]
            self._rng.setstate(state["rng"])
            del self.trace[state["trace_len"] :]
            self._limbo.clear()

    def _next_event_tick(self) -> Optional[int]:
        candidates = []
        if self._limbo:
            candidates.append(self._limbo[0][0])
        if self.reliable is not None:
            due = self.reliable.next_due()
            if due is not None:
                candidates.append(due)
        return min(candidates) if candidates else None

    def _step(self) -> bool:
        """Sim transport: one tick per scheduler step, plus idle fast-forward."""
        with self._lock:
            self._tick += 1
            self._maybe_crash()
            self._pump()
        if self._orig_step():
            return True
        with self._lock:
            nxt = self._next_event_tick()
            if nxt is None:
                return False
            # Nothing deliverable now, but delayed envelopes or pending
            # retries exist: jump the clock to the next event instead of
            # burning one no-op step per tick.
            if nxt > self._tick:
                self._tick = nxt
                self._maybe_crash()
            self._pump()
            return True

    def _drain_threads(self, timeout: Optional[float] = None) -> int:
        """Thread transport: drain, then pump chaos work until none remains."""
        total = 0
        while True:
            total += self._orig_drain(timeout)
            with self._lock:
                self._tick += 1
            # Outside the chaos lock: clearing a dead rank's mailbox
            # takes the transport lock, which workers also hold while
            # they interact with the chaotic wire.  After a drain pass
            # the workers are idle, so this thread owns the tick.
            self._maybe_crash()
            with self._lock:
                nxt = self._next_event_tick()
                if nxt is None:
                    return total
                if nxt > self._tick:
                    self._tick = nxt
                self._pump()

    # -- quiescence -----------------------------------------------------------
    def _pending_messages(self) -> int:
        base = self._orig_pending()
        with self._lock:
            extra = len(self._limbo)
        if self.reliable is not None:
            # Every unacked envelope is potential future work; counting it
            # keeps Oracle/Safra/FourCounter probes honest while a retry
            # is in flight (the delivered copy may have been dropped).
            extra += self.reliable.in_flight()
        return base + extra
