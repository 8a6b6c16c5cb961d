"""Deterministic simulated multi-rank transport.

``SimTransport`` models ``n_ranks`` distributed-memory ranks inside one
process.  Each rank has a FIFO mailbox; a single progress engine repeatedly
picks a rank according to a *scheduling policy* and delivers the envelope
at the head of its mailbox there — together with every queued column
envelope that may join it in one batch-handler call
(:meth:`~repro.runtime.transport.Transport.merge_room`).
Given the same seed and policy every run is bit-identical, which makes the
distributed algorithms in this package unit-testable and the message-count
benchmarks exactly reproducible.

Scheduling policies model the non-determinism of a real machine:

* ``round_robin`` — cycle through ranks, servicing one message each.
* ``random`` — pick a random non-empty rank (seeded).
* ``fifo`` — global arrival order (the most "synchronous" schedule).
* ``lifo`` — newest message first (depth-first-like, stresses algorithms
  whose correctness must not depend on ordering).

Correctness of every algorithm must be schedule-independent (the paper
gives no ordering guarantees beyond epochs); tests sweep policies.

Randomness is split into independently seeded streams per concern
(scheduling, routing tie-breaks, fault injection) via
:func:`~repro.runtime.chaos.derive_rng`.  Historically a single
``random.Random(seed)`` served every consumer, so enabling an unrelated
feature (e.g. a chaos seed, or randomized routing under ``hypercube``)
shifted the scheduling stream and silently changed which interleaving a
test pinned.  With derived streams, the ``random`` schedule's rank picks
are a function of ``(seed, policy)`` alone.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Optional

from .chaos import derive_rng
from .message import Envelope
from .transport import HandlerContext, Transport, merge_key

SCHEDULES = ("round_robin", "random", "fifo", "lifo")


ROUTINGS = ("direct", "hypercube")


class SimTransport(Transport):
    """In-process simulation of a distributed active-message machine.

    ``routing="hypercube"`` enables Active Pebbles-style bit-fixing
    routing: a remote message travels through intermediate ranks fixing
    one differing address bit per hop, so each rank only ever talks to
    its log2(p) hypercube neighbours (bounded "connections") at the cost
    of extra forwarding hops.  Requires a power-of-two rank count.
    """

    def __init__(
        self,
        machine,
        schedule: str = "round_robin",
        seed: int = 0,
        routing: str = "direct",
    ) -> None:
        super().__init__(machine)
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {schedule!r}; pick one of {SCHEDULES}")
        if routing not in ROUTINGS:
            raise ValueError(f"unknown routing {routing!r}; pick one of {ROUTINGS}")
        if routing == "hypercube" and (self.n_ranks & (self.n_ranks - 1)) != 0:
            raise ValueError(
                f"hypercube routing needs a power-of-two rank count, got "
                f"{self.n_ranks}"
            )
        self.schedule = schedule
        self.routing = routing
        self.seed = seed
        # Independent streams: scheduling draws must not be perturbed by
        # any other seeded concern (chaos faults, routing tie-breaks).
        self._sched_rng = derive_rng(seed, "schedule")
        self._route_rng = derive_rng(seed, "routing")
        self._mailboxes: list[deque] = [deque() for _ in range(self.n_ranks)]
        self._contexts = [HandlerContext(machine, r) for r in range(self.n_ranks)]
        self._seq = 0
        self._rr_next = 0  # round-robin cursor
        self._max_handlers: Optional[int] = None  # safety valve for tests
        #: Optional callable (from_rank, to_rank) invoked for every
        #: physical rank-to-rank transfer, including routing forwards.
        #: Used by analysis tooling to observe real connection usage.
        self.hop_observer = None

    # -- queueing ---------------------------------------------------------------
    def _next_hop(self, at: int, dest: int) -> int:
        """Fix the lowest differing address bit (bit-fixing route)."""
        diff = at ^ dest
        return at ^ (diff & -diff)

    def _enqueue(self, env: Envelope, batch: bool = False) -> None:
        if (
            self.routing == "hypercube"
            and env.src >= 0
            and env.src != env.dest
        ):
            at = self._next_hop(env.src, env.dest)
        else:
            at = env.dest
        if self.hop_observer is not None and env.src >= 0 and env.src != at:
            self.hop_observer(env.src, at)
        self._put(env, batch, at)

    def _put(self, env: Envelope, batch: bool, at: int) -> None:
        self._seq += 1
        box = self._mailboxes[at]
        if self.schedule == "lifo":
            box.appendleft((self._seq, env, batch, at))
        else:
            box.append((self._seq, env, batch, at))

    def context_for(self, rank: int) -> HandlerContext:
        return self._contexts[rank]

    # -- checkpointing --------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Scheduler cursors and RNG streams, captured at quiescence.

        Restoring this makes the post-rollback schedule — which rank is
        picked, every random draw — identical to the first execution of
        the rolled-back epochs, so a recovered run replays bit-for-bit.
        Mailboxes are *not* captured: a checkpoint is only taken when
        they are empty, and restore clears them to enforce that.
        """
        return {
            "seq": self._seq,
            "rr_next": self._rr_next,
            "sched_rng": self._sched_rng.getstate(),
            "route_rng": self._route_rng.getstate(),
        }

    def restore_state(self, state: dict) -> None:
        self._seq = state["seq"]
        self._rr_next = state["rr_next"]
        self._sched_rng.setstate(state["sched_rng"])
        self._route_rng.setstate(state["route_rng"])
        for box in self._mailboxes:
            box.clear()

    def pending_messages(self) -> int:
        return sum(len(b) for b in self._mailboxes)

    def resize(self, n_ranks: int) -> None:
        """Rebuild per-rank structures for a new rank count.

        The RNG streams and the global sequence counter carry over — a
        rebalanced run keeps drawing from the same deterministic streams
        rather than restarting them — while the round-robin cursor resets
        (its old position is meaningless under the new rank count).
        """
        if self.routing == "hypercube" and (n_ranks & (n_ranks - 1)) != 0:
            raise ValueError(
                f"hypercube routing needs a power-of-two rank count, got "
                f"{n_ranks}"
            )
        super().resize(n_ranks)
        self._mailboxes = [deque() for _ in range(n_ranks)]
        self._contexts = [
            HandlerContext(self.machine, r) for r in range(n_ranks)
        ]
        self._rr_next = 0

    # -- scheduling ----------------------------------------------------------------
    def _pick_rank(self) -> int:
        nonempty = [r for r in range(self.n_ranks) if self._mailboxes[r]]
        if not nonempty:
            return -1
        if self.schedule == "random":
            return self._sched_rng.choice(nonempty)
        if self.schedule == "fifo":
            return min(nonempty, key=lambda r: self._mailboxes[r][0][0])
        if self.schedule == "lifo":
            return max(nonempty, key=lambda r: self._mailboxes[r][0][0])
        # round_robin
        for off in range(self.n_ranks):
            r = (self._rr_next + off) % self.n_ranks
            if self._mailboxes[r]:
                self._rr_next = (r + 1) % self.n_ranks
                return r
        return -1  # pragma: no cover - unreachable (nonempty checked)

    # -- progress ---------------------------------------------------------------
    def step(self) -> int:
        """Deliver at one rank; returns the envelopes taken there (0 when
        no message is waiting)."""
        r = self._pick_rank()
        if r < 0:
            return 0
        box = self._mailboxes[r]
        _, env, batch, at = box.popleft()
        if at != env.dest:
            # intermediate hypercube hop: forward one bit closer
            self.machine.stats.count_forward()
            nxt = self._next_hop(at, env.dest)
            if self.hop_observer is not None:
                self.hop_observer(at, nxt)
            self._put(env, batch, nxt)
            return 1
        more = self._take_mergeable(box, env, batch)
        self.run_handler(env, batch, more)
        return 1 + len(more)

    def _take_mergeable(self, box: deque, env: Envelope, batch: bool) -> tuple:
        """Take the column envelopes queued in ``box`` that may join
        ``env``'s delivery (:meth:`Transport.merge_room`): same type and
        :func:`~repro.runtime.transport.merge_key`, already at their
        destination (a hypercube forward is not), until the merged rows
        reach the cap.  The envelopes left behind keep their order."""
        key, room = self.merge_room(env, batch)
        if key is None:
            return ()
        taken: list = []
        kept: list = []
        for i, item in enumerate(box):
            if room <= 0:
                kept.extend(islice(box, i, None))
                break
            e = item[1]
            if (
                item[2]
                and e.type_id == env.type_id
                and item[3] == e.dest
                and merge_key(e.payload) == key
            ):
                taken.append(e)
                room -= e.payload.nrows
            else:
                kept.append(item)
        if taken:
            box.clear()
            box.extend(kept)
        return tuple(taken)

    def drain(self, budget: Optional[int] = None) -> int:
        """Run handlers until quiescence (mailboxes and layer buffers empty).

        ``budget`` optionally bounds handler invocations, raising
        ``RuntimeError`` when exceeded — a guard against diverging
        fixed-point algorithms in tests.
        """
        tel = self.machine.telemetry
        if not tel.enabled:
            return self._drain(budget)
        with tel.phase("drain"):
            return self._drain(budget)

    def _drain(self, budget: Optional[int] = None) -> int:
        ran = 0
        limit = budget if budget is not None else self._max_handlers
        while True:
            while n := self.step():
                ran += n
                if limit is not None and ran > limit:
                    raise RuntimeError(
                        f"drain exceeded handler budget ({limit}); "
                        "algorithm may not be terminating"
                    )
            # Mailboxes are empty; buffered layer items may still exist.
            pending = self.pending_layer_items()
            if pending == 0:
                break
            self.flush_layers()
            if self.pending_messages() == 0 and self.pending_layer_items() >= pending:
                raise RuntimeError(
                    "layer flush made no progress; a layer is holding "
                    "items it cannot emit (check buffer src-rank keys)"
                )
        return ran

    def drain_some(self, max_handlers: int) -> int:
        """Best-effort progress: run at most ``max_handlers`` handlers.

        This implements the paper's ``epoch_flush`` semantics: "perform as
        much work as possible with a reasonable system load, then hand
        control back to the calling code".
        """
        ran = 0
        while ran < max_handlers:
            n = self.step()
            if not n:
                if self.pending_layer_items() == 0:
                    break
                self.flush_layers()
                continue
            ran += n
        return ran
