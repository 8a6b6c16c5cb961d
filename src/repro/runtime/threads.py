"""Real-thread transport: one (or more) worker threads per rank.

While :class:`~repro.runtime.sim.SimTransport` is deterministic and used
for benchmarks, ``ThreadTransport`` runs handlers on actual OS threads:

* each rank has a mailbox and ``threads_per_rank`` worker threads
  executing handlers from it;
* with ``threads_per_rank > 1`` handlers on the *same* rank run
  concurrently, so property-map access inside handlers must go through a
  :class:`~repro.props.lockmap.LockMap` — this is exactly the paper's
  Sec. IV-B synchronization scenario ("synchronization is performed by
  atomic instructions where supported ... by locking [otherwise]");
* quiescence is detected with locked send/complete counters checked twice
  (the four-counter scheme), which is safe here because the check holds a
  lock that every state transition also takes.

SPMD programs (one application thread per rank, as in the paper's
distributed Delta-stepping with ``try_finish``) run via
:meth:`~repro.runtime.machine.Machine.run_spmd`, which layers rank program
threads and epoch barriers on top of this transport.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from .message import Envelope
from .transport import HandlerContext, Transport


class ThreadTransport(Transport):
    """Active-message transport over real threads.

    Workers are *event-driven*: an idle worker parks on the shared
    ``Condition`` and is woken by ``notify_all`` from every state
    transition (enqueue, handler completion, shutdown, restore).  There is
    deliberately no timed poll on the worker/drain_some wait paths — an
    earlier revision slept up to 2ms per wakeup, which put a sleep-bound
    floor under idle latency and wasted a core busy-polling empty
    mailboxes (see ``tests/runtime/test_threads.py`` regression test).
    """

    def __init__(self, machine, threads_per_rank: int = 1) -> None:
        super().__init__(machine)
        if threads_per_rank < 1:
            raise ValueError("threads_per_rank must be >= 1")
        self.threads_per_rank = threads_per_rank
        # One worker per rank serializes that rank's handlers; more need
        # real vertex locks.
        self.concurrent_handlers = threads_per_rank > 1
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._mailboxes: list[deque] = [deque() for _ in range(self.n_ranks)]
        self._enqueued = 0
        self._completed = 0
        self._stop = False
        self._started = False
        # RLock: flushing a layer re-enters the send path for lower layers.
        self._layer_lock = threading.RLock()
        self.bulk_guard = self._layer_lock
        self._workers: list[threading.Thread] = []

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for rank in range(self.n_ranks):
            for w in range(self.threads_per_rank):
                t = threading.Thread(
                    target=self._worker,
                    args=(rank, w),
                    name=f"rank{rank}-w{w}",
                    daemon=True,
                )
                self._workers.append(t)
                t.start()

    def shutdown(self) -> None:
        with self._lock:
            self._stop = True
            self._idle.notify_all()
        for t in self._workers:
            t.join(timeout=5.0)
        self._workers.clear()
        self._started = False
        self._stop = False

    # -- queueing -------------------------------------------------------------
    def _enqueue(self, env: Envelope, batch: bool = False) -> None:
        self.start()
        with self._lock:
            self._enqueued += 1
            self._mailboxes[env.dest].append((env, batch))
            self._idle.notify_all()

    def context_for(self, rank: int) -> HandlerContext:
        # Fresh lightweight context per call: workers on a rank may run
        # concurrently and must not share a mutable context.
        return HandlerContext(self.machine, rank)

    def pending_messages(self) -> int:
        with self._lock:
            return self._enqueued - self._completed

    def resize(self, n_ranks: int) -> None:
        """Stop the workers and rebuild mailboxes for a new rank count.

        Workers respawn lazily on the next enqueue (``start`` is called
        from ``_enqueue`` / ``_drain``); the send/complete ledger carries
        over unchanged — both sides are equal at quiescence, which
        :meth:`Transport.resize` enforces.
        """
        if self._started:
            self.shutdown()
        super().resize(n_ranks)
        with self._lock:
            self._mailboxes = [deque() for _ in range(n_ranks)]

    # -- checkpointing --------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Thread transports have no deterministic cursors to save: the
        OS scheduler owns the interleaving.  Only the enqueue ledger is
        captured so a restore can re-balance it."""
        with self._lock:
            return {"enqueued": self._enqueued}

    def restore_state(self, state: dict) -> None:
        with self._lock:
            for box in self._mailboxes:
                box.clear()
            # Everything enqueued counts as handled: the mailboxes are
            # empty and the ledger must agree or drain() blocks forever.
            self._enqueued = state["enqueued"]
            self._completed = self._enqueued
            self._idle.notify_all()

    # -- worker loop -------------------------------------------------------------
    def _worker(self, rank: int, worker: int) -> None:
        while True:
            with self._lock:
                while not self._mailboxes[rank] and not self._stop:
                    # Untimed wait: every producer notifies the condition,
                    # so there is nothing to poll for.
                    self._idle.wait()
                if self._stop:
                    return
                env, batch = self._mailboxes[rank].popleft()
            try:
                self.run_handler(env, batch)
            finally:
                with self._lock:
                    self._completed += 1
                    self._idle.notify_all()

    # -- layer safety: guard shared layer state ------------------------------------
    def _send_through(self, mtype, layer_index, src, dest, payload) -> None:
        if mtype.layers and layer_index < len(mtype.layers):
            with self._layer_lock:
                super()._send_through(mtype, layer_index, src, dest, payload)
        else:
            super()._send_through(mtype, layer_index, src, dest, payload)

    # -- progress / quiescence ------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> int:
        """Block until quiescence (all enqueued handled, buffers empty)."""
        tel = self.machine.telemetry
        if not tel.enabled:
            return self._drain(timeout)
        with tel.phase("drain"):
            return self._drain(timeout)

    def _drain(self, timeout: Optional[float] = None) -> int:
        self.start()
        start_completed = self._completed
        waited = 0.0
        while True:
            with self._lock:
                while self._enqueued != self._completed:
                    if not self._idle.wait(timeout=1.0):
                        waited += 1.0
                        if timeout is not None and waited >= timeout:
                            raise TimeoutError("drain timed out waiting for workers")
            # Momentarily idle; flush layer buffers (may create new work).
            with self._layer_lock:
                pending = self.pending_layer_items()
                if pending:
                    self.flush_layers()
                    continue
            with self._lock:
                if self._enqueued == self._completed:
                    return self._completed - start_completed

    def drain_some(self, max_handlers: int) -> int:
        """Best-effort: wait until ``max_handlers`` more completions or idle."""
        self.start()
        start = self._completed
        with self._lock:
            while (
                self._completed - start < max_handlers
                and self._enqueued != self._completed
            ):
                # Untimed: worker completions always notify.
                self._idle.wait()
            return self._completed - start

    def finish_epoch(self, detector) -> None:
        # The locked double-check in drain() already proves quiescence for
        # this transport; run the installed detector's probe too so its
        # control cost is observable when a non-oracle detector is chosen.
        tel = self.machine.telemetry
        while True:
            self.drain()
            if not tel.enabled:
                if detector.probe():
                    return
            else:
                with tel.phase("probe"):
                    proven = detector.probe()
                if proven:
                    return
