"""Process transport: one OS process per rank, shared-memory property
maps, and a binary wire.

This is the first backend where adding ranks makes wall-clock go *down*.
``SimTransport`` is serial by design (deterministic benchmarks) and
``ThreadTransport`` is GIL-bound; here every rank is a forked OS process
running its handlers — including the vector fast path's numpy kernels —
truly in parallel.

Design (docs/RUNTIME.md has the long-form version):

* **Shared-memory property maps.**  At spawn time every numeric
  :class:`~repro.props.property_map.VertexPropertyMap` bound to a pattern
  has its per-rank slices re-homed into one
  :class:`multiprocessing.shared_memory.SharedMemory` segment
  (:meth:`adopt_rank_storage`).  Rank ``r``'s worker then runs
  ``scatter_extremum`` lock-free on its own slice, and the parent reads
  results with zero copies.  Object-dtype maps cannot live in shm; their
  rank slices are shipped back at every sync point instead.
* **Binary wire.**  Inter-rank messages travel as contiguous frames built
  by :class:`~repro.runtime.wire.WireCodec` — a coalesced envelope becomes
  one header plus packed columns, decoded into a
  :class:`~repro.runtime.wire.WireBatch` that the vectorized
  ``batch_handler`` consumes without materializing per-row tuples.  No
  pickling on the hot path.
* **Frame ledger termination.**  Quiescence uses shared counter arrays
  (the paper's four-counter flavour, applied to physical frames): row
  ``i`` of ``posted`` counts frames index ``i`` put on any queue, ``done``
  counts frames fully processed, and ``extra`` publishes each worker's
  invisible pending work (layer buffers, chaos limbo, unacked
  retransmissions).  The parent declares quiescence only after three
  consecutive stable reads of ``posted == done and extra == 0`` with
  ``posted`` unchanged — immune to torn cross-array reads.  Detector
  traffic (Safra / four-counter) is reconstructed parent-side from shared
  ``det_sent`` / ``det_recv`` arrays, so the installed detector's probe
  cost stays observable.
* **Composition.**  Layers (coalescing/caching/reductions), telemetry
  spans, reliable delivery, chaos injection (except rank crashes) and
  checkpoint *capture* all ride along unchanged.  Parent and workers
  deliver through the shared ``Transport.run_handler``, which opens
  spans and runs chaos admission itself; chaos intercepts only
  ``_enqueue`` / ``pending_messages`` / ``drain``.  Dependency work
  hooks (bucket insertion, fixed-point re-sends) execute parent-side via
  counted feedback frames, since closures over driver state cannot run in
  a forked child.

Known limits, by construction: rank-crash chaos is rejected (a forked
worker cannot lose its mailbox the way the in-process transports model
it); checkpoint *restore* is quiescent respawn-and-restore — live workers
are never rewound in place; the parent stops them, discards in-flight
frames (the moral equivalent of the sim transport clearing mailboxes),
privatizes the shm maps, and the next send respawns workers against
segments republished from the restored content (see ``restore_state``);
``run_spmd`` remains thread-transport-only.
"""

from __future__ import annotations

import atexit
import os
import queue
import signal
import threading
import time
import traceback
import weakref
from collections import deque
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Optional

import numpy as np

from .chaos import derive_rng
from .message import Envelope
from .reliable import AckEnvelope
from .health import HealthStats
from .stats import ChaosStats, EpochStats, FusionStats, TypeStats
from .termination import BLACK, FourCounterDetector, SafraDetector
from .transport import HandlerContext, Transport, merge_key
from .wire import WireCodec, WireStats

_FORK = get_context("fork")

#: Worker inbox poll quantum.  Short enough that idle-side chaos clock
#: advancement and layer flushing stay responsive; the hot path never
#: waits (frames are already queued).
_POLL_S = 0.001
#: Parent drain backoff between ledger reads.
_SPIN_S = 0.0002
#: Consecutive stable ledger reads required to declare quiescence.
_STABLE_READS = 3
#: Minimum real time between idle chaos clock fast-forwards, so a worker
#: cannot burn through the reliable layer's retry budget while an ack is
#: genuinely in flight on a real queue.
_FF_INTERVAL_S = 0.002

# -- crash-path cleanup -------------------------------------------------------

_LIVE: "weakref.WeakSet" = weakref.WeakSet()


def _emergency_cleanup() -> None:
    """atexit: tear down workers and unlink shm even on abrupt exits.

    Workers exit via ``os._exit`` and never run this; only the parent
    does.  ``shutdown()`` makes this a no-op for the normal path.
    """
    for t in list(_LIVE):
        try:
            t._abort_cleanup()
        except Exception:
            pass


atexit.register(_emergency_cleanup)


class _SharedDetectorShim:
    """Worker-side detector stand-in writing shared send/receive counters.

    Single-writer discipline: worker ``r`` only ever sends from rank ``r``
    and only ever handles envelopes destined to ``r``, so index ``r`` of
    each array has exactly one writer and no locking is needed.  The
    parent folds the deltas into the real detector before every probe
    (:meth:`ProcessTransport._sync_detector`).
    """

    __slots__ = ("sent", "recv", "control_messages")

    def __init__(self, sent: np.ndarray, recv: np.ndarray) -> None:
        self.sent = sent
        self.recv = recv
        self.control_messages = 0

    def on_send(self, rank: int) -> None:
        self.sent[rank] += 1

    def on_receive(self, rank: int) -> None:
        self.recv[rank] += 1

    def probe(self) -> bool:  # pragma: no cover - workers never probe
        return False

    def quiescent(self) -> bool:  # pragma: no cover - workers never probe
        return False

    def reset(self) -> None:
        """Shared counters are deltas; the parent owns absolute state."""


class _FeedbackContext(HandlerContext):
    """Context handed to work hooks replayed in the parent.

    ``rank`` is the vertex owner's rank so locality checks and
    ``pmap.get(w, rank=ctx.rank)`` behave exactly as they would inside the
    worker's handler; re-sends go out as driver-injected messages
    (``src=-1``) which keeps send accounting identical to the in-process
    transports (a work-hook re-send was never a *remote* send — it
    originates at the owning rank).
    """

    __slots__ = ()
    src = -1


class ProcessTransport(Transport):
    """Active-message transport over one forked process per rank."""

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self.codec = WireCodec()
        self._started = False
        #: None in the parent; the worker's own rank inside a child.
        self._worker_rank: Optional[int] = None
        #: Pattern-bound property maps (shm candidates), identity-deduped.
        self._adopted: list = []
        self._shm_by_map: dict[int, SharedMemory] = {}
        self._shm_views: dict[int, list] = {}
        #: Wire stats merged in from worker sync blobs.
        self._worker_wire = WireStats()
        self._procs: list = []
        self._inboxes: list = []
        self._to_parent = None
        self._sync_blobs: list = []
        self._spawn_sig: tuple = ()
        #: Message types whose action has a work hook; None = recompute.
        self._hooked: Optional[frozenset] = None
        self._bound_action_cache: dict[int, Any] = {}
        # Worker-only state (populated in _post_fork_init).
        self._me = -1
        self._local: deque = deque()
        #: Decoded inbox frames read ahead by a merged delivery.
        self._held: deque = deque()
        self._feedback: dict[int, list] = {}
        self._last_ff = 0.0
        _LIVE.add(self)

    # ------------------------------------------------------------------
    # map adoption
    # ------------------------------------------------------------------
    def adopt_map(self, pm) -> None:
        """Record a pattern-bound property map for shared-memory backing.

        Called by :class:`~repro.patterns.executor.BoundPattern` at bind
        time.  Actual shm allocation is deferred to :meth:`_spawn` so a
        map bound before the first send costs nothing until workers exist;
        binding a *new* map after spawn triggers a quiescent respawn.
        """
        if self._worker_rank is not None:
            return
        for existing in self._adopted:
            if existing is pm:
                return
        self._adopted.append(pm)

    def _allocate_shm(self) -> None:
        n = self.n_ranks
        for pm in self._adopted:
            if not getattr(pm, "is_numeric", False):
                continue
            if id(pm) in self._shm_by_map:
                continue
            slices = [np.asarray(pm._slices[r]) for r in range(n)]
            offsets = []
            total = 0
            for s in slices:
                offsets.append(total)
                total += (s.nbytes + 15) & ~15  # 16-byte align each rank
            shm = SharedMemory(create=True, size=max(total, 16))
            views = []
            for r, s in enumerate(slices):
                view = np.ndarray(
                    s.shape, dtype=s.dtype, buffer=shm.buf, offset=offsets[r]
                )
                pm.adopt_rank_storage(r, view)
                views.append(view)
            self._shm_by_map[id(pm)] = shm
            self._shm_views[id(pm)] = views

    # ------------------------------------------------------------------
    # spawn / lifecycle
    # ------------------------------------------------------------------
    def hooks_changed(self) -> None:
        self._hooked = None

    def _signature(self) -> tuple:
        # Workers install their feedback appenders at fork time, on the
        # actions hooked then: a hook set or cleared later respawns them.
        if self._hooked is None:
            hooked = set()
            for mt in self.machine.registry:
                ba = self._bound_action(mt.type_id)
                if ba is not None and (ba.work is not None or ba.work_many is not None):
                    hooked.add(mt.type_id)
            self._hooked = frozenset(hooked)
        return (len(self.machine.registry), len(self._adopted), self._hooked)

    def _ensure_started(self) -> None:
        if self._worker_rank is not None:
            return
        if self._started:
            if self._signature() == self._spawn_sig:
                return
            # New message types, maps or work hooks since spawn: respawn
            # at a quiescent boundary so the workers pick them up.
            self._drain(timeout=60.0)
            self._sync_workers()
            self._stop_workers()
        self._spawn()

    def _spawn(self) -> None:
        machine = self.machine
        ch = machine.chaos
        if ch is not None and ch._has_crash:
            raise ValueError(
                "rank-crash chaos is not supported on the process transport: "
                "a forked worker has no transport-owned mailbox to clear; "
                "use transport='sim' or 'threads' for crash/recovery drills"
            )
        for mt in machine.registry:
            self.codec.register(mt)
        self._allocate_shm()
        n = self.n_ranks
        P = n  # parent's ledger index
        self._posted_raw = _FORK.RawArray("q", (n + 1) * (n + 1))
        self._done_raw = _FORK.RawArray("q", n + 1)
        self._extra_raw = _FORK.RawArray("q", n)
        self._det_sent_raw = _FORK.RawArray("q", n)
        self._det_recv_raw = _FORK.RawArray("q", n)
        self._posted_np = np.frombuffer(self._posted_raw, dtype=np.int64).reshape(
            n + 1, n + 1
        )
        self._done_np = np.frombuffer(self._done_raw, dtype=np.int64)
        self._extra_np = np.frombuffer(self._extra_raw, dtype=np.int64)
        self._det_sent_np = np.frombuffer(self._det_sent_raw, dtype=np.int64)
        self._det_recv_np = np.frombuffer(self._det_recv_raw, dtype=np.int64)
        self._det_applied_sent = [0] * n
        self._det_applied_recv = [0] * n
        self._P = P
        # Queues are created fresh per spawn and never touched before the
        # fork, so no feeder thread (or its lock) exists at fork time.
        self._inboxes = [_FORK.Queue() for _ in range(n)]
        self._to_parent = _FORK.Queue()
        self._sync_blobs = []
        self._spawn_sig = self._signature()
        self._procs = []
        self._started = True
        for r in range(n):
            p = _FORK.Process(
                target=self._worker_main, args=(r,), name=f"repro-rank{r}", daemon=True
            )
            self._procs.append(p)
            p.start()

    def shutdown(self) -> None:
        if self._worker_rank is not None:
            return
        if self._started:
            try:
                self._sync_workers()
            except Exception:
                pass
            self._stop_workers()
        self._release_shm()
        # The privatized maps belong to the caller now.
        self._adopted = []
        self._bound_action_cache.clear()

    def invalidate_graph(self) -> None:
        """Quiesce and release shared state ahead of a graph mutation.

        Workers closed over the pre-mutation topology and their map slices
        are views into shm segments sized for it, so both must go: drain,
        sync object-map state back, stop the workers, and privatize every
        adopted map onto the parent heap.  The next send respawns workers
        against the patched graph with freshly sized segments
        (``_adopted`` survives, ``_started`` is False).
        """
        if self._worker_rank is not None:
            raise RuntimeError("invalidate_graph must run in the parent")
        if self._started:
            try:
                self._drain(timeout=60.0)
                self._sync_workers()
            except Exception:
                pass
            self._stop_workers()
        self._release_shm()

    def _stop_workers(self) -> None:
        for inbox in self._inboxes:
            try:
                inbox.put(self.codec.encode_ctrl(("stop",)))
            except Exception:
                pass
        for p in self._procs:
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        for q_ in [*self._inboxes, self._to_parent]:
            if q_ is None:
                continue
            try:
                q_.close()
                q_.join_thread()
            except Exception:
                pass
        self._procs = []
        self._inboxes = []
        self._to_parent = None
        self._started = False

    def _release_shm(self) -> None:
        """Copy map data off the segments, then close and unlink them.

        ``privatize()`` first so the maps outlive the transport (result
        extraction, checkpoint replay, further sim runs); ``_adopted`` is
        kept so a later respawn re-allocates.
        """
        for pm in self._adopted:
            try:
                pm.privatize()
            except Exception:
                pass
        self._shm_views.clear()
        for shm in self._shm_by_map.values():
            try:
                shm.close()
            except BufferError:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._shm_by_map.clear()

    def _abort_cleanup(self) -> None:
        """Crash-path teardown (atexit): no syncing, just reclamation."""
        if self._worker_rank is not None:
            return
        for p in self._procs:
            try:
                if p.is_alive():
                    p.terminate()
            except Exception:
                pass
        self._procs = []
        self._started = False
        self._release_shm()

    def _check_workers_alive(self) -> None:
        for r, p in enumerate(self._procs):
            if p.exitcode is not None:
                raise RuntimeError(
                    f"rank {r} worker exited unexpectedly "
                    f"(exitcode {p.exitcode}) while work was pending"
                )

    # ------------------------------------------------------------------
    # queueing (both roles)
    # ------------------------------------------------------------------
    def _enqueue(self, env: Envelope, batch: bool = False) -> None:
        if self._worker_rank is not None:
            self._worker_enqueue(env, batch)
            return
        self._ensure_started()
        frame = self.codec.encode(env, batch)
        # Ledger before queue: the balance over-counts in-flight frames,
        # never under-counts, so quiescence cannot be declared early.
        self._posted_np[self._P, env.dest] += 1
        self._inboxes[env.dest].put(frame)

    def _worker_enqueue(self, env: Envelope, batch: bool = False) -> None:
        me = self._me
        if isinstance(env, AckEnvelope) and env.channel[0] < 0:
            # Driver-channel ack: the unacked entry lives in the parent's
            # reliable layer (the parent wrapped the send), so the ack
            # must travel there, not loop back locally as it does on the
            # in-process transports.
            frame = self.codec.encode(env, batch)
            self._posted_np[me, self._P] += 1
            self._to_parent.put(frame)
            return
        if env.dest == me:
            # Same-rank messages skip the codec entirely: the 1-rank
            # baseline is codec-free, and multi-rank local traffic pays
            # zero serialization.
            self._posted_np[me, me] += 1
            self._local.append(("msg", env, batch))
            return
        frame = self.codec.encode(env, batch)
        self._posted_np[me, env.dest] += 1
        self._inboxes[env.dest].put(frame)

    def wire_batch(self, mtype, src, dest, payloads) -> None:
        if self._worker_rank is None and src == dest:
            # Parent-side flush of driver-injected coalesced traffic: the
            # coalescing layer re-keys driver sends (src=-1) at their
            # destination, so a flush arrives here with src == dest.  The
            # wire must restore the driver origin: the reliable channel
            # becomes (-1, dest) and the receiving worker routes the ack
            # back to the parent — where the unacked entry actually lives.
            # Without this the channel reads (d, d), indistinguishable
            # from the worker's own rank-local sends, and the ack would
            # retire nothing while the parent retries forever.  The
            # accounting is unchanged (remote=False and on_send(dest)
            # both ways).
            src = -1
        super().wire_batch(mtype, src, dest, payloads)

    def context_for(self, rank: int) -> HandlerContext:
        return HandlerContext(self.machine, rank)

    def pending_messages(self) -> int:
        if not self._started:
            return 0
        posted = int(self._posted_np.sum())
        done = int(self._done_np.sum())
        extra = int(self._extra_np.sum())
        return max(0, posted - done) + extra

    def progress_counter(self) -> int:
        """Live worker progress for the parent's health heartbeat: the
        shared done-ledger sum advances with every envelope a worker
        handles, so mid-epoch progress is visible without any IPC."""
        if not self._started:
            return 0
        return int(self._done_np.sum())

    def resize(self, n_ranks: int) -> None:
        """Adopt a new rank count; workers respawn at the new size.

        Every per-rank structure (shm ledgers, inboxes, worker processes)
        is built by ``_spawn`` from ``self.n_ranks``, so resizing a
        stopped transport is just the rank-count update.  A still-running
        fleet is quiesced and torn down first via ``invalidate_graph`` —
        the same machinery a graph mutation uses — which also privatizes
        the shm maps sized for the old partition.
        """
        if self._worker_rank is not None:
            raise RuntimeError("resize must run in the parent")
        if self._started:
            self.invalidate_graph()
        super().resize(n_ranks)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        if not self._started:
            return {"frames_posted": 0, "frames_done": 0}
        return {
            "frames_posted": int(self._posted_np.sum()),
            "frames_done": int(self._done_np.sum()),
        }

    def restore_state(self, state: dict) -> None:
        """Quiescent respawn-and-restore.

        Live workers cannot rewind: their map slices are views into shm
        segments the rolled-back epochs wrote through, and the frame
        ledgers only move forward.  But a checkpoint's transport state is
        *empty* by construction (capture is only legal at quiescence), so
        restore is a teardown, not a rewind: stop the workers without
        draining — in-flight frames belong to the rolled-back epochs and
        are discarded with the queues, exactly as the sim transport
        clears its mailboxes — then privatize every adopted map onto the
        parent heap.  The checkpoint manager re-applies the restored map
        manifests at the next epoch entry (``apply_pending``), which also
        erases anything a straggling worker wrote between the map restore
        and the stop, and the next send respawns workers against freshly
        sized segments republished from that content.  The captured
        ``frames_posted`` / ``frames_done`` totals are monotonic
        diagnostics, not replayable cursors; the fresh zero ledgers of
        the respawn keep ``pending_messages() == 0`` consistent with
        quiescence.
        """
        if self._worker_rank is not None:
            raise RuntimeError("restore_state must run in the parent")
        if self._started:
            self._stop_workers()
        self._release_shm()

    # ------------------------------------------------------------------
    # parent: progress / quiescence
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> int:
        if self._worker_rank is not None:
            return 0
        tel = self.machine.telemetry
        if not tel.enabled:
            return self._drain(timeout)
        with tel.phase("drain"):
            return self._drain(timeout)

    def _drain(self, timeout: Optional[float] = None) -> int:
        if not self._started:
            if self.pending_layer_items():
                self.flush_layers()  # may enqueue -> spawns
            if not self._started:
                return 0
        start_done = int(self._done_np.sum())
        t0 = time.monotonic()
        stable = 0
        last_posted = -1
        while True:
            progressed = self._pump_parent_inbox()
            if self.pending_layer_items():
                self.flush_layers()
                progressed = True
            if progressed:
                stable = 0
                last_posted = -1
                continue
            posted = int(self._posted_np.sum())
            done = int(self._done_np.sum())
            extra = int(self._extra_np.sum())
            if posted == last_posted and posted == done and extra == 0:
                stable += 1
                if stable >= _STABLE_READS:
                    return int(self._done_np.sum()) - start_done
            else:
                stable = 0
            last_posted = posted
            self._check_workers_alive()
            if timeout is not None and time.monotonic() - t0 > timeout:
                raise TimeoutError(
                    f"process drain timed out after {timeout}s "
                    f"(posted={posted} done={done} extra={extra})"
                )
            time.sleep(_SPIN_S)

    def _pump_parent_inbox(self) -> bool:
        progressed = False
        while True:
            try:
                frame = self._to_parent.get_nowait()
            except queue.Empty:
                return progressed
            progressed = True
            decoded = self.codec.decode(frame)
            if decoded[0] == "ctrl":
                obj = decoded[1]
                tag = obj[0]
                if tag == "work":
                    # Counted frame: apply the hooks, then balance the
                    # ledger under the parent's index.
                    self._apply_work_feedback(obj[1])
                    self._done_np[self._P] += 1
                elif tag == "error":
                    rank, text = obj[1], obj[2]
                    raise RuntimeError(
                        f"rank {rank} worker raised inside a handler:\n{text}"
                    )
                elif tag == "sync_rep":
                    self._sync_blobs.append(obj[1])
                continue
            _, env, batch = decoded
            # Driver-channel acks (and any future parent-destined
            # traffic) take the one delivery path.
            self.run_handler(env, batch)
            self._done_np[self._P] += 1

    def finish_epoch(self, detector) -> None:
        if self._worker_rank is not None:
            return
        tel = self.machine.telemetry
        while True:
            self.drain()  # instance attr: chaos wraps this when installed
            self._sync_detector()
            if not tel.enabled:
                proven = detector.probe()
            else:
                with tel.phase("probe"):
                    proven = detector.probe()
            if proven:
                break
        if self._started:
            self._sync_workers()
            self._mark_maps_dirty()

    # ------------------------------------------------------------------
    # parent: detector reconstruction
    # ------------------------------------------------------------------
    def _sync_detector(self) -> None:
        if not self._started:
            return
        det = self.machine.detector
        for r in range(self.n_ranks):
            ds = int(self._det_sent_np[r]) - self._det_applied_sent[r]
            dr = int(self._det_recv_np[r]) - self._det_applied_recv[r]
            if ds == 0 and dr == 0:
                continue
            self._det_applied_sent[r] += ds
            self._det_applied_recv[r] += dr
            if isinstance(det, FourCounterDetector):
                det.sent[r] += ds
                det.received[r] += dr
            elif isinstance(det, SafraDetector):
                det.ranks[r].balance += ds - dr
                if dr > 0:
                    det.ranks[r].color = BLACK
            # OracleDetector inspects queues directly; nothing to apply.

    # ------------------------------------------------------------------
    # parent: work-hook feedback
    # ------------------------------------------------------------------
    def _bound_action(self, type_id: int):
        """The BoundAction behind a message type, if any (duck-typed)."""
        if type_id in self._bound_action_cache:
            return self._bound_action_cache[type_id]
        ba = None
        try:
            mt = self.machine.registry.by_id(type_id)
        except IndexError:
            mt = None
        if mt is not None:
            owner = getattr(mt.handler, "__self__", None)
            if (
                owner is not None
                and hasattr(owner, "assign_count")
                and hasattr(owner, "change_count")
                and hasattr(owner, "work")
            ):
                ba = owner
        self._bound_action_cache[type_id] = ba
        return ba

    def _apply_work_feedback(self, items) -> None:
        """Replay recorded dependents through the action's hook — batch
        form included — one call per owner rank, recorded order kept."""
        machine = self.machine
        for type_id, vertices in items:
            ba = self._bound_action(type_id)
            if ba is None or (ba.work is None and ba.work_many is None):
                continue
            vs = np.asarray(vertices, dtype=np.int64)
            owners = ba.bound.graph.partition.owner_array(vs)
            # A worker only discovers dependents it owns: one group.
            for r in np.unique(owners).tolist():
                ba.fire_work(_FeedbackContext(machine, r), vs[owners == r])

    # ------------------------------------------------------------------
    # parent: sync points
    # ------------------------------------------------------------------
    def _sync_workers(self, timeout: float = 60.0) -> None:
        """Collect and merge each worker's local state (stats, spans,
        action counters, object-map slices, wire accounting).

        Uncounted control round-trip; callers invoke it at quiescence
        (end of epoch, pre-shutdown, pre-respawn).
        """
        if not self._started:
            return
        self._sync_blobs = []
        for inbox in self._inboxes:
            inbox.put(self.codec.encode_ctrl(("sync",)))
        t0 = time.monotonic()
        while len(self._sync_blobs) < self.n_ranks:
            self._pump_parent_inbox()
            self._check_workers_alive()
            if time.monotonic() - t0 > timeout:
                raise TimeoutError(
                    f"worker sync timed out: {len(self._sync_blobs)}/"
                    f"{self.n_ranks} replies"
                )
            time.sleep(_SPIN_S)
        for blob in self._sync_blobs:
            self._merge_sync_blob(blob)
        self._sync_blobs = []

    def _merge_sync_blob(self, blob: dict) -> None:
        machine = self.machine
        st = machine.stats
        # -- message-type counters ------------------------------------
        for name, d in blob["stats"]["by_type"].items():
            if name not in st.by_type:
                st.register_type(name)
            st.by_type[name].merge(TypeStats(**d))
        # -- epoch aggregates: workers never begin/end epochs, so their
        # whole history sits in "total"; fold it into both the parent's
        # running epoch and its grand total.
        worker_total = EpochStats(**blob["stats"]["total"])
        for f in EpochStats.__dataclass_fields__:
            if f == "epoch_index":
                continue
            v = getattr(worker_total, f)
            setattr(st._current, f, getattr(st._current, f) + v)
            setattr(st.total, f, getattr(st.total, f) + v)
        # -- chaos counters -------------------------------------------
        worker_chaos = ChaosStats(**blob["stats"]["chaos"])
        for f in ChaosStats.__dataclass_fields__:
            setattr(st.chaos, f, getattr(st.chaos, f) + getattr(worker_chaos, f))
        # -- fusion counters (shipped outside checkpoint_state so the
        # recovery differential never sees them) ----------------------
        for f, v in blob.get("fusion", {}).items():
            setattr(st.fusion, f, getattr(st.fusion, f) + v)
        # -- health counters + per-rank load accounting (additive, like
        # fusion; the gauge fields are parent-computed, so workers always
        # ship zeros there and the additive fold is exact) --------------
        for f, v in blob.get("health", {}).items():
            setattr(st.health, f, getattr(st.health, f) + v)
        if blob.get("health_ranks"):
            machine.health.merge_state(blob["health_ranks"])
        # -- flight-recorder rings (worker events fold into the parent's
        # black box with namespaced sequence numbers) ------------------
        if blob.get("flight"):
            machine.flight.merge_state(blob["flight"])
        # -- pattern action counters ----------------------------------
        for type_id, d in blob.get("actions", {}).items():
            ba = self._bound_action(int(type_id))
            if ba is not None:
                ba.assign_count += d["assign"]
                ba.change_count += d["change"]
        # -- object-dtype map slices ----------------------------------
        rank = blob["rank"]
        for mi, data in blob.get("objmaps", {}).items():
            pm = self._adopted[int(mi)]
            pm._slices[rank] = data
        # -- telemetry -------------------------------------------------
        tel = machine.telemetry
        if tel.enabled:
            epoch_now = len(st.epochs)
            for sp in blob.get("spans", ()):
                sp.epoch = epoch_now
                tel.spans.append(sp)
            tel.evicted += blob.get("evicted", 0)
            tel.sampled_out += blob.get("sampled_out", 0)
            for key, (cnt, secs) in blob.get("phase_counters", {}).items():
                c = tel.phase_counters.setdefault(key, [0, 0.0])
                c[0] += cnt
                c[1] += secs
        # -- wire accounting ------------------------------------------
        self._worker_wire.merge_dict(blob.get("wire", {}))
        for type_id, (name, codes, n_bin, n_pkl) in blob.get(
            "wire_schemas", {}
        ).items():
            sch = self.codec.schemas.get(int(type_id))
            if sch is None:
                continue
            if codes is not None:
                sch.col_codes = tuple(codes)
            sch.n_binary += n_bin
            sch.n_pickle += n_pkl

    def _mark_maps_dirty(self) -> None:
        """Worker writes bypass the parent's dirty trackers; conservatively
        mark every adopted map fully dirty so incremental checkpoints
        never capture a stale chunk."""
        for pm in self._adopted:
            if pm.dirty is not None:
                pm.dirty.mark_all()

    def wire_summary(self) -> dict:
        """Combined parent+worker wire-codec accounting plus learned
        schemas (what benchmarks persist into BENCH_process.json)."""
        total = WireStats()
        total.merge(self.codec.stats)
        total.merge(self._worker_wire)
        out = total.snapshot()
        out["schemas"] = {
            sch.name: {
                "col_codes": list(sch.col_codes) if sch.col_codes else None,
                "binary_frames": sch.n_binary,
                "pickle_frames": sch.n_pickle,
            }
            for sch in self.codec.schemas.values()
        }
        return out

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_main(self, rank: int) -> None:
        try:
            self._post_fork_init(rank)
            inbox = self._inboxes[rank]
            held, local = self._held, self._local
            while True:
                # Same-rank sends wait in ``local`` in decoded form.
                if held:
                    decoded = held.popleft()
                elif local:
                    decoded = local.popleft()
                else:
                    try:
                        frame = inbox.get(timeout=_POLL_S)
                    except queue.Empty:
                        try:
                            self._worker_idle()
                        except Exception:
                            self._ship_error(traceback.format_exc())
                        continue
                    decoded = self.codec.decode(frame)
                if decoded[0] == "ctrl":
                    obj = decoded[1]
                    if obj[0] == "stop":
                        os._exit(0)
                    elif obj[0] == "sync":
                        self._ship_sync()
                    continue
                _, env, batch = decoded
                self._handle_counted(env, batch, self._take_mergeable(env, batch, inbox))
        except BaseException:
            try:
                self._ship_error(traceback.format_exc())
            except BaseException:
                pass
            os._exit(1)

    def _take_mergeable(self, env, batch: bool, inbox) -> tuple:
        """The envelopes waiting at this worker that may join ``env``'s
        delivery (:meth:`Transport.merge_room`), until the merged rows
        reach the cap: first from frames already taken off the inbox,
        then from rank-local sends, then from the inbox itself.

        Inbox frames that do not match wait in ``_held`` and are delivered
        next, in arrival order.  A control frame ends the inbox read: it
        is handled after everything that arrived before it.
        """
        key, room = self.merge_room(env, batch)
        if key is None:
            return ()
        type_id = env.type_id
        taken: list = []

        def joins(decoded) -> bool:
            return (
                decoded[0] != "ctrl"
                and decoded[2]
                and decoded[1].type_id == type_id
                and merge_key(decoded[1].payload) == key
            )

        held = self._held
        for box in (held, self._local):
            kept: list = []
            for decoded in box:
                if room > 0 and joins(decoded):
                    taken.append(decoded[1])
                    room -= decoded[1].payload.nrows
                else:
                    kept.append(decoded)
            if len(kept) < len(box):
                box.clear()
                box.extend(kept)
        if held and held[-1][0] == "ctrl":
            return tuple(taken)
        while room > 0:
            try:
                frame = inbox.get_nowait()
            except queue.Empty:
                break
            decoded = self.codec.decode(frame)
            if joins(decoded):
                taken.append(decoded[1])
                room -= decoded[1].payload.nrows
                continue
            held.append(decoded)
            if decoded[0] == "ctrl":
                break
        return tuple(taken)

    def _post_fork_init(self, rank: int) -> None:
        machine = self.machine
        self._worker_rank = rank
        self._me = rank
        self._local = deque()
        self._held = deque()
        self._feedback = {}
        self._last_ff = time.monotonic()
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # -- locks: the fork may have happened while the parent held any
        # of these (chaos._enqueue holds its RLock across the whole
        # pipeline, including our _enqueue -> _spawn); a forked copy of a
        # held lock deadlocks the child, so rebuild them fresh.
        tel = machine.telemetry
        tel._lock = threading.Lock()
        tel.clear()
        # Namespace span/trace ids so merged worker spans can never
        # collide with the parent's or each other's.
        tel._sid = (rank + 1) * 10**12
        tel._next_trace = (rank + 1) * 10**12
        rel = machine.reliable
        if rel is not None:
            rel._lock = threading.RLock()
            rel._next_seq = {}
            rel._unacked = {}
            rel._seen = {}
            rel.retries = 0
            rel.gave_up = 0
        ch = machine.chaos
        if ch is not None:
            ch._lock = threading.RLock()
            # Per-rank fault stream: deterministic per (seed, rank), and
            # decision indices never collide across processes.
            ch._rng = derive_rng(ch.config.seed, f"chaos-rank{rank}")
            ch._limbo = []
            ch._limbo_n = 0
            ch.trace = []
            ch._decision = 0
            ch._tick = 0
        # -- layers: forked buffers belong to the parent (it flushes its
        # own copies); delivering them here too would duplicate payloads.
        for mt in machine.registry:
            for layer in mt.layers:
                reset = getattr(layer, "reset", None)
                if reset is not None:
                    reset()
        # -- stats: zero by replacement (register_type raises on dups);
        # everything this worker counts ships wholesale at sync time.
        st = machine.stats
        st.by_type = {name: TypeStats() for name in st.by_type}
        st.epochs = []
        st._current = EpochStats(epoch_index=0)
        st.total = EpochStats(epoch_index=-1)
        st.chaos = ChaosStats()
        # Fusion counters restart at zero too: the fork inherited the
        # parent's bind-time fallback counts, which the parent already
        # reports; this worker ships only what it does itself.
        st.fusion = FusionStats()
        # Health/flight observability: fresh worker-side accounting (the
        # fork inherited parent counters already reported parent-side);
        # sequence numbers are rank-namespaced like telemetry span ids,
        # and neither the heartbeat thread nor the HTTP observer survives
        # the fork.
        st.health = HealthStats()
        machine.health.reset_after_fork()
        machine.flight.reset_after_fork(rank)
        machine.observer = None
        # -- detector: shared-counter shim (parent reconstructs) --------
        machine.detector = _SharedDetectorShim(self._det_sent_np, self._det_recv_np)
        # -- codec: fresh instance so a respawned worker doesn't inherit
        # the parent's nonzero counters; keep the baseline toggle.
        measure = self.codec.measure_baseline
        self.codec = WireCodec()
        self.codec.measure_baseline = measure
        for mt in machine.registry:
            self.codec.register(mt)
        # -- work hooks: replace with feedback appenders; the real
        # closures (bucket inserts, fixed-point re-sends) run parent-side.
        self._bound_action_cache = {}
        for mt in machine.registry:
            ba = self._bound_action(mt.type_id)
            if ba is not None:
                ba.assign_count = 0
                ba.change_count = 0
                if ba.work is not None or ba.work_many is not None:
                    ba.work, ba.work_many = self._make_appenders(mt.type_id)
        # -- checkpoints are parent-owned -------------------------------
        machine.checkpoints = None
        for pm in self._adopted:
            pm.dirty = None

    def _make_appenders(self, type_id: int):
        """Stand-ins for ``work`` and ``work_many`` that record dependents
        (one flat list per type, discovery order) for the parent."""
        feedback = self._feedback

        def _append(ctx, w) -> None:
            feedback.setdefault(type_id, []).append(int(w))

        def _extend(ctx, vertices) -> None:
            feedback.setdefault(type_id, []).extend(vertices.tolist())

        return _append, _extend

    def _handle_counted(self, env, batch: bool, more: tuple = ()) -> None:
        try:
            self.run_handler(env, batch, more)
        except Exception:
            self._ship_error(traceback.format_exc())
        finally:
            self._flush_feedback()
            # Publish invisible pending work *before* balancing the
            # ledger: the parent must never observe posted == done while
            # this worker still owes limbo releases or retries.
            self._publish_extra()
            self._done_np[self._me] += 1 + len(more)
        ch = self.machine.chaos
        if ch is not None:
            try:
                with ch._lock:
                    ch._tick += 1
                    ch._pump()
            except Exception:
                self._ship_error(traceback.format_exc())
            self._publish_extra()

    def _worker_idle(self) -> None:
        if self.pending_layer_items():
            self.flush_layers()
            self._publish_extra()
            return
        ch = self.machine.chaos
        if ch is None:
            return
        now = time.monotonic()
        if now - self._last_ff < _FF_INTERVAL_S:
            return
        self._last_ff = now
        with ch._lock:
            nxt = ch._next_event_tick()
            if nxt is not None:
                if nxt > ch._tick:
                    ch._tick = nxt
                ch._pump()
        self._publish_extra()

    def _publish_extra(self) -> None:
        n = self.pending_layer_items()
        ch = self.machine.chaos
        if ch is not None:
            n += len(ch._limbo)
        rel = self.machine.reliable
        if rel is not None:
            n += rel.in_flight()
        self._extra_np[self._me] = n

    def _flush_feedback(self) -> None:
        if not self._feedback:
            return
        items = [(tid, ws) for tid, ws in self._feedback.items()]
        # Clear in place: the appender closures hold a reference to this
        # exact dict, so rebinding would orphan them.
        self._feedback.clear()
        frame = self.codec.encode_ctrl(("work", items))
        self._posted_np[self._me, self._P] += 1
        self._to_parent.put(frame)

    def _ship_error(self, text: str) -> None:
        frame = self.codec.encode_ctrl(("error", self._me, text))
        self._to_parent.put(frame)  # uncounted: errors abort the drain

    def _ship_sync(self) -> None:
        machine = self.machine
        tel = machine.telemetry
        # Black-box the worker's epoch contribution before exporting, so
        # every sync ships at least one (seq-namespaced) worker event and
        # merged timelines show per-worker drain boundaries.
        machine.flight.record(
            "sync",
            rank=self._me,
            handled=machine.stats.health.progress_ticks,
        )
        blob: dict = {
            "rank": self._me,
            "stats": machine.stats.checkpoint_state(),
            "actions": {},
            "objmaps": {},
            "fusion": {
                f: getattr(machine.stats.fusion, f)
                for f in FusionStats.__dataclass_fields__
            },
            "health": {
                f: getattr(machine.stats.health, f)
                for f in HealthStats.__dataclass_fields__
            },
            "health_ranks": machine.health.export_state(),
            "flight": machine.flight.export_state(),
            "wire": self.codec.stats.snapshot(),
            "wire_schemas": {
                tid: (sch.name, sch.col_codes, sch.n_binary, sch.n_pickle)
                for tid, sch in self.codec.schemas.items()
            },
        }
        for mt in machine.registry:
            ba = self._bound_action(mt.type_id)
            if ba is not None:
                blob["actions"][mt.type_id] = {
                    "assign": ba.assign_count,
                    "change": ba.change_count,
                }
        for mi, pm in enumerate(self._adopted):
            if not getattr(pm, "is_numeric", False):
                blob["objmaps"][mi] = pm._slices[self._me]
        if tel.enabled:
            blob["phase_counters"] = tel.counters_snapshot()
            blob["evicted"] = tel.evicted
            blob["sampled_out"] = tel.sampled_out
        if tel.spans_on:
            blob["spans"] = tel.snapshot_spans()
        self._to_parent.put(self.codec.encode_ctrl(("sync_rep", blob)))
        self._zero_worker_state()

    def _zero_worker_state(self) -> None:
        machine = self.machine
        st = machine.stats
        st.by_type = {name: TypeStats() for name in st.by_type}
        st.epochs = []
        st._current = EpochStats(epoch_index=0)
        st.total = EpochStats(epoch_index=-1)
        st.chaos = ChaosStats()
        st.fusion = FusionStats()
        st.health = HealthStats()
        machine.health.reset_after_fork()
        # Like telemetry: sequence numbers keep advancing, only the
        # buffered events reset (they were just shipped to the parent).
        machine.flight.clear()
        for mt in machine.registry:
            ba = self._bound_action(mt.type_id)
            if ba is not None:
                ba.assign_count = 0
                ba.change_count = 0
        tel = machine.telemetry
        if tel.enabled:
            tel.clear()  # ids keep advancing; only the buffers reset
        measure = self.codec.measure_baseline
        stats = WireStats()
        self.codec.stats = stats
        self.codec.measure_baseline = measure
        for sch in self.codec.schemas.values():
            sch.n_binary = 0
            sch.n_pickle = 0
