"""The Machine: ranks x threads facade over the runtime substrate.

A :class:`Machine` bundles a message registry, an address resolver, a
statistics registry, a transport, and a termination detector, and exposes
the surface the rest of the library programs against:

* :meth:`register` — declare a typed active message (with optional
  caching / reduction / coalescing layers, as in AM++);
* :meth:`set_owner_map` / :meth:`attach_graph` — install vertex-to-rank
  addressing;
* :meth:`epoch` — open an epoch scope (Sec. III-D);
* :meth:`inject` — driver-side action invocation (models the SPMD driver
  running at the destination rank, hence a *local* post);
* :meth:`run_spmd` — run a per-rank program on real threads, for
  algorithms that need genuine thread-local control flow such as the
  paper's distributed Delta-stepping with ``try_finish``.

Example
-------
>>> m = Machine(n_ranks=2)
>>> seen = []
>>> echo = m.register("echo", lambda ctx, p: seen.append((ctx.rank, p[0])),
...                   dest_rank_of=lambda p: p[0] % 2)
>>> with m.epoch() as ep:
...     ep.invoke(echo, (3,))
>>> seen
[(1, 3)]
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Union

from .addressing import AddressResolver
from .caching import CachingLayer
from .chaos import ChaosConfig, ChaosTransport
from .checkpoint import CheckpointConfig, CheckpointManager
from .coalescing import CoalescingLayer
from .epoch import Epoch
from .flight import FlightRecorder
from .health import HealthMonitor, ObserveConfig, resolve_observe
from .message import MessageRegistry, MessageType
from .process import ProcessTransport
from .reductions import ReductionLayer
from .reliable import ReliableConfig, ReliableDelivery
from .sim import SimTransport
from .stats import StatsRegistry
from .telemetry import Telemetry, TelemetryConfig, make_telemetry
from .termination import make_detector
from .threads import ThreadTransport
from .transport import HandlerContext

#: Valid values for ``Machine(fast_path=...)``.
FAST_PATHS = ("off", "compiled", "vector", "native")


class Machine:
    """A simulated (or threaded) distributed machine of ``n_ranks`` ranks."""

    def __init__(
        self,
        n_ranks: int = 4,
        transport: str = "sim",
        *,
        schedule: str = "round_robin",
        seed: int = 0,
        threads_per_rank: int = 1,
        detector: str = "oracle",
        routing: str = "direct",
        fast_path: str = "compiled",
        native_backend: Optional[str] = None,
        chaos: Optional[ChaosConfig] = None,
        reliable: Union[ReliableConfig, bool, None] = None,
        telemetry: Union[str, TelemetryConfig, None] = None,
        checkpoint: Union[CheckpointConfig, bool, None] = None,
        observe: Union[ObserveConfig, bool, int, str, None] = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if fast_path not in FAST_PATHS:
            raise ValueError(
                f"unknown fast_path {fast_path!r}; use one of {FAST_PATHS}"
            )
        # ``native_backend`` survives only as a keyword for callers that
        # still pass it: None and "interp" (numpy, the one implementation)
        # are accepted and not stored; any other value names the removal.
        if native_backend not in (None, "interp"):
            raise ValueError(
                f"native_backend={native_backend!r} was removed: "
                "fast_path='native' is the vector tier plus proven fusion "
                "and has no other backend"
            )
        self.n_ranks = n_ranks
        #: Execution strategy for bound patterns: ``"off"`` walks the
        #: expression tree per message (reference semantics), ``"compiled"``
        #: runs per-step closures compiled at bind() time, ``"vector"``
        #: additionally installs numpy batch kernels for recognizable plan
        #: shapes (falling back to the compiled walk otherwise), and
        #: ``"native"`` is ``"vector"`` plus gather->evaluate fusion where
        #: the planner proves it legal
        #: (:func:`repro.patterns.locality.fusion_report`).
        self.fast_path = fast_path
        self.registry = MessageRegistry()
        self.resolver = AddressResolver(n_ranks)
        self.stats = StatsRegistry()
        #: Causal telemetry hub (docs/OBSERVABILITY.md).  Always present;
        #: its level ("off" | "counters" | "spans") decides what it records.
        self.telemetry: Telemetry = make_telemetry(self, telemetry)
        # -- live observability (docs/OBSERVABILITY.md) ----------------------
        #: Resolved ``observe=`` argument: None (default) arms the flight
        #: recorder and health watchdog counters; True / a port number /
        #: an ObserveConfig additionally serves /metrics, /healthz and
        #: /status over HTTP with a stall heartbeat; False disarms all of
        #: it (A/B overhead benches).
        self.observe: ObserveConfig = resolve_observe(observe)
        #: Always-on black box of runtime events (dumped on crashes).
        self.flight = FlightRecorder(
            self, self.observe.flight, enabled=self.observe.enabled
        )
        #: Watchdogs + per-rank load accounting; hooks in the transport
        #: and epoch paths check ``enabled`` before touching it.
        self.health = HealthMonitor(
            self, self.observe.health, enabled=self.observe.enabled
        )
        #: Background HTTP endpoint, when serving (analysis/serve.py).
        self.observer = None
        self._active_epoch: Optional[Epoch] = None
        self.graph = None  # set by attach_graph
        if transport == "sim":
            self.transport = SimTransport(
                self, schedule=schedule, seed=seed, routing=routing
            )
        elif transport == "threads":
            if routing != "direct":
                raise ValueError("hypercube routing is only supported on the sim transport")
            self.transport = ThreadTransport(self, threads_per_rank=threads_per_rank)
            self.stats.guard = threading.Lock()
        elif transport == "process":
            if routing != "direct":
                raise ValueError("hypercube routing is only supported on the sim transport")
            self.transport = ProcessTransport(self)
        else:
            raise ValueError(
                f"unknown transport {transport!r}; use 'sim', 'threads', or 'process'"
            )
        # Kind string kept: rebalance rebuilds the detector (its per-rank
        # counters are sized to n_ranks) from the same configuration.
        self._detector_kind = detector
        self.detector = make_detector(detector, self)
        # -- fault injection + reliable delivery (Sec. "FAULTS" in docs) ----
        #: ChaosTransport controller when chaos/reliability is installed.
        self.chaos: Optional[ChaosTransport] = None
        #: ReliableDelivery state machine, when installed.
        self.reliable: Optional[ReliableDelivery] = None
        if chaos is not None or reliable:
            ccfg = chaos if chaos is not None else ChaosConfig()
            if reliable is None:
                # Chaos implies reliability unless explicitly disabled:
                # without it a lossy channel breaks algorithm results and
                # (for real detectors) termination itself.
                reliable = chaos is not None
            if reliable is True:
                self.reliable = ReliableDelivery(ReliableConfig(), self.stats)
            elif isinstance(reliable, ReliableConfig):
                self.reliable = ReliableDelivery(reliable, self.stats)
            if ccfg.lossy and self.reliable is None and detector != "oracle":
                raise ValueError(
                    "a lossy chaos config without reliable delivery can never "
                    f"satisfy the {detector!r} detector's send/receive balance; "
                    "use detector='oracle' (best-effort mode) or enable "
                    "reliability"
                )
            self.chaos = ChaosTransport(self.transport, ccfg, self.reliable)
        #: Mutation batches queued via :meth:`queue_mutations`, applied at
        #: the next epoch boundary.  Entries are ``(batch, weight_map)``
        #: where ``weight_map`` is a map object or its registered name
        #: (names appear after a checkpoint restore).
        self._pending_mutations: list = []
        # -- checkpointing (after chaos: the manager snapshots machine.chaos) --
        #: CheckpointManager when epoch-aligned snapshots are enabled
        #: (docs/RECOVERY.md); ``None`` keeps the hot path untouched.
        self.checkpoints: Optional[CheckpointManager] = None
        if checkpoint:
            self.enable_checkpoints(
                checkpoint if isinstance(checkpoint, CheckpointConfig) else None
            )
        if self.observe.enabled and self.observe.serve:
            self.start_observer()

    def start_observer(self):
        """Start the live HTTP endpoint + stall heartbeat (idempotent).

        Returns the :class:`~repro.analysis.serve.MetricsServer`; its
        ``port`` attribute carries the bound (possibly ephemeral) port.
        """
        if self.observer is None:
            from ..analysis.serve import MetricsServer

            self.observer = MetricsServer(
                self, host=self.observe.host, port=self.observe.port
            )
            self.observer.start()
            self.health.start_heartbeat()
        return self.observer

    def enable_checkpoints(
        self, config: Optional[CheckpointConfig] = None
    ) -> CheckpointManager:
        """Install a :class:`CheckpointManager` (idempotent without config)."""
        if self.checkpoints is not None:
            if config is not None and config is not self.checkpoints.config:
                raise RuntimeError(
                    "checkpointing is already enabled with a different "
                    "config; build a fresh Machine to reconfigure"
                )
            return self.checkpoints
        self.checkpoints = CheckpointManager(self, config)
        # Pending mutation batches are machine state: capture them so a
        # crash between queueing and application replays the queue.
        self.checkpoints.register_state(_MutationQueueState(self))
        return self.checkpoints

    # -- registration ----------------------------------------------------------
    def register(
        self,
        name: str,
        handler: Callable[[HandlerContext, tuple], None],
        *,
        address_of: Optional[Callable[[tuple], int]] = None,
        dest_rank_of: Optional[Callable[[tuple], int]] = None,
        cache: Optional[CachingLayer] = None,
        reduction: Optional[ReductionLayer] = None,
        coalescing: Optional[Union[CoalescingLayer, int]] = None,
    ) -> MessageType:
        """Register a message type, installing layers outermost-first.

        Layer order is fixed to AM++'s sensible stack: the cache drops
        duplicates first, the reduction combines survivors, and coalescing
        batches whatever remains onto the wire.
        """
        mtype = MessageType(
            name, handler, address_of=address_of, dest_rank_of=dest_rank_of
        )
        self.registry.add(mtype)
        if name in self.stats.by_type:
            # The registry (which just accepted the name) is the dup guard;
            # a stats-only entry can only come from a checkpoint restored
            # *before* the pattern was bound (``--restore-from``).  Adopt
            # the restored counters so resumed accounting stays exact.
            pass
        else:
            self.stats.register_type(name)
        if isinstance(coalescing, int):
            coalescing = CoalescingLayer(buffer_size=coalescing)
        for layer in (cache, reduction, coalescing):
            if layer is not None:
                layer.attach(self, mtype)
                mtype.layers.append(layer)
        return mtype

    # -- addressing ----------------------------------------------------------
    def set_owner_map(self, owner: Callable[[int], int]) -> None:
        self.resolver.set_owner_map(owner)

    def attach_graph(self, graph) -> None:
        """Use a :class:`~repro.graph.distributed.DistributedGraph` for addressing."""
        from ..graph.partition import partition_name

        if graph.n_ranks != self.n_ranks:
            raise ValueError(
                f"graph is partitioned over {graph.n_ranks} ranks but the "
                f"machine has {self.n_ranks}"
            )
        self.graph = graph
        self.set_owner_map(graph.owner)
        # Cheap partition gauges only (O(p)); the O(m) edge-cut/replication
        # sweep runs where it is explicitly asked for — rebalance, the
        # `repro partition` CLI, and graph_quality() callers.
        ps = self.stats.partition
        ps.kind = partition_name(graph.partition)
        ps.ranks = graph.n_ranks
        if self.health.enabled:
            self.health.refresh_skew()

    # -- graph mutations -----------------------------------------------------
    def apply_mutations(self, batch, *, weight_map=None):
        """Apply a :class:`~repro.graph.mutate.MutationBatch` to the
        attached graph at a quiescent boundary.

        Orchestrates everything :func:`~repro.graph.mutate.apply_batch`
        cannot do alone: proves quiescence, quiesces/releases a
        shared-memory process transport (so map migration never writes
        into live segments), resets message-layer state (a caching layer's
        duplicate-suppression memory refers to pre-mutation values), and
        re-registers checkpointed maps so dirty tracking matches the new
        storage shapes.  Returns the :class:`MutationDelta`.

        Inside an epoch, use :meth:`queue_mutations` instead.
        """
        from ..graph.mutate import apply_batch

        if self.graph is None:
            raise RuntimeError(
                "apply_mutations requires an attached graph (attach_graph "
                "or bind a pattern first)"
            )
        if self._active_epoch is not None:
            raise RuntimeError(
                "apply_mutations inside an active epoch; use "
                "queue_mutations(batch) to apply at the epoch boundary"
            )
        if self.transport.pending_messages() or self.transport.pending_layer_items():
            raise RuntimeError(
                "apply_mutations with messages in flight; drain the "
                "machine first"
            )
        invalidate = getattr(self.transport, "invalidate_graph", None)
        if invalidate is not None:
            invalidate()
        delta = apply_batch(self.graph, batch, weight_map=weight_map)
        # Stale layer state refers to pre-mutation topology and values:
        # a caching layer would suppress re-sends of values it already saw,
        # breaking incremental restarts.
        for mtype in self.registry:
            for layer in mtype.layers:
                layer.reset()
        if self.checkpoints is not None:
            # Re-register every map: storage shapes (and therefore dirty
            # trackers) changed, and pre-mutation incremental manifests
            # must not be delta-encoded against.
            for pm in list(self.checkpoints.maps().values()):
                self.checkpoints.register_map(pm)
        self.stats.count_mutation(delta)
        self.flight.record(
            "mutation",
            version=delta.version,
            inserted=len(delta.inserted),
            removed=len(delta.removed),
            updated=len(delta.updated),
        )
        tel = self.telemetry
        if tel.enabled:
            tel.event(
                "mutation",
                args={
                    "version": delta.version,
                    "inserted": len(delta.inserted),
                    "removed": len(delta.removed),
                    "updated": len(delta.updated),
                    "vertices_added": delta.n_vertices_after
                    - delta.n_vertices_before,
                },
            )
        return delta

    # -- rank elasticity -----------------------------------------------------
    def rebalance(self, *, new_ranks=None, partitioner=None):
        """Repartition the attached graph — optionally onto a different
        rank count — at a quiescent epoch boundary.

        ``partitioner`` is a registry kind (``"block"`` / ``"cyclic"`` /
        ``"hash"`` / ``"degree"`` / ``"grid2d"``), a ready
        :class:`~repro.graph.partition.Partition` instance, or ``None``
        to keep the current kind; data-dependent kinds are rebuilt from
        the graph's *current* out-degrees, so a rebalance after mutations
        re-packs against the topology that actually exists.  ``new_ranks``
        defaults to the current rank count (pure re-placement).

        The sequence is checkpoint -> repartition -> restore: the
        transport is quiesced and its shared state released (on the
        process transport this drains the fleet, folds worker accounting
        back, stops the workers, and privatizes the shm maps — the same
        machinery ``restore_state`` uses), every vertex/edge property
        value is carried across the ownership shuffle by global id / gid,
        and every rank-count-dependent runtime component (resolver,
        detector, transport mailboxes, health accounting, layer buffers,
        checkpoint trackers) is rebuilt for the new size.  Results are
        bit-identical to never having rebalanced; only placement — and
        hence the local/remote message split — changes.

        Returns the :class:`~repro.graph.partition.PartitionQuality` of
        the new placement.  Inside a service, rebalance rides the same
        admission barrier as mutations (``GraphEngine.rebalance``).
        """
        import numpy as np

        from ..graph.mutate import repartition
        from ..graph.partition import (
            PARTITIONS,
            Partition,
            make_partition,
            partition_name,
            partition_quality,
        )

        if self.graph is None:
            raise RuntimeError(
                "rebalance requires an attached graph (attach_graph or "
                "bind a pattern first)"
            )
        if self._active_epoch is not None:
            raise RuntimeError(
                "rebalance inside an active epoch; rebalancing is only "
                "legal at quiescent epoch boundaries"
            )
        if self.transport.pending_messages() or self.transport.pending_layer_items():
            raise RuntimeError(
                "rebalance with messages in flight; drain the machine first"
            )
        graph = self.graph
        n = graph.n_vertices
        old_ranks = self.n_ranks
        target = old_ranks if new_ranks is None else int(new_ranks)
        if target < 1:
            raise ValueError("new_ranks must be >= 1")
        src, trg = graph.edge_arrays()
        if isinstance(partitioner, Partition):
            part = partitioner
            if part.n_vertices != n:
                raise ValueError(
                    f"partitioner covers {part.n_vertices} vertices but "
                    f"the graph has {n}"
                )
            if new_ranks is not None and part.n_ranks != target:
                raise ValueError(
                    f"partitioner spans {part.n_ranks} ranks but "
                    f"new_ranks={target}"
                )
            target = part.n_ranks
        else:
            kind = (
                partitioner
                if partitioner is not None
                else partition_name(graph.partition)
            )
            if kind not in PARTITIONS:
                raise ValueError(
                    f"unknown partitioner {kind!r}; pick one of "
                    f"{sorted(PARTITIONS)} or pass a Partition instance"
                )
            degrees = (
                np.bincount(src, minlength=n)
                if PARTITIONS[kind].data_dependent
                else None
            )
            part = make_partition(kind, n, target, degrees)
        # Quiesce and release transport state tied to the old placement
        # (process: drain + sync worker accounting, stop the fleet,
        # privatize shm so map migration never writes into live segments).
        invalidate = getattr(self.transport, "invalidate_graph", None)
        if invalidate is not None:
            invalidate()
        repartition(graph, part)
        # -- rebuild every rank-count-dependent runtime component ----------
        self.n_ranks = target
        self.resolver.n_ranks = target
        self.set_owner_map(graph.owner)
        self.detector = make_detector(self._detector_kind, self)
        self.transport.resize(target)
        self.health.resize(target)
        if self.reliable is not None:
            # Termination proved every payload delivered; what's left in
            # the retransmission queue is ack-loss bookkeeping naming
            # channels of the old rank space.
            self.reliable.reset()
        # Stale layer state refers to pre-rebalance placement (a caching
        # layer keys duplicate suppression by destination rank), and the
        # coalescing layer pre-sizes its per-source buffers at attach
        # time — re-attach so they cover the new rank count.
        for mtype in self.registry:
            for layer in mtype.layers:
                layer.reset()
                layer.attach(self, mtype)
        if self.checkpoints is not None:
            # Re-register maps (per-rank storage shapes changed) and
            # re-point the system components (detector was rebuilt).
            for pm in list(self.checkpoints.maps().values()):
                self.checkpoints.register_map(pm)
            self.checkpoints._register_system()
        quality = partition_quality(part, src, trg, kind=partition_name(part))
        st = self.stats
        st.count_partition("rebalances")
        st.set_partition_quality(quality)
        if self.health.enabled:
            self.health.refresh_skew()
        self.flight.record(
            "rebalance",
            old_ranks=old_ranks,
            new_ranks=target,
            partitioner=quality.kind,
            version=graph.version,
        )
        tel = self.telemetry
        if tel.enabled:
            tel.event(
                "rebalance",
                args={
                    "old_ranks": old_ranks,
                    "new_ranks": target,
                    "kind": quality.kind,
                    "edge_cut": quality.edge_cut,
                    "max_edge_share": quality.max_edge_share,
                },
            )
        return quality

    def queue_mutations(self, batch, *, weight_map=None) -> None:
        """Queue a batch for application at the next epoch boundary
        (``Epoch.__exit__``, after quiescence and checkpoint capture)."""
        self._pending_mutations.append((batch, weight_map))

    def _apply_pending_mutations(self) -> list:
        """Apply all queued batches (epoch boundary); returns the deltas."""
        deltas = []
        while self._pending_mutations:
            batch, wm = self._pending_mutations.pop(0)
            if isinstance(wm, str):
                # Restored from a checkpoint: resolve the map by its
                # registered checkpoint name.
                maps = self.checkpoints.maps() if self.checkpoints else {}
                if wm not in maps:
                    raise RuntimeError(
                        f"queued mutation references weight map {wm!r} "
                        "which is not registered with the checkpoint "
                        "manager"
                    )
                wm = maps[wm]
            deltas.append(self.apply_mutations(batch, weight_map=wm))
        return deltas

    # -- epochs & driving ----------------------------------------------------
    def epoch(self) -> Epoch:
        return Epoch(self)

    @property
    def active_epoch(self) -> Optional[Epoch]:
        return self._active_epoch

    def inject(
        self,
        mtype: Union[MessageType, str],
        payload: tuple,
        dest: Optional[int] = None,
    ) -> None:
        """Driver-side send.

        Models the SPMD driver invoking an action for a vertex it owns, so
        it is counted as a local post (``src = -1``), never a network hop.
        """
        tel = self.telemetry
        if not tel.enabled:
            self.transport.send(-1, mtype, payload, dest)
            return
        with tel.phase("inject"):
            self.transport.send(-1, mtype, payload, dest)

    def drain(self) -> int:
        """Run all pending work outside an epoch (testing convenience)."""
        return self.transport.drain()

    # -- SPMD mode --------------------------------------------------------------
    def run_spmd(self, program: Callable[["SpmdContext"], object]) -> list:
        """Run ``program(ctx)`` once per rank on real threads.

        Requires the ``threads`` transport.  Returns each rank's return
        value, ordered by rank.  Exceptions in any rank are re-raised in
        the caller (first one wins).
        """
        if not isinstance(self.transport, ThreadTransport):
            raise RuntimeError("run_spmd requires transport='threads'")
        self.transport.start()
        barrier = threading.Barrier(self.n_ranks)
        results: list = [None] * self.n_ranks
        errors: list = []

        def run(rank: int) -> None:
            ctx = SpmdContext(self, rank, barrier)
            try:
                results[rank] = program(ctx)
            except Exception as exc:  # noqa: BLE001 - surfaced to caller
                errors.append(exc)
                try:
                    barrier.abort()
                except Exception:  # pragma: no cover
                    pass

        threads = [
            threading.Thread(target=run, args=(r,), name=f"spmd-{r}")
            for r in range(self.n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return results

    # -- lifecycle ---------------------------------------------------------------
    def shutdown(self) -> None:
        self.health.stop_heartbeat()
        if self.observer is not None:
            self.observer.stop()
            self.observer = None
        self.transport.shutdown()

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class _MutationQueueState:
    """Checkpoint adapter for the pending-mutation queue.

    Weight maps are captured by their checkpoint-registered name and
    resolved back to map objects at application time.
    """

    checkpoint_name = "machine:mutation_queue"

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    def checkpoint_state(self):
        out = []
        for batch, wm in self.machine._pending_mutations:
            name = wm if (wm is None or isinstance(wm, str)) else wm.name
            out.append((batch.to_state(), name))
        return out

    def restore_state(self, state) -> None:
        from ..graph.mutate import MutationBatch

        self.machine._pending_mutations = [
            (MutationBatch.from_state(bstate), name) for bstate, name in state
        ]


class SpmdContext:
    """Per-rank context handed to SPMD programs.

    Provides the paper's epoch surface from *inside* a rank: ``epoch()``
    is collective (all ranks must enter and exit), ``epoch_flush`` waits
    for the system to go momentarily idle, and ``try_finish`` reports
    whether the machine is quiescent right now.
    """

    def __init__(self, machine: Machine, rank: int, barrier: threading.Barrier) -> None:
        self.machine = machine
        self.rank = rank
        self._barrier = barrier

    # -- messaging --------------------------------------------------------------
    def send(self, mtype, payload: tuple, dest: Optional[int] = None) -> None:
        self.machine.transport.send(self.rank, mtype, payload, dest)

    def owner(self, vertex: int) -> int:
        return self.machine.resolver.owner(vertex)

    def is_local(self, vertex: int) -> bool:
        return self.owner(vertex) == self.rank

    # -- collective epoch -----------------------------------------------------------
    def epoch(self) -> "SpmdEpoch":
        return SpmdEpoch(self)

    def barrier(self) -> None:
        self._barrier.wait()

    def epoch_flush(self, budget: int = 1_000_000) -> int:
        return self.machine.transport.drain_some(budget)

    def try_finish(self) -> bool:
        return self.machine.transport.quiescent()


class SpmdEpoch:
    """Collective epoch for SPMD programs (barrier in, drain + barrier out)."""

    def __init__(self, ctx: SpmdContext) -> None:
        self.ctx = ctx

    def __enter__(self) -> "SpmdEpoch":
        self.ctx.barrier()
        if self.ctx.rank == 0:
            self.ctx.machine.stats.begin_epoch()
            self.ctx.machine.telemetry.epoch_begin()
        self.ctx.barrier()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        self.ctx.barrier()  # everyone stopped producing driver-level work
        if self.ctx.rank == 0:
            self.ctx.machine.transport.finish_epoch(self.ctx.machine.detector)
            self.ctx.machine.telemetry.epoch_end()
            self.ctx.machine.stats.end_epoch()
        self.ctx.barrier()  # quiescence proven; all ranks may proceed

    def flush(self, budget: int = 1_000_000) -> int:
        return self.ctx.epoch_flush(budget)

    def try_finish(self) -> bool:
        return self.ctx.try_finish()
