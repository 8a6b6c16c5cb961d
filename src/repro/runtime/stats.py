"""Statistics collection for the active-message runtime.

The paper reasons about cost in terms of *messages* (Sec. IV-A, Figs. 5-6)
rather than wall-clock time, so the runtime keeps detailed, cheap counters:
messages sent (split into local deliveries and remote "network" hops),
handler invocations, coalescing flushes, cache hits, reduction combines,
and termination-detection control messages.  Benchmarks report these
machine-independent quantities.

Counters are grouped per message type and aggregated per epoch so that a
strategy can be profiled epoch by epoch (e.g. one :class:`EpochStats` per
Delta-stepping bucket).
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from time import perf_counter

from .health import HealthStats


@dataclass
class TypeStats:
    """Counters for a single registered message type."""

    sent_local: int = 0
    sent_remote: int = 0
    handler_calls: int = 0
    payload_slots: int = 0  # total payload tuple slots sent (~8 bytes each)
    coalesced_flushes: int = 0
    coalesced_items: int = 0
    cache_hits: int = 0
    reduction_combines: int = 0
    # fast-path observability: how deliveries happened and how long they took
    batch_deliveries: int = 0  # coalesced envelopes delivered
    batch_items: int = 0  # logical payloads inside those envelopes
    handler_batches: int = 0  # delivery calls those envelopes took (merged: fewer)
    vector_deliveries: int = 0  # envelopes handed to a batch (vector) handler
    vector_items: int = 0  # payloads executed by vectorized kernels
    handler_seconds: float = 0.0  # wall time spent inside handlers

    @property
    def sent_total(self) -> int:
        return self.sent_local + self.sent_remote

    @property
    def scalar_deliveries(self) -> int:
        """Handler invocations that ran one payload at a time."""
        return self.handler_calls - self.vector_items

    @property
    def avg_batch_size(self) -> float:
        return self.batch_items / self.batch_deliveries if self.batch_deliveries else 0.0

    @property
    def approx_bytes(self) -> int:
        """Rough traffic estimate: 8 bytes per payload slot."""
        return 8 * self.payload_slots

    def merge(self, other: "TypeStats") -> None:
        """Accumulate ``other`` into ``self``, field by field.

        Enumerates :func:`dataclasses.fields` so that a counter added to
        the dataclass can never be silently forgotten here (every field
        is additive; a future non-additive field must opt out explicitly
        via ``metadata={"merge": False}``).
        """
        for f in dataclasses.fields(self):
            if f.metadata.get("merge", True):
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def snapshot(self) -> "TypeStats":
        """An independent copy carrying every dataclass field."""
        return dataclasses.replace(self)


@dataclass
class ChaosStats:
    """Fault-injection and reliability counters (chaos transport).

    Physical-wire events only: logical message accounting (``TypeStats``
    / ``EpochStats``) is untouched by chaos, so these counters measure
    how much abuse the reliability layer absorbed to keep it that way.
    """

    dropped: int = 0  # data envelopes lost on the wire
    duplicated: int = 0  # envelopes delivered twice by the network
    delayed: int = 0  # envelopes parked in limbo for delay_hops ticks
    reordered: int = 0  # envelopes parked for a short random hold-back
    split_envelopes: int = 0  # coalesced envelopes torn into halves
    stalled: int = 0  # deliveries parked by a rank stall window
    retries: int = 0  # retransmissions fired by the reliable layer
    acks_sent: int = 0  # acknowledgements generated by receivers
    acks_delivered: int = 0  # acknowledgements that reached the sender
    acks_dropped: int = 0  # acknowledgements lost on the wire
    duplicates_suppressed: int = 0  # redeliveries stopped by the dedup window
    crashes: int = 0  # ranks killed mid-epoch by the crash fault

    @property
    def faults_injected(self) -> int:
        return (
            self.dropped
            + self.duplicated
            + self.delayed
            + self.reordered
            + self.split_envelopes
            + self.stalled
            + self.acks_dropped
            + self.crashes
        )


@dataclass
class CheckpointStats:
    """Checkpoint/recovery counters (checkpoint manager + coordinator).

    These measure the snapshot subsystem itself and are therefore *not*
    part of :meth:`StatsRegistry.summary` — a crashed-and-recovered run
    must report the same logical summary as an uninterrupted one, which
    the differential recovery suite asserts.
    """

    snapshots: int = 0  # checkpoints captured (full + incremental)
    full_snapshots: int = 0  # captures that re-encoded every chunk
    restores: int = 0  # rollbacks performed
    rollback_epochs: int = 0  # finished epochs discarded by rollbacks
    chunks_written: int = 0  # chunks re-encoded (dirty at capture time)
    chunks_reused: int = 0  # clean chunks reusing the previous digest
    bytes_written: int = 0  # bytes of *new* blob content stored

    @property
    def dirty_fraction(self) -> float:
        """Fraction of visited chunks that had to be re-encoded."""
        total = self.chunks_written + self.chunks_reused
        return self.chunks_written / total if total else 0.0


@dataclass
class FusionStats:
    """Vector-tier fusion counters (``fast_path="vector"``).

    These describe how often fusion collapsed a message round, not the
    algorithm, so like :class:`CheckpointStats` they are excluded from
    :meth:`StatsRegistry.summary` and :meth:`StatsRegistry.checkpoint_state`.
    Exported as ``repro_fusion_*`` by the reflective Prometheus path.
    """

    fused_rounds: int = 0  # fused gather->evaluate fan-outs
    fused_edges: int = 0  # rank-local edges applied without a message
    remote_rows: int = 0  # rows bulk-appended into coalescing buffers
    fallbacks: int = 0  # actions whose shape the vector tier rejects
    row_fallbacks: int = 0  # rows a lowered action handed to the row walk


@dataclass
class MutationStats:
    """Graph-mutation counters (``Machine.apply_mutations``).

    Like :class:`CheckpointStats` these describe engine administration,
    not the algorithm, so they are excluded from
    :meth:`StatsRegistry.summary` and :meth:`StatsRegistry.checkpoint_state`
    (a rolled-back run must not un-count an applied mutation — the graph
    itself is never rolled back).
    """

    batches_applied: int = 0
    edges_inserted: int = 0
    edges_removed: int = 0
    weights_updated: int = 0
    vertices_added: int = 0
    graph_version: int = 0  # version after the most recent batch


@dataclass
class PartitionStats:
    """Partition-quality and elasticity gauges.

    Quality numbers come from
    :func:`repro.graph.partition.partition_quality`, refreshed whenever
    the placement can change (graph attach, mutation batches,
    ``Machine.rebalance``) and cheaply re-derived from per-rank loads at
    scrape time.  Like :class:`CheckpointStats` these describe engine
    administration, not the algorithm, so they are excluded from
    :meth:`StatsRegistry.summary` and
    :meth:`StatsRegistry.checkpoint_state` (a rolled-back run keeps the
    partition it is actually running on).  Exported as
    ``repro_partition_*`` by the reflective Prometheus path; ``kind``
    rides along as the metric label of ``repro_partition_info``.
    """

    kind: str = ""  # partitioner of the attached graph
    rebalances: int = 0  # Machine.rebalance calls completed
    ranks: int = 0  # rank count after the last (re)attach
    edge_cut: float = 0.0  # fraction of arcs crossing ranks
    replication: float = 0.0  # mean ranks seeing each vertex
    vertex_gini: float = 0.0  # per-rank owned-vertex inequality
    edge_gini: float = 0.0  # per-rank stored-arc inequality
    max_edge_share: float = 0.0  # max-rank arcs / mean (skew factor)


@dataclass
class ServiceStats:
    """Graph-service counters (:mod:`repro.service`).

    Jobs, runs, and result-cache traffic of the long-lived engine
    sitting on top of this machine.  Like :class:`CheckpointStats` these
    describe service administration rather than any single algorithm
    run, so they are excluded from :meth:`StatsRegistry.summary` and
    :meth:`StatsRegistry.checkpoint_state` (a rolled-back machine must
    not forget jobs it already served).  Exported as ``repro_service_*``
    by the reflective Prometheus path.
    """

    jobs_submitted: int = 0  # accepted into the queue
    jobs_completed: int = 0  # finished with a result
    jobs_failed: int = 0  # raised during execution
    jobs_cancelled: int = 0  # cancelled while still queued
    jobs_rejected: int = 0  # refused by admission control (queue full)
    batches_executed: int = 0  # algorithm runs (one per computed job)
    mutations_applied: int = 0  # mutation jobs applied to the graph
    cache_hits: int = 0  # results served from the cache
    cache_misses: int = 0  # submissions that had to compute
    cache_evictions: int = 0  # entries dropped by LRU/byte budget
    cache_invalidations: int = 0  # entries dropped by version bumps
    cache_entries: int = 0  # entries currently resident
    cache_bytes: int = 0  # bytes currently resident


@dataclass
class EpochStats:
    """Aggregate counters for one epoch (or one whole run)."""

    epoch_index: int = 0
    sent_local: int = 0
    sent_remote: int = 0
    handler_calls: int = 0
    payload_slots: int = 0
    coalesced_flushes: int = 0
    cache_hits: int = 0
    reduction_combines: int = 0
    control_messages: int = 0  # termination-detection traffic
    work_items: int = 0  # dependency work-hook firings
    forwarded: int = 0  # hypercube-routing intermediate hops
    wall_seconds: float = 0.0  # wall clock from begin_epoch to end_epoch

    @property
    def sent_total(self) -> int:
        return self.sent_local + self.sent_remote


class StatsRegistry:
    """Central statistics registry owned by a :class:`~repro.runtime.machine.Machine`.

    Tracks per-message-type counters plus running epoch aggregates.  All
    mutation goes through the ``count_*`` methods so that transports and
    layers never touch counter fields directly.
    """

    def __init__(self) -> None:
        self.by_type: dict[str, TypeStats] = {}
        self.epochs: list[EpochStats] = []
        self._current: EpochStats = EpochStats(epoch_index=0)
        self.total: EpochStats = EpochStats(epoch_index=-1)
        self.chaos = ChaosStats()
        self.checkpoint = CheckpointStats()
        self.fusion = FusionStats()
        self.mutations = MutationStats()
        self.health = HealthStats()
        self.service = ServiceStats()
        self.partition = PartitionStats()
        # No-op by default; the thread transport swaps in a real lock so
        # concurrent handlers don't lose counts.
        self.guard = contextlib.nullcontext()

    # -- registration -----------------------------------------------------
    def register_type(self, name: str) -> TypeStats:
        if name in self.by_type:
            raise ValueError(f"message type {name!r} already registered")
        ts = TypeStats()
        self.by_type[name] = ts
        return ts

    # -- epoch lifecycle ----------------------------------------------------
    def begin_epoch(self) -> None:
        self._current = EpochStats(epoch_index=len(self.epochs))
        self._epoch_t0 = perf_counter()

    def end_epoch(self) -> EpochStats:
        t0 = getattr(self, "_epoch_t0", None)
        if t0 is not None:
            self._current.wall_seconds = perf_counter() - t0
            self._epoch_t0 = None
        self.epochs.append(self._current)
        done = self._current
        self._current = EpochStats(epoch_index=len(self.epochs))
        return done

    @property
    def current_epoch(self) -> EpochStats:
        return self._current

    # -- counting -----------------------------------------------------------
    def count_send(self, name: str, remote: bool, slots: int) -> None:
        with self.guard:
            ts = self.by_type[name]
            if remote:
                ts.sent_remote += 1
                self._current.sent_remote += 1
                self.total.sent_remote += 1
            else:
                ts.sent_local += 1
                self._current.sent_local += 1
                self.total.sent_local += 1
            ts.payload_slots += slots
            self._current.payload_slots += slots
            self.total.payload_slots += slots

    def count_handler(self, name: str, n: int = 1) -> None:
        with self.guard:
            self.by_type[name].handler_calls += n
            self._current.handler_calls += n
            self.total.handler_calls += n

    def count_batch_delivery(
        self, name: str, items: int, *, vectorized: bool, joined: bool = False
    ) -> None:
        """One coalesced envelope delivered as a unit (``items`` payloads).

        ``joined`` marks an envelope merged into a delivery call already
        counted, so ``handler_batches`` counts calls, not envelopes.
        """
        with self.guard:
            ts = self.by_type[name]
            ts.batch_deliveries += 1
            ts.batch_items += items
            if not joined:
                ts.handler_batches += 1
            if vectorized:
                ts.vector_deliveries += 1

    def count_vector_items(self, name: str, n: int) -> None:
        """``n`` payloads executed by a vectorized (batch) kernel."""
        with self.guard:
            self.by_type[name].vector_items += n

    def add_handler_time(self, name: str, seconds: float) -> None:
        with self.guard:
            self.by_type[name].handler_seconds += seconds

    def count_flush(self, name: str, items: int) -> None:
        with self.guard:
            ts = self.by_type[name]
            ts.coalesced_flushes += 1
            ts.coalesced_items += items
            self._current.coalesced_flushes += 1
            self.total.coalesced_flushes += 1

    def count_cache_hit(self, name: str) -> None:
        with self.guard:
            self.by_type[name].cache_hits += 1
            self._current.cache_hits += 1
            self.total.cache_hits += 1

    def count_reduction(self, name: str) -> None:
        with self.guard:
            self.by_type[name].reduction_combines += 1
            self._current.reduction_combines += 1
            self.total.reduction_combines += 1

    def count_control(self, n: int = 1) -> None:
        with self.guard:
            self._current.control_messages += n
            self.total.control_messages += n

    def count_work_item(self, n: int = 1) -> None:
        with self.guard:
            self._current.work_items += n
            self.total.work_items += n

    def count_chaos(self, field: str, n: int = 1) -> None:
        """Bump one :class:`ChaosStats` counter (chaos transport only)."""
        with self.guard:
            setattr(self.chaos, field, getattr(self.chaos, field) + n)

    def count_checkpoint(self, field: str, n: int = 1) -> None:
        """Bump one :class:`CheckpointStats` counter."""
        with self.guard:
            setattr(self.checkpoint, field, getattr(self.checkpoint, field) + n)

    def count_fusion(self, field: str, n=1) -> None:
        """Bump one :class:`FusionStats` counter (vector fast path only)."""
        with self.guard:
            setattr(self.fusion, field, getattr(self.fusion, field) + n)

    def count_health(self, field: str, n=1) -> None:
        """Bump one :class:`~repro.runtime.health.HealthStats` counter."""
        with self.guard:
            setattr(self.health, field, getattr(self.health, field) + n)

    def count_service(self, field: str, n=1) -> None:
        """Bump one :class:`ServiceStats` counter (graph service layer)."""
        with self.guard:
            setattr(self.service, field, getattr(self.service, field) + n)

    def set_service(self, field: str, value) -> None:
        """Set a :class:`ServiceStats` gauge (cache residency levels)."""
        with self.guard:
            setattr(self.service, field, value)

    def count_partition(self, field: str, n=1) -> None:
        """Bump one :class:`PartitionStats` counter (rebalances)."""
        with self.guard:
            setattr(self.partition, field, getattr(self.partition, field) + n)

    def set_partition_quality(self, quality) -> None:
        """Refresh the partition gauges from one
        :class:`~repro.graph.partition.PartitionQuality` measurement."""
        with self.guard:
            ps = self.partition
            ps.kind = quality.kind
            ps.ranks = quality.n_ranks
            ps.edge_cut = quality.edge_cut
            ps.replication = quality.replication
            ps.vertex_gini = quality.vertex_gini
            ps.edge_gini = quality.edge_gini
            ps.max_edge_share = quality.max_edge_share

    def count_forward(self) -> None:
        with self.guard:
            self._current.forwarded += 1
            self.total.forwarded += 1

    def count_mutation(self, delta) -> None:
        """Record one applied :class:`~repro.graph.mutate.MutationDelta`."""
        with self.guard:
            mu = self.mutations
            mu.batches_applied += 1
            mu.edges_inserted += len(delta.inserted)
            mu.edges_removed += len(delta.removed)
            mu.weights_updated += len(delta.updated)
            mu.vertices_added += delta.n_vertices_after - delta.n_vertices_before
            mu.graph_version = delta.version

    # -- checkpointing --------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Every logical counter, as plain data.

        Restoring this after a rollback makes the replayed run's message
        accounting identical to an uninterrupted run's — the stats are
        part of the algorithm state, not an observer of it.  The
        :class:`CheckpointStats` themselves are *excluded* (they describe
        the snapshot machinery and must survive rollbacks), and
        ``ChaosStats.crashes`` is preserved across restores so a
        recovered run still reports the crash it absorbed.
        """
        with self.guard:
            return {
                "by_type": {
                    name: dataclasses.asdict(ts)
                    for name, ts in self.by_type.items()
                },
                "epochs": [dataclasses.asdict(e) for e in self.epochs],
                "current": dataclasses.asdict(self._current),
                "total": dataclasses.asdict(self.total),
                "chaos": dataclasses.asdict(self.chaos),
            }

    def restore_state(self, state: dict) -> None:
        with self.guard:
            self.by_type = {
                name: TypeStats(**d) for name, d in state["by_type"].items()
            }
            self.epochs = [EpochStats(**d) for d in state["epochs"]]
            self._current = EpochStats(**state["current"])
            self.total = EpochStats(**state["total"])
            crashes_now = self.chaos.crashes
            self.chaos = ChaosStats(**state["chaos"])
            self.chaos.crashes = max(self.chaos.crashes, crashes_now)

    # -- reporting ------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """Flat dict of headline totals, convenient for bench output."""
        t = self.total
        return {
            "sent_local": t.sent_local,
            "sent_remote": t.sent_remote,
            "sent_total": t.sent_total,
            "handler_calls": t.handler_calls,
            "payload_slots": t.payload_slots,
            "coalesced_flushes": t.coalesced_flushes,
            "cache_hits": t.cache_hits,
            "reduction_combines": t.reduction_combines,
            "control_messages": t.control_messages,
            "work_items": t.work_items,
            "forwarded": t.forwarded,
            "epochs": len(self.epochs),
            "batch_deliveries": sum(ts.batch_deliveries for ts in self.by_type.values()),
            "vector_deliveries": sum(ts.vector_deliveries for ts in self.by_type.values()),
            "vector_items": sum(ts.vector_items for ts in self.by_type.values()),
            "handler_seconds": sum(ts.handler_seconds for ts in self.by_type.values()),
            "epoch_wall_seconds": sum(e.wall_seconds for e in self.epochs),
            "chaos_faults": self.chaos.faults_injected,
            "chaos_retries": self.chaos.retries,
            "chaos_duplicates_suppressed": self.chaos.duplicates_suppressed,
        }

    def chaos_report(self) -> str:
        """One-line-per-counter chaos/reliability summary."""
        c = self.chaos
        rows = [
            ("dropped", c.dropped),
            ("duplicated", c.duplicated),
            ("delayed", c.delayed),
            ("reordered", c.reordered),
            ("split envelopes", c.split_envelopes),
            ("stalled deliveries", c.stalled),
            ("acks sent", c.acks_sent),
            ("acks delivered", c.acks_delivered),
            ("acks dropped", c.acks_dropped),
            ("retries", c.retries),
            ("duplicates suppressed", c.duplicates_suppressed),
        ]
        width = max(len(n) for n, _ in rows)
        return "\n".join(f"{n:<{width}}  {v:>8}" for n, v in rows)

    def checkpoint_report(self) -> str:
        """One-line-per-counter checkpoint/recovery summary."""
        c = self.checkpoint
        rows: list[tuple[str, object]] = [
            ("snapshots", c.snapshots),
            ("full snapshots", c.full_snapshots),
            ("restores", c.restores),
            ("rollback epochs", c.rollback_epochs),
            ("chunks written", c.chunks_written),
            ("chunks reused", c.chunks_reused),
            ("bytes written", c.bytes_written),
            ("dirty fraction", f"{c.dirty_fraction:.3f}"),
        ]
        width = max(len(n) for n, _ in rows)
        return "\n".join(f"{n:<{width}}  {v:>10}" for n, v in rows)

    def health_report(self) -> str:
        """One-line-per-counter health/watchdog summary."""
        h = self.health
        rows: list[tuple[str, object]] = [
            ("progress ticks", h.progress_ticks),
            ("heartbeat checks", h.heartbeat_checks),
            ("stall alerts", h.stall_alerts),
            ("retry storm alerts", h.retry_storm_alerts),
            ("message rate alerts", h.message_rate_alerts),
            ("partition skew alerts", h.partition_skew_alerts),
            ("epochs checked", h.epochs_checked),
            ("message skew", f"{h.message_skew:.3f}"),
            ("handler time skew", f"{h.handler_time_skew:.3f}"),
            ("vertex skew", f"{h.vertex_skew:.3f}"),
            ("edge skew", f"{h.edge_skew:.3f}"),
            ("property map bytes", h.property_map_bytes),
            ("shared memory bytes", h.shared_memory_bytes),
        ]
        width = max(len(n) for n, _ in rows)
        return "\n".join(f"{n:<{width}}  {v:>12}" for n, v in rows)

    def service_report(self) -> str:
        """One-line-per-counter graph-service summary."""
        s = self.service
        rows: list[tuple[str, object]] = [
            ("jobs submitted", s.jobs_submitted),
            ("jobs completed", s.jobs_completed),
            ("jobs failed", s.jobs_failed),
            ("jobs cancelled", s.jobs_cancelled),
            ("jobs rejected", s.jobs_rejected),
            ("runs executed", s.batches_executed),
            ("mutations applied", s.mutations_applied),
            ("cache hits", s.cache_hits),
            ("cache misses", s.cache_misses),
            ("cache evictions", s.cache_evictions),
            ("cache invalidations", s.cache_invalidations),
            ("cache entries", s.cache_entries),
            ("cache bytes", s.cache_bytes),
        ]
        width = max(len(n) for n, _ in rows)
        return "\n".join(f"{n:<{width}}  {v:>10}" for n, v in rows)

    def partition_report(self) -> str:
        """One-line-per-gauge partition quality summary."""
        p = self.partition
        rows: list[tuple[str, object]] = [
            ("partitioner", p.kind or "-"),
            ("ranks", p.ranks),
            ("rebalances", p.rebalances),
            ("edge cut", f"{p.edge_cut:.3f}"),
            ("replication factor", f"{p.replication:.3f}"),
            ("vertex gini", f"{p.vertex_gini:.3f}"),
            ("edge gini", f"{p.edge_gini:.3f}"),
            ("max edge share", f"{p.max_edge_share:.3f}"),
        ]
        width = max(len(n) for n, _ in rows)
        return "\n".join(f"{n:<{width}}  {v:>10}" for n, v in rows)

    def fusion_summary(self) -> str:
        """One-line-per-counter vector-tier fusion summary."""
        n = self.fusion
        rows: list[tuple[str, object]] = [
            ("fused rounds", n.fused_rounds),
            ("fused edges", n.fused_edges),
            ("remote rows", n.remote_rows),
            ("fallbacks", n.fallbacks),
            ("row fallbacks", n.row_fallbacks),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {v:>10}" for name, v in rows)

    def format_table(self) -> str:
        """Human-readable per-type table (used by examples)."""
        header = (
            f"{'message type':<28}{'local':>9}{'remote':>9}{'handled':>9}"
            f"{'flushes':>9}{'cachehit':>9}{'reduced':>9}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.by_type):
            ts = self.by_type[name]
            lines.append(
                f"{name:<28}{ts.sent_local:>9}{ts.sent_remote:>9}"
                f"{ts.handler_calls:>9}{ts.coalesced_flushes:>9}"
                f"{ts.cache_hits:>9}{ts.reduction_combines:>9}"
            )
        return "\n".join(lines)

    def report(self) -> str:
        """Fast-path observability table: scalar vs vectorized deliveries.

        Shows, per message type, how many handler invocations ran one
        payload at a time versus inside a vectorized batch kernel, the
        average coalesced batch size, and wall time spent in handlers.
        """
        header = (
            f"{'message type':<28}{'handled':>9}{'scalar':>9}{'vector':>9}"
            f"{'batches':>9}{'avgbatch':>9}{'time(ms)':>10}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.by_type):
            ts = self.by_type[name]
            lines.append(
                f"{name:<28}{ts.handler_calls:>9}{ts.scalar_deliveries:>9}"
                f"{ts.vector_items:>9}{ts.batch_deliveries:>9}"
                f"{ts.avg_batch_size:>9.1f}{1e3 * ts.handler_seconds:>10.2f}"
            )
        if self.epochs:
            lines.append("")
            lines.append("epochs")
            ehdr = (
                f"{'epoch':>7}{'sent':>10}{'handled':>10}{'control':>9}"
                f"{'wall(ms)':>11}"
            )
            lines.append(ehdr)
            lines.append("-" * len(ehdr))
            for e in self.epochs:
                lines.append(
                    f"{e.epoch_index:>7}{e.sent_total:>10}{e.handler_calls:>10}"
                    f"{e.control_messages:>9}{1e3 * e.wall_seconds:>11.2f}"
                )
        ckpt = self.checkpoint
        if ckpt.snapshots or ckpt.restores:
            lines.append("")
            lines.append("checkpoint/recovery")
            lines.append(self.checkpoint_report())
        fus = self.fusion
        if fus.fused_rounds or fus.fallbacks:
            lines.append("")
            lines.append("fusion")
            lines.append(self.fusion_summary())
        return "\n".join(lines)
