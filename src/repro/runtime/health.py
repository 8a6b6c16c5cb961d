"""Live health: watchdogs, anomaly detectors, and load-skew metrics.

PR 3's telemetry answers "what happened" after a run drains its span
buffers; this module answers "is the machine healthy *right now*".  A
:class:`HealthMonitor` hangs off every :class:`~repro.runtime.machine.
Machine` (disable with ``Machine(observe=False)``) and watches three
families of signals:

* **Liveness** — every delivered envelope bumps a progress tick; a
  heartbeat thread (started when the machine serves its HTTP endpoint)
  flags a *stall* when an epoch is active but no tick has landed within
  ``HealthConfig.stall_deadline`` seconds.  Works identically on the
  sim, thread, and process transports (the process transport contributes
  its shared-memory done counters, so worker progress is visible to the
  parent's heartbeat without any extra IPC).
* **Anomalies** — evaluated at every epoch boundary: a *retry storm*
  (reliable-layer retransmissions in the epoch exceeding a threshold —
  the canonical signature of a lossy or partitioned channel) and a
  *message-rate anomaly* (an epoch sending an order of magnitude more
  than the trailing window's mean — usually a diverging strategy or a
  mis-tuned delta bucket).
* **Load skew** — per-rank message/handler-time distributions observed
  live, plus the static vertex/edge partition balance, each condensed to
  a Gini coefficient in [0, 1) (0 = perfectly balanced).  These are the
  inputs the elastic-partitioning roadmap item needs, surfaced as gauges
  today.  Memory accounting (property-map bytes, shared-memory segments)
  rides along, refreshed on scrape so the hot path never pays for it.

Everything lands in :class:`HealthStats` — a plain dataclass on the
:class:`~repro.runtime.stats.StatsRegistry` — so the reflective
Prometheus exporter publishes every field as ``repro_health_*`` with no
exporter changes, and the process transport ships worker-side counters
home through the same sync-blob mechanism as :class:`NativeStats`.
Like checkpoint/native stats, health counters are *excluded* from
``summary()`` and ``checkpoint_state()``: observing a run must never
change its logical accounting (the differential suites assert this).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import time as _wall
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine
    from .stats import EpochStats

#: Watchdog names, in report order.
WATCHDOGS = ("stall", "retry_storm", "message_rate", "partition_skew")


@dataclass
class HealthStats:
    """Health counters and gauges, exported as ``repro_health_*``.

    Counter fields (additive across process-transport sync blobs):
    ``progress_ticks`` through ``epochs_checked``.  Gauge fields (the
    ``*_skew`` and ``*_bytes`` families) are computed parent-side only,
    so additive blob merging never double-counts them — workers always
    ship zeros there.
    """

    progress_ticks: int = 0  # envelopes delivered (liveness signal)
    heartbeat_checks: int = 0  # stall evaluations performed
    stall_alerts: int = 0  # stall watchdog rising edges
    retry_storm_alerts: int = 0  # retry-storm rising edges
    message_rate_alerts: int = 0  # message-rate rising edges
    partition_skew_alerts: int = 0  # partition-skew rising edges
    epochs_checked: int = 0  # epoch-boundary evaluations
    message_skew: float = 0.0  # Gini over per-rank delivered messages
    handler_time_skew: float = 0.0  # Gini over per-rank handler seconds
    vertex_skew: float = 0.0  # Gini over partition vertex counts
    edge_skew: float = 0.0  # Gini over partition edge counts
    property_map_bytes: int = 0  # live property-map storage
    shared_memory_bytes: int = 0  # process-transport shm segments


@dataclass(frozen=True)
class HealthConfig:
    """Watchdog thresholds and cadence.

    ``stall_deadline``: seconds without a progress tick (while an epoch
    is active) before the stall watchdog fires.  ``heartbeat_interval``:
    seconds between heartbeat-thread evaluations.  ``retry_storm_
    threshold``: reliable-layer retries within one epoch that count as a
    storm.  ``message_rate_factor``: an epoch sending more than this
    multiple of the trailing-window mean fires the rate watchdog (after
    ``min_history`` epochs of warm-up, over a ``history``-epoch window).
    ``partition_skew_factor``: the busiest rank storing more than this
    multiple of the mean per-rank arc load fires the skew watchdog — the
    operator signal to ``Machine.rebalance`` (docs/PARTITION.md).
    """

    stall_deadline: float = 30.0
    heartbeat_interval: float = 1.0
    retry_storm_threshold: int = 1000
    message_rate_factor: float = 8.0
    history: int = 8
    min_history: int = 3
    partition_skew_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.stall_deadline <= 0 or self.heartbeat_interval <= 0:
            raise ValueError("health deadlines must be positive")


@dataclass
class Verdict:
    """One watchdog's current state."""

    name: str
    firing: bool = False
    detail: str = ""
    since: float = 0.0  # wall time of the last transition
    transitions: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "firing": self.firing,
            "detail": self.detail,
            "since": self.since,
            "transitions": self.transitions,
        }


def gini(values) -> float:
    """Gini coefficient of a non-negative distribution (0 = balanced).

    The standard mean-absolute-difference form; n_ranks is small enough
    that the O(n^2) pairwise sum is the clearest correct implementation.
    """
    xs = [float(v) for v in values]
    n = len(xs)
    total = sum(xs)
    if n < 2 or total <= 0:
        return 0.0
    diffs = sum(abs(a - b) for a in xs for b in xs)
    return diffs / (2.0 * n * total)


class HealthMonitor:
    """Per-machine watchdogs + per-rank load accounting.

    The hot-path surface is exactly one method — :meth:`note_delivery`,
    called once per delivered *envelope* (never per logical payload) from
    both delivery twins (``Transport.run_handler`` and the spans-level
    ``Telemetry.deliver``), reusing the ``perf_counter`` values those
    paths already computed.  Everything else runs at epoch boundaries,
    on the heartbeat thread, or on scrape.
    """

    def __init__(self, machine: "Machine",
                 config: Optional[HealthConfig] = None,
                 *, enabled: bool = True) -> None:
        self.machine = machine
        self.config = config or HealthConfig()
        self.enabled = enabled
        n = machine.n_ranks
        #: Logical payloads delivered per rank (live skew input).
        self.msgs_by_rank: list[int] = [0] * n
        #: Wall seconds spent in handlers per rank (live skew input).
        self.handler_seconds_by_rank: list[float] = [0.0] * n
        self.verdicts: dict[str, Verdict] = {
            name: Verdict(name) for name in WATCHDOGS
        }
        self._sent_history: deque = deque(maxlen=self.config.history)
        self._last_retries = 0
        # Stall tracking: the token is monotone progress; a heartbeat that
        # sees the same token twice while an epoch is active starts the
        # deadline clock.
        self._last_token = -1
        self._token_t = _wall()
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_stop = threading.Event()

    # -- hot path -------------------------------------------------------------
    def note_delivery(self, rank: int, items: int, seconds: float) -> None:
        """One envelope delivered at ``rank`` (``items`` logical payloads,
        ``seconds`` of handler time).  Shares the stats guard so thread-
        transport handlers never lose counts."""
        with self.machine.stats.guard:
            self.machine.stats.health.progress_ticks += 1
            self.msgs_by_rank[rank] += items
            self.handler_seconds_by_rank[rank] += seconds

    def progress_token(self) -> int:
        """Monotone progress indicator across all delivery paths.

        The process transport's shared done counters are folded in so
        worker progress is visible to the parent heartbeat mid-epoch.
        """
        token = self.machine.stats.health.progress_ticks
        counter = getattr(self.machine.transport, "progress_counter", None)
        if counter is not None:
            token += counter()
        return token

    # -- epoch boundary -------------------------------------------------------
    def on_epoch_end(self, ep: "EpochStats | None") -> None:
        """Evaluate the anomaly watchdogs and refresh skew gauges."""
        if not self.enabled:
            return
        cfg = self.config
        st = self.machine.stats.health
        with self.machine.stats.guard:
            st.epochs_checked += 1
        # Retry storm: reliable-layer retransmissions this epoch.
        retries = self.machine.stats.chaos.retries
        delta = retries - self._last_retries
        self._last_retries = retries
        self._set(
            "retry_storm",
            delta > cfg.retry_storm_threshold,
            f"{delta} retries this epoch (threshold {cfg.retry_storm_threshold})",
        )
        # Message-rate anomaly vs the trailing-window mean.
        sent = ep.sent_total if ep is not None else 0
        if len(self._sent_history) >= cfg.min_history:
            mean = sum(self._sent_history) / len(self._sent_history)
            firing = mean > 0 and sent > cfg.message_rate_factor * mean
            self._set(
                "message_rate",
                firing,
                f"epoch sent {sent} vs trailing mean {mean:.1f} "
                f"(factor {cfg.message_rate_factor})",
            )
        self._sent_history.append(sent)
        self.refresh_skew()
        # Partition skew: the busiest rank's stored-arc load vs the mean.
        ps = self.machine.stats.partition
        self._set(
            "partition_skew",
            ps.ranks > 1 and ps.max_edge_share > cfg.partition_skew_factor,
            f"max-rank edge share {ps.max_edge_share:.2f}x mean "
            f"(threshold {cfg.partition_skew_factor}x) on "
            f"{ps.kind or 'unknown'} partition; consider Machine.rebalance",
        )
        # A completed epoch is progress by definition.
        self._last_token = self.progress_token()
        self._token_t = _wall()
        self._set("stall", False, "epoch completed")

    # -- heartbeat ------------------------------------------------------------
    def start_heartbeat(self) -> None:
        """Start the stall-detection thread (idempotent)."""
        if self._hb_thread is not None or not self.enabled:
            return
        self._hb_stop.clear()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-health", daemon=True
        )
        self._hb_thread.start()

    def stop_heartbeat(self) -> None:
        if self._hb_thread is None:
            return
        self._hb_stop.set()
        self._hb_thread.join(timeout=5.0)
        self._hb_thread = None

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.config.heartbeat_interval):
            try:
                self.check_stall(_wall())
            except Exception:  # pragma: no cover - observer must not kill runs
                pass

    def check_stall(self, now: float) -> bool:
        """One heartbeat evaluation; returns True when the stall watchdog
        is firing.  Public so tests can drive it without the thread."""
        with self.machine.stats.guard:
            self.machine.stats.health.heartbeat_checks += 1
        token = self.progress_token()
        if token != self._last_token:
            self._last_token = token
            self._token_t = now
            self._set("stall", False, "progress observed")
            return False
        active = self.machine.active_epoch is not None
        stalled = active and (now - self._token_t) > self.config.stall_deadline
        if stalled:
            self._set(
                "stall",
                True,
                f"no progress tick for {now - self._token_t:.2f}s inside an "
                f"active epoch (deadline {self.config.stall_deadline}s)",
            )
        return stalled

    # -- verdicts -------------------------------------------------------------
    def _set(self, name: str, firing: bool, detail: str) -> None:
        v = self.verdicts[name]
        if firing == v.firing:
            if firing:
                v.detail = detail
            return
        v.firing = firing
        v.detail = detail
        v.since = _wall()
        v.transitions += 1
        if firing:
            with self.machine.stats.guard:
                st = self.machine.stats.health
                fld = f"{name}_alerts"
                setattr(st, fld, getattr(st, fld) + 1)
        flight = getattr(self.machine, "flight", None)
        if flight is not None:
            flight.record("health", name=name, firing=firing, detail=detail)

    def check(self) -> tuple[bool, dict]:
        """(healthy, payload) — the ``/healthz`` body.  Healthy iff no
        watchdog is firing."""
        firing = [v.name for v in self.verdicts.values() if v.firing]
        return (
            not firing,
            {
                "healthy": not firing,
                "firing": firing,
                "watchdogs": {n: v.as_dict() for n, v in self.verdicts.items()},
            },
        )

    # -- gauges ---------------------------------------------------------------
    def refresh_skew(self) -> None:
        """Recompute the four skew gauges (cheap list arithmetic)."""
        st = self.machine.stats.health
        st.message_skew = gini(self.msgs_by_rank)
        st.handler_time_skew = gini(self.handler_seconds_by_rank)
        graph = self.machine.graph
        if graph is not None:
            vertex_loads = [
                graph.partition.rank_size(r) for r in range(graph.n_ranks)
            ]
            edge_loads = [csr.n_edges for csr in graph.locals]
            st.vertex_skew = gini(vertex_loads)
            st.edge_skew = gini(edge_loads)
            # The load-derived partition gauges ride the same refresh (the
            # edge-cut/replication gauges need the edge arrays and are set
            # on attach/mutate/rebalance instead).
            ps = self.machine.stats.partition
            ps.ranks = graph.n_ranks
            ps.vertex_gini = st.vertex_skew
            ps.edge_gini = st.edge_skew
            total_edges = sum(edge_loads)
            ps.max_edge_share = (
                max(edge_loads) * graph.n_ranks / total_edges
                if total_edges
                else 1.0
            )

    def refresh_memory(self) -> None:
        """Recompute the memory gauges.  Scrape-time only: walks property
        maps and shm segments."""
        st = self.machine.stats.health
        st.property_map_bytes = self._property_map_bytes()
        st.shared_memory_bytes = self._shared_memory_bytes()

    def _property_map_bytes(self) -> int:
        graph = self.machine.graph
        if graph is None:
            return 0
        total = 0
        for reg in (getattr(graph, "_vertex_maps", ()) or (),
                    getattr(graph, "_edge_maps", ()) or ()):
            for pm in list(reg):
                for s in getattr(pm, "_slices", ()):
                    nb = getattr(s, "nbytes", None)
                    # Object maps are Python lists: count the slot
                    # pointers (8 bytes each) as a floor estimate.
                    total += int(nb) if nb is not None else 8 * len(s)
        return total

    def _shared_memory_bytes(self) -> int:
        shm_by_map = getattr(self.machine.transport, "_shm_by_map", None)
        if not shm_by_map:
            return 0
        try:
            return sum(shm.size for shm in shm_by_map.values())
        except Exception:  # pragma: no cover - segments mid-teardown
            return 0

    # -- status (/status JSON) ------------------------------------------------
    def status(self) -> dict:
        st = self.machine.stats
        h = st.health
        ok, verdicts = self.check()
        return {
            "healthy": ok,
            "epoch": len(st.epochs),
            "epoch_active": self.machine.active_epoch is not None,
            "progress_token": self.progress_token(),
            "per_rank": {
                "messages": list(self.msgs_by_rank),
                "handler_seconds": [
                    round(s, 6) for s in self.handler_seconds_by_rank
                ],
            },
            "skew": {
                "message": h.message_skew,
                "handler_time": h.handler_time_skew,
                "vertex": h.vertex_skew,
                "edge": h.edge_skew,
            },
            "watchdogs": verdicts["watchdogs"],
        }

    # -- elasticity ------------------------------------------------------------
    def resize(self, n_ranks: int) -> None:
        """Adapt the per-rank accounting to a new rank count
        (``Machine.rebalance``).  Existing totals are kept where the rank
        survives; shrinking folds the removed ranks' counts into rank 0
        so skew history is not silently discarded."""
        cur = len(self.msgs_by_rank)
        if n_ranks > cur:
            self.msgs_by_rank.extend([0] * (n_ranks - cur))
            self.handler_seconds_by_rank.extend([0.0] * (n_ranks - cur))
        elif n_ranks < cur:
            self.msgs_by_rank[0] += sum(self.msgs_by_rank[n_ranks:])
            self.handler_seconds_by_rank[0] += sum(
                self.handler_seconds_by_rank[n_ranks:]
            )
            del self.msgs_by_rank[n_ranks:]
            del self.handler_seconds_by_rank[n_ranks:]

    # -- process-transport support --------------------------------------------
    def reset_after_fork(self) -> None:
        """Worker-side: fresh per-rank accounting, no heartbeat thread."""
        n = self.machine.n_ranks
        self.msgs_by_rank = [0] * n
        self.handler_seconds_by_rank = [0.0] * n
        self.verdicts = {name: Verdict(name) for name in WATCHDOGS}
        self._sent_history = deque(maxlen=self.config.history)
        self._last_retries = 0
        self._last_token = -1
        self._token_t = _wall()
        self._hb_thread = None
        self._hb_stop = threading.Event()

    def export_state(self) -> dict:
        """Worker-side: per-rank accounting for the sync blob."""
        return {
            "msgs_by_rank": list(self.msgs_by_rank),
            "handler_seconds_by_rank": list(self.handler_seconds_by_rank),
        }

    def merge_state(self, state: dict) -> None:
        """Parent-side: fold one worker's shipped accounting into ours."""
        for i, n in enumerate(state.get("msgs_by_rank", ())):
            self.msgs_by_rank[i] += n
        for i, s in enumerate(state.get("handler_seconds_by_rank", ())):
            self.handler_seconds_by_rank[i] += s


@dataclass(frozen=True)
class ObserveConfig:
    """Resolved form of ``Machine(observe=...)``.

    ``serve`` starts the HTTP endpoint (``host:port``; port 0 binds an
    ephemeral port) and the stall heartbeat.  ``flight``/``health`` carry
    the subsystem configs; ``enabled=False`` (from ``observe=False``)
    disarms both subsystems entirely for A/B overhead benches.
    """

    enabled: bool = True
    serve: bool = False
    host: str = "127.0.0.1"
    port: int = 0
    flight: "object" = None  # FlightConfig; None = defaults
    health: Optional[HealthConfig] = None


def resolve_observe(observe) -> ObserveConfig:
    """Normalize the ``Machine(observe=...)`` argument.

    ``None`` (default): always-on recorder + watchdog counters, no
    server.  ``False``/``"off"``: fully disarmed.  ``True``: serve on an
    ephemeral port.  An ``int``: serve on that port.  An
    :class:`ObserveConfig`: as given.
    """
    if observe is None:
        return ObserveConfig()
    if observe is False or observe == "off":
        return ObserveConfig(enabled=False)
    if observe is True:
        return ObserveConfig(serve=True)
    if isinstance(observe, int):
        return ObserveConfig(serve=True, port=observe)
    if isinstance(observe, ObserveConfig):
        return observe
    raise ValueError(
        f"unknown observe value {observe!r}; use None, False, True, a port "
        "number, or an ObserveConfig"
    )


__all__ = [
    "WATCHDOGS",
    "HealthConfig",
    "HealthMonitor",
    "HealthStats",
    "ObserveConfig",
    "Verdict",
    "gini",
    "resolve_observe",
]
