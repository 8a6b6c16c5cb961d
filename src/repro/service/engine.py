"""The persistent graph engine: one machine, one graph, many jobs.

A :class:`GraphEngine` wraps a long-lived
:class:`~repro.runtime.machine.Machine` with an attached graph and
serves algorithm jobs against it:

* **Job queue with admission control** — :meth:`submit` enqueues a
  :class:`JobRecord`; past ``max_pending`` queued jobs it raises
  :class:`EngineBusy` (the HTTP front end maps this to 429).
* **Single executor thread** — the machine is not thread-safe, so one
  worker drains the queue in submission order, one job per run: SSSP
  and BFS are ``fixed_point`` over the ``relax`` / ``hop`` action, CC
  and PageRank their own drivers.  Every family's pattern is bound once,
  on its first job, and reused: jobs never grow the message registry.
  A job's ``messages_sent``, ``handler_calls`` and epoch range describe
  its own run.
* **Mutation barrier jobs** — ``algorithm="mutate"`` jobs apply a
  :class:`~repro.graph.mutate.MutationBatch` through
  :meth:`Machine.apply_mutations` at their queue position; the version
  bump invalidates the result cache and later jobs execute against the
  new graph.
* **Rebalance barrier jobs** — ``algorithm="rebalance"`` jobs call
  :meth:`Machine.rebalance` at their queue position to repartition the
  graph (``partitioner`` param) and/or grow or shrink the rank count
  (``n_ranks`` param).  Like mutations they bump the graph version and
  invalidate cached results.
* **Versioned result cache** — completed analytics land in a
  :class:`~repro.service.cache.ResultCache` keyed on
  ``(graph_version, algorithm, canonical_params)``; repeat submissions
  complete without touching the machine.

Every counter flows through :class:`~repro.runtime.stats.ServiceStats`
(``repro_service_*`` in Prometheus), and job lifecycle events are
dropped into the machine's flight recorder so a postmortem ring dump
shows what the service was doing.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from numbers import Integral, Real
from typing import Any, Dict, List, Optional

import numpy as np

from ..graph.mutate import MutationBatch
from ..props.property_map import weight_map_from_array
from .cache import ResultCache

#: Barrier job that applies a :class:`MutationBatch` at its queue position.
MUTATION = "mutate"

#: Barrier job that repartitions (and optionally resizes) the engine's
#: machine at its queue position; see :meth:`Machine.rebalance`.
REBALANCE = "rebalance"

#: Algorithms a job may request.
ALGORITHMS = ("sssp", "bfs", "cc", "pagerank", MUTATION, REBALANCE)

#: PageRank params a job may set: ``name -> (type, legal, rule)``; bools
#: are never numbers here.
PAGERANK_PARAMS = {
    "damping": (Real, lambda v: 0 <= v <= 1, "a real in [0, 1]"),
    "tol": (Real, lambda v: v >= 0, "a real >= 0"),
    "iterations": (Integral, lambda v: v >= 1, "an integer >= 1"),
}

#: Coalescing buffer of the SSSP ``relax`` / BFS ``hop`` bindings.
COALESCING = 512

#: Job lifecycle states.
STATUSES = ("queued", "running", "done", "failed", "cancelled")


class EngineBusy(RuntimeError):
    """Admission control refused the job (queue at ``max_pending``)."""


class UnknownJob(KeyError):
    """No job with the requested id."""


@dataclasses.dataclass
class JobRecord:
    """One submitted job: status, result, and execution accounting."""

    job_id: str
    algorithm: str
    params: dict
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Graph version the job executed against (set at execution time).
    graph_version: Optional[int] = None
    cache_hit: bool = False
    #: Sequence number of the run that computed this job; ``batch_size``
    #: is 1 for a computed job and 0 for a cache hit.
    batch_id: Optional[int] = None
    batch_size: int = 0
    #: Logical message traffic of this job's run.
    messages_sent: int = 0
    handler_calls: int = 0
    #: Telemetry pointers: epoch index range of this job's run.
    epoch_first: Optional[int] = None
    epoch_last: Optional[int] = None
    error: Optional[str] = None
    result: Any = None
    done: threading.Event = dataclasses.field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self.done.wait(timeout)

    def snapshot(self) -> dict:
        """JSON-safe status view (no result payload)."""
        return {
            "job_id": self.job_id,
            "algorithm": self.algorithm,
            "params": self.params,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "graph_version": self.graph_version,
            "cache_hit": self.cache_hit,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "messages_sent": self.messages_sent,
            "handler_calls": self.handler_calls,
            "epoch_first": self.epoch_first,
            "epoch_last": self.epoch_last,
            "error": self.error,
        }

    def result_payload(self):
        """The result in JSON-encodable form (arrays become lists)."""
        if isinstance(self.result, np.ndarray):
            return self.result.tolist()
        return self.result


class GraphEngine:
    """Long-lived engine owning one machine + graph; thread-safe submit."""

    def __init__(
        self,
        machine,
        graph,
        weight_by_gid=None,
        *,
        max_pending: int = 256,
        owns_machine: bool = False,
        start: bool = True,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        machine.attach_graph(graph)
        self.machine = machine
        self.graph = graph
        self.max_pending = max_pending
        self.cache = ResultCache(machine.stats)
        self._owns_machine = owns_machine
        # Registered on the graph, so mutations and rebalances migrate it
        # in place: one SSSP binding over it serves the engine's lifetime.
        self._weight = (
            None
            if weight_by_gid is None
            else weight_map_from_array(graph, weight_by_gid, name="svc.weight")
        )
        self._queue: "deque[JobRecord]" = deque()
        self._jobs: Dict[str, JobRecord] = {}
        self._cv = threading.Condition()
        self._seq = 0
        self._run_seq = 0
        self._running = False
        self._worker: Optional[threading.Thread] = None
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "GraphEngine":
        with self._cv:
            if self._running:
                return self
            self._running = True
        self._worker = threading.Thread(
            target=self._run, name="repro-engine", daemon=True
        )
        self._worker.start()
        return self

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting work, cancel queued jobs, join the worker."""
        with self._cv:
            self._running = False
            while self._queue:
                job = self._queue.popleft()
                if job.status == "queued":
                    self._finish(job, "cancelled")
                    self.machine.stats.count_service("jobs_cancelled")
            self._cv.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=timeout)
            self._worker = None
        if self._owns_machine:
            self.machine.shutdown()

    def __enter__(self) -> "GraphEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- submission ----------------------------------------------------------
    def submit(self, algorithm: str, params: Optional[dict] = None) -> JobRecord:
        """Enqueue one job; returns its :class:`JobRecord` immediately."""
        params = dict(params or {})
        self._validate(algorithm, params)
        with self._cv:
            if not self._running:
                raise RuntimeError("engine is closed")
            queued = sum(1 for j in self._queue if j.status == "queued")
            if queued >= self.max_pending:
                self.machine.stats.count_service("jobs_rejected")
                raise EngineBusy(
                    f"queue full ({queued} pending >= max_pending="
                    f"{self.max_pending}); retry later"
                )
            self._seq += 1
            job = JobRecord(
                job_id=f"job-{self._seq:06d}",
                algorithm=algorithm,
                params=params,
                submitted_at=time.time(),
            )
            self._jobs[job.job_id] = job
            self._queue.append(job)
            self.machine.stats.count_service("jobs_submitted")
            self.machine.flight.record(
                "job_submit", job=job.job_id, algorithm=algorithm
            )
            self._cv.notify()
            return job

    def _validate(self, algorithm: str, params: dict) -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; use one of {ALGORITHMS}"
            )
        n = self.graph.n_vertices
        if algorithm in ("sssp", "bfs"):
            src = params.get("source")
            if not isinstance(src, int) or isinstance(src, bool):
                raise ValueError(f"{algorithm} needs an integer 'source' param")
            if not 0 <= src < n:
                raise ValueError(f"source {src} out of range [0, {n})")
            if algorithm == "sssp" and self._weight is None:
                raise ValueError("engine was loaded without edge weights")
            extra = set(params) - {"source"}
        elif algorithm == "cc":
            extra = set(params)
        elif algorithm == "pagerank":
            for key, (kind, legal, rule) in PAGERANK_PARAMS.items():
                if key not in params:
                    continue
                v = params[key]
                if isinstance(v, bool) or not isinstance(v, kind) or not legal(v):
                    raise ValueError(f"pagerank param {key!r} must be {rule}; got {v!r}")
            extra = set(params) - set(PAGERANK_PARAMS)
        elif algorithm == REBALANCE:
            from ..graph.partition import PARTITIONS

            part = params.get("partitioner")
            if part is not None and part not in PARTITIONS:
                raise ValueError(
                    f"unknown partitioner {part!r}; use one of {sorted(PARTITIONS)}"
                )
            ranks = params.get("n_ranks")
            if ranks is not None and (
                not isinstance(ranks, int) or isinstance(ranks, bool) or ranks < 1
            ):
                raise ValueError("rebalance 'n_ranks' must be a positive integer")
            extra = set(params) - {"partitioner", "n_ranks"}
        else:  # mutate
            extra = set(params) - {
                "insert", "delete", "update", "add_vertices", "undirected", "strict",
            }
        if extra:
            raise ValueError(f"unknown {algorithm} params: {sorted(extra)}")

    # -- queries ---------------------------------------------------------------
    def job(self, job_id: str) -> JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    def jobs(self) -> List[JobRecord]:
        return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; running/finished jobs are immune."""
        job = self.job(job_id)
        with self._cv:
            if job.status != "queued":
                return False
            try:
                self._queue.remove(job)
            except ValueError:  # pragma: no cover - already claimed
                return False
            self._finish(job, "cancelled")
            self.machine.stats.count_service("jobs_cancelled")
            return True

    def stats_snapshot(self) -> dict:
        """The ``/stats`` payload: service counters + queue + cache."""
        with self._cv:
            queue_depth = sum(1 for j in self._queue if j.status == "queued")
        return {
            "service": dataclasses.asdict(self.machine.stats.service),
            "queue_depth": queue_depth,
            "jobs_total": len(self._jobs),
            "graph_version": self.graph.version,
            "n_vertices": self.graph.n_vertices,
            "n_ranks": self.machine.n_ranks,
            "fast_path": self.machine.fast_path,
            "transport": type(self.machine.transport).__name__,
            "max_pending": self.max_pending,
            "cache": self.cache.snapshot(),
        }

    # -- worker ----------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cv:
                while self._running and not self._queue:
                    self._cv.wait(0.05)
                if not self._running and not self._queue:
                    return
                job = self._claim()
                if job is None:
                    continue
            try:
                self._execute(job)
            except Exception as exc:  # the job fails; the worker lives on
                if job.status == "running":
                    job.error = repr(exc)
                    self._finish(job, "failed")
                    self.machine.stats.count_service("jobs_failed")

    def _claim(self) -> Optional[JobRecord]:
        """Pop the queue head (queue lock held): jobs run in submission
        order, whatever their family."""
        while self._queue and self._queue[0].status != "queued":
            self._queue.popleft()  # cancelled while waiting
        if not self._queue:
            return None
        job = self._queue.popleft()
        job.status = "running"
        job.started_at = time.time()
        job.graph_version = self.graph.version
        return job

    def _execute(self, job: JobRecord) -> None:
        if job.algorithm == MUTATION:
            self._execute_mutation(job)
            return
        if job.algorithm == REBALANCE:
            self._execute_rebalance(job)
            return
        stats = self.machine.stats
        # Key on the version stamped at claim time, NOT the live graph
        # version: a mutation queued via Machine.queue_mutations applies at
        # the epoch boundary inside this very run, and the computed fixed
        # point belongs to the pre-mutation graph.
        key = self.cache.key(job.graph_version, job.algorithm, job.params)
        result = self.cache.get(key)
        if result is not None:
            job.cache_hit = True
        else:
            sent0 = stats.total.sent_total
            handled0 = stats.total.handler_calls
            epoch0 = len(stats.epochs)
            result = self._run_one(job)
            self._run_seq += 1
            stats.count_service("batches_executed")
            job.batch_id = self._run_seq
            job.batch_size = 1
            job.messages_sent = stats.total.sent_total - sent0
            job.handler_calls = stats.total.handler_calls - handled0
            job.epoch_first = epoch0
            job.epoch_last = len(stats.epochs) - 1
            self.cache.put(key, result)
            if self.graph.version != job.graph_version:
                # A queued mutation landed mid-run: reclaim entries keyed
                # to superseded versions.
                self.cache.invalidate(self.graph.version)
            self.machine.flight.record(
                "job_run",
                job=job.job_id,
                algorithm=job.algorithm,
                sent=job.messages_sent,
                epoch_first=job.epoch_first,
                epoch_last=job.epoch_last,
            )
        job.result = result
        self._finish(job, "done")
        stats.count_service("jobs_completed")

    def _run_one(self, job: JobRecord):
        """One run of the job's family, on a pattern bound once per engine
        graph."""
        from ..algorithms.bfs import bfs_fixed_point, bfs_pattern
        from ..algorithms.cc import cc_label_pattern, cc_label_propagation
        from ..algorithms.pagerank import pagerank, pagerank_pattern
        from ..algorithms.sssp import bind_sssp, sssp_fixed_point
        from ..patterns.executor import bind, bind_once

        m, g, w = self.machine, self.graph, self._weight
        if job.algorithm == "sssp":
            layers = {"relax": {"coalescing": COALESCING}}
            bp = bind_once(m, ("sssp", g, w), lambda: bind_sssp(m, g, w, layers=layers))
            return sssp_fixed_point(m, g, None, job.params["source"], bound=bp)
        if job.algorithm == "bfs":
            layers = {"hop": {"coalescing": COALESCING}}
            bp = bind_once(m, ("bfs", g), lambda: bind(bfs_pattern(), m, g, layers=layers))
            return bfs_fixed_point(m, g, job.params["source"], bound=bp)
        if job.algorithm == "cc":
            bp = bind_once(m, ("cc", g), lambda: bind(cc_label_pattern(), m, g))
            return cc_label_propagation(m, g, bound=bp)
        bp = bind_once(m, ("pagerank", g), lambda: bind(pagerank_pattern(), m, g))
        return pagerank(m, g, bound=bp, **job.params)

    def _execute_mutation(self, job: JobRecord) -> None:
        batch = MutationBatch(undirected=bool(job.params.get("undirected")))
        strict = bool(job.params.get("strict", True))
        for u, v, *w in job.params.get("insert", ()):
            batch.insert_edge(int(u), int(v), w[0] if w else None)
        for u, v in job.params.get("delete", ()):
            batch.delete_edge(int(u), int(v), strict=strict)
        for u, v, w in job.params.get("update", ()):
            batch.update_weight(int(u), int(v), float(w))
        if job.params.get("add_vertices"):
            batch.add_vertices(int(job.params["add_vertices"]))
        delta = self.machine.apply_mutations(batch, weight_map=self._weight)
        self.cache.invalidate(self.graph.version)
        self.machine.stats.count_service("mutations_applied")
        job.graph_version = self.graph.version
        job.result = {
            "graph_version": self.graph.version,
            "edges_inserted": len(delta.inserted),
            "edges_removed": len(delta.removed),
            "weights_updated": len(delta.updated),
            "n_vertices": self.graph.n_vertices,
        }
        self._finish(job, "done")
        self.machine.stats.count_service("jobs_completed")
        self.machine.flight.record(
            "job_mutation", job=job.job_id, version=self.graph.version
        )

    def _execute_rebalance(self, job: JobRecord) -> None:
        """Barrier job: repartition (and optionally resize) the machine.

        Runs at its queue position — the executor thread is the only
        machine user, so the epoch-boundary quiescence
        :meth:`Machine.rebalance` demands holds by construction.  The
        version bump invalidates cached results keyed to the old
        placement, exactly like a mutation barrier.
        """
        quality = self.machine.rebalance(
            new_ranks=job.params.get("n_ranks"),
            partitioner=job.params.get("partitioner"),
        )
        self.cache.invalidate(self.graph.version)
        job.graph_version = self.graph.version
        job.result = dict(
            quality.as_dict(),
            graph_version=self.graph.version,
            n_ranks=self.machine.n_ranks,
        )
        self._finish(job, "done")
        self.machine.stats.count_service("jobs_completed")
        self.machine.flight.record(
            "job_rebalance",
            job=job.job_id,
            ranks=self.machine.n_ranks,
            partitioner=quality.kind,
        )

    def _finish(self, job: JobRecord, status: str) -> None:
        job.status = status
        job.finished_at = time.time()
        job.done.set()
