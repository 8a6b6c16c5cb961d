"""The persistent graph engine: one machine, one graph, many jobs.

A :class:`GraphEngine` wraps a long-lived
:class:`~repro.runtime.machine.Machine` with an attached graph and
serves algorithm jobs against it:

* **Job queue with admission control** — :meth:`submit` enqueues a
  :class:`JobRecord`; past ``max_pending`` queued jobs it raises
  :class:`EngineBusy` (the HTTP front end maps this to 429).
* **Single executor thread** — the machine is not thread-safe, so one
  worker drains the queue.  At each step it asks the
  :class:`~repro.service.batching.BatchingScheduler` for the head job's
  compatibility group and runs it as ``fixed_point`` runs of the SSSP
  ``relax`` / BFS ``hop`` action; non-batchable analytics (cc, pagerank)
  run one at a time.  Every family's pattern is bound once, on its first
  job, and reused: jobs never grow the message registry.
* **Mutation barrier jobs** — ``algorithm="mutate"`` jobs apply a
  :class:`~repro.graph.mutate.MutationBatch` through
  :meth:`Machine.apply_mutations` at their queue position; the version
  bump invalidates the result cache and later jobs execute against the
  new graph.
* **Rebalance barrier jobs** — ``algorithm="rebalance"`` jobs call
  :meth:`Machine.rebalance` at their queue position to repartition the
  graph (``partitioner`` param) and/or grow or shrink the rank count
  (``n_ranks`` param).  Like mutations they run alone, bump the graph
  version, and invalidate cached results.
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
from .batching import MUTATION, BatchingScheduler, batch_key
from .cache import ResultCache

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
    #: Group accounting: which batch served this job and how wide it
    #: was (size 1 == sequential execution).
    batch_id: Optional[int] = None
    batch_size: int = 0
    #: Logical message traffic of the group that served this job (the
    #: group's total, reported by every member).
    messages_sent: int = 0
    handler_calls: int = 0
    #: Telemetry pointers: epoch index range of the serving run.
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
        max_batch: int = 16,
        batching: bool = True,
        coalescing: Optional[int] = 512,
        cache: Optional[ResultCache] = None,
        owns_machine: bool = False,
        start: bool = True,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        machine.attach_graph(graph)
        self.machine = machine
        self.graph = graph
        self.batching = batching
        self.max_pending = max_pending
        self.scheduler = BatchingScheduler(max_batch=max_batch, coalescing=coalescing)
        self.cache = cache if cache is not None else ResultCache(machine.stats)
        if self.cache.stats is None:
            self.cache.stats = machine.stats
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
        self._batch_seq = 0
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
            "batching": self.batching,
            "max_batch": self.scheduler.max_batch,
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
                group = self._claim_group()
                if group is None:
                    continue
            try:
                self._execute(group)
            except Exception as exc:  # defensive: never kill the worker
                for job in group:
                    if job.status == "running":
                        job.error = repr(exc)
                        self._finish(job, "failed")
                        self.machine.stats.count_service("jobs_failed")

    def _claim_group(self) -> Optional[List[JobRecord]]:
        """Pop the next executable group (queue lock held)."""
        while self._queue and self._queue[0].status != "queued":
            self._queue.popleft()  # cancelled while waiting
        if not self._queue:
            return None
        head = self._queue[0]
        if head.algorithm in (MUTATION, REBALANCE) or not self.batching:
            group = [self._queue.popleft()]
        else:
            group = self.scheduler.collect(self._queue, self.graph.version)
            for job in group:
                self._queue.remove(job)
        now = time.time()
        for job in group:
            job.status = "running"
            job.started_at = now
            job.graph_version = self.graph.version
        return group

    def _execute(self, group: List[JobRecord]) -> None:
        stats = self.machine.stats
        if group[0].algorithm == MUTATION:
            self._execute_mutation(group[0])
            return
        if group[0].algorithm == REBALANCE:
            self._execute_rebalance(group[0])
            return
        # -- cache pass (at execution time: the version is now final) -------
        missing: List[JobRecord] = []
        for job in group:
            key = self.cache.key(job.graph_version, job.algorithm, job.params)
            hit = self.cache.get(key)
            if hit is not None:
                job.cache_hit = True
                job.batch_size = 0
                job.result = hit
                self._finish(job, "done")
                stats.count_service("jobs_completed")
            else:
                missing.append(job)
        if not missing:
            return
        # -- run ------------------------------------------------------------
        self._batch_seq += 1
        batch_id = self._batch_seq
        sent0 = stats.total.sent_total
        handled0 = stats.total.handler_calls
        epoch0 = len(stats.epochs)
        family = batch_key(missing[0].algorithm, self.graph.version)
        try:
            if family is not None:
                results = self.scheduler.execute(
                    self.machine, self.graph, self._weight, missing
                )
            else:
                results = [self._run_one(job) for job in missing]
        except Exception as exc:
            for job in missing:
                job.error = repr(exc)
                self._finish(job, "failed")
                stats.count_service("jobs_failed")
            return
        if len(missing) > 1:
            stats.count_service("batches_executed")
            stats.count_service("batched_jobs", len(missing))
        else:
            stats.count_service("sequential_jobs")
        sent = stats.total.sent_total - sent0
        handled = stats.total.handler_calls - handled0
        for job, result in zip(missing, results):
            job.batch_id = batch_id
            job.batch_size = len(missing)
            job.messages_sent = sent
            job.handler_calls = handled
            job.epoch_first = epoch0
            job.epoch_last = len(stats.epochs) - 1
            # Key on the version stamped at claim time, NOT the live
            # graph version: a mutation queued via Machine.queue_mutations
            # applies at the epoch boundary inside this very run, and the
            # computed fixed point belongs to the pre-mutation graph.
            key = self.cache.key(job.graph_version, job.algorithm, job.params)
            self.cache.put(key, result)
            job.result = result
            self._finish(job, "done")
            stats.count_service("jobs_completed")
        if self.graph.version != missing[0].graph_version:
            # A queued mutation landed mid-run: reclaim entries keyed to
            # superseded versions.
            self.cache.invalidate(self.graph.version)
        self.machine.flight.record(
            "job_batch",
            batch=batch_id,
            size=len(missing),
            algorithm=missing[0].algorithm,
            sent=sent,
        )

    def _run_one(self, job: JobRecord):
        """Sequential execution of a non-batchable analytic, on a pattern
        bound once per engine graph."""
        from ..algorithms.cc import cc_label_pattern, cc_label_propagation
        from ..algorithms.pagerank import pagerank, pagerank_pattern
        from ..patterns.executor import bind, bind_once

        m, g = self.machine, self.graph
        if job.algorithm == "cc":
            bp = bind_once(m, ("cc", g), lambda: bind(cc_label_pattern(), m, g))
            return cc_label_propagation(m, g, bound=bp)
        if job.algorithm == "pagerank":
            bp = bind_once(m, ("pagerank", g), lambda: bind(pagerank_pattern(), m, g))
            return pagerank(m, g, bound=bp, **job.params)
        raise ValueError(f"no sequential runner for {job.algorithm!r}")

    def _execute_mutation(self, job: JobRecord) -> None:
        stats = self.machine.stats
        try:
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
            stats.count_service("mutations_applied")
            job.graph_version = self.graph.version
            job.result = {
                "graph_version": self.graph.version,
                "edges_inserted": len(delta.inserted),
                "edges_removed": len(delta.removed),
                "weights_updated": len(delta.updated),
                "n_vertices": self.graph.n_vertices,
            }
            self._finish(job, "done")
            stats.count_service("jobs_completed")
            self.machine.flight.record(
                "job_mutation", job=job.job_id, version=self.graph.version
            )
        except Exception as exc:
            job.error = repr(exc)
            self._finish(job, "failed")
            stats.count_service("jobs_failed")

    def _execute_rebalance(self, job: JobRecord) -> None:
        """Barrier job: repartition (and optionally resize) the machine.

        Runs alone at its queue position — the executor thread is the
        only machine user, so the epoch-boundary quiescence
        :meth:`Machine.rebalance` demands holds by construction.  The
        version bump invalidates cached results keyed to the old
        placement, exactly like a mutation barrier.
        """
        stats = self.machine.stats
        try:
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
            stats.count_service("jobs_completed")
            self.machine.flight.record(
                "job_rebalance",
                job=job.job_id,
                ranks=self.machine.n_ranks,
                partitioner=quality.kind,
            )
        except Exception as exc:
            job.error = repr(exc)
            self._finish(job, "failed")
            stats.count_service("jobs_failed")

    def _finish(self, job: JobRecord, status: str) -> None:
        job.status = status
        job.finished_at = time.time()
        job.done.set()
