"""Batching scheduler: group compatible pending queries into one step.

Pending jobs are compatible when they share a :class:`BatchKey` — same
algorithm family and same graph version.  The batchable families
(single-source SSSP/BFS) run a group of K jobs as K ``fixed_point`` runs
of the paper's ``relax``/``hop`` action over one binding
(:func:`~repro.strategies.multi_source.sssp_multi`), whose ``(K, n)``
rows demux into per-job results.  Queued mutations are barriers:
collection never reaches past one, so every job executes against exactly
the graph version queue order dictates.

Each row is a single-source run by construction, so grouped execution is
bit-identical to running the K jobs one at a time;
``tests/service/test_batching.py`` checks it across transports × tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .engine import JobRecord

#: Algorithm families the scheduler groups into one multi-source step.
BATCHABLE = ("sssp", "bfs")

#: Job kind that acts as a queue barrier (graph-version boundary).
MUTATION = "mutate"


@dataclass(frozen=True)
class BatchKey:
    """Compatibility class of a pending query."""

    algorithm: str
    graph_version: int


def batch_key(algorithm: str, graph_version: int) -> Optional[BatchKey]:
    """The job's compatibility key, or ``None`` when not batchable."""
    if algorithm not in BATCHABLE:
        return None
    return BatchKey(algorithm, int(graph_version))


class BatchingScheduler:
    """Collects compatible jobs and runs each group as one step."""

    def __init__(self, *, max_batch: int = 16, coalescing: Optional[int] = 512) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.coalescing = coalescing

    def collect(self, queue, graph_version: int) -> List["JobRecord"]:
        """Pick the head job's batch group out of ``queue``.

        Called under the engine's queue lock with a non-empty queue whose
        head is not a mutation.  Scans forward collecting jobs sharing
        the head's :class:`BatchKey`, skipping cancelled entries and
        incompatible analytics (read-only against the same version, so
        overtaking them is safe) and stopping hard at the first queued
        mutation.  Returns the group in queue order; the caller removes
        those jobs from the queue.
        """
        head = queue[0]
        key = batch_key(head.algorithm, graph_version)
        group = [head]
        if key is None:
            return group
        for job in list(queue)[1:]:
            if len(group) >= self.max_batch:
                break
            if job.algorithm == MUTATION:
                break  # version boundary: later jobs see a different graph
            if job.status != "queued":
                continue
            if batch_key(job.algorithm, graph_version) == key:
                group.append(job)
        return group

    def execute(self, machine, graph, weight, jobs: List["JobRecord"]):
        """Run one group through the machine's cached SSSP/BFS binding.

        ``weight`` is the engine's :class:`EdgePropertyMap`.  Returns the
        per-job result rows, aligned with ``jobs``.  Batched and unbatched
        execution share this path, so they cannot diverge.
        """
        from ..strategies.multi_source import bfs_multi, sssp_multi

        algorithm = jobs[0].algorithm
        sources = [int(j.params["source"]) for j in jobs]
        if algorithm == "sssp":
            if weight is None:
                raise ValueError("sssp jobs need an engine loaded with weights")
            rows = sssp_multi(machine, graph, weight, sources, coalescing=self.coalescing)
        elif algorithm == "bfs":
            rows = bfs_multi(machine, graph, sources, coalescing=self.coalescing)
        else:  # pragma: no cover - collect() only groups BATCHABLE families
            raise ValueError(f"family {algorithm!r} is not batchable")
        return [rows[k] for k in range(len(jobs))]
