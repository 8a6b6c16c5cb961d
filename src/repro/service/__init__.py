"""Graph service layer: a persistent engine over one loaded graph.

The ROADMAP's production story is a long-lived process that loads a
partitioned graph once and serves many concurrent algorithm jobs
against it.  This package provides that service:

* :mod:`~repro.service.engine` — :class:`GraphEngine`: owns one
  :class:`~repro.runtime.machine.Machine` + graph, a job queue with
  admission control, and a single executor thread.
* :mod:`~repro.service.batching` — the batching scheduler: compatible
  pending queries (same graph version, algorithm family) run as one
  group of ``fixed_point`` runs over a pattern bound once per engine
  (:mod:`repro.strategies.multi_source`), bit-identical to sequential
  execution.
* :mod:`~repro.service.cache` — versioned result cache keyed by
  ``(graph_version, algorithm, canonical_params)``; mutation version
  bumps invalidate, LRU + byte budget bound residency.
* :mod:`~repro.service.api` — HTTP front end (submit/status/result/
  cancel/stats), wired into the ``repro serve`` CLI.
"""

from .batching import BatchKey, batch_key
from .cache import ResultCache
from .engine import EngineBusy, GraphEngine, JobRecord, UnknownJob
from .api import ServiceServer

__all__ = [
    "BatchKey",
    "EngineBusy",
    "GraphEngine",
    "JobRecord",
    "ResultCache",
    "ServiceServer",
    "UnknownJob",
    "batch_key",
]
