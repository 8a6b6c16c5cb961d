"""Graph service layer: a persistent engine over one loaded graph.

The ROADMAP's production story is a long-lived process that loads a
partitioned graph once and serves many concurrent algorithm jobs
against it.  This package provides that service:

* :mod:`~repro.service.engine` — :class:`GraphEngine`: owns one
  :class:`~repro.runtime.machine.Machine` + graph, a FIFO job queue with
  admission control, and a single executor thread that runs one job at a
  time on patterns bound once per engine (SSSP/BFS jobs are
  ``fixed_point`` runs of ``relax`` / ``hop``).
* :mod:`~repro.service.cache` — versioned result cache keyed by
  ``(graph_version, algorithm, canonical_params)``; mutation version
  bumps invalidate, LRU + byte budget bound residency.
* :mod:`~repro.service.api` — HTTP front end (submit/status/result/
  cancel/stats), wired into the ``repro serve`` CLI.
"""

from .cache import ResultCache
from .engine import EngineBusy, GraphEngine, JobRecord, UnknownJob
from .api import ServiceServer

__all__ = [
    "EngineBusy",
    "GraphEngine",
    "JobRecord",
    "ResultCache",
    "ServiceServer",
    "UnknownJob",
]
