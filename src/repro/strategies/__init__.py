"""Strategies: imperative programs applying patterns (paper Sec. II).

The paper provides ``fixed_point``, ``once``, and Delta-stepping as
reusable strategies; all are built purely from the public customization
points (action invocation, the ``work`` hook, and epochs), so user-defined
strategies — like the CC driver in :mod:`repro.algorithms.cc` — use the
exact same surface.
"""

from .buckets import Buckets
from .chaining import chain, run_until_quiet
from .delta import delta_stepping, delta_stepping_spmd
from .delta_light_heavy import delta_stepping_light_heavy, light_heavy_sssp_pattern
from .fixed_point import fixed_point
from .incremental import (
    DeltaRestartReport,
    IncrementalPageRank,
    bfs_delta_restart,
    cc_delta_restart,
    sssp_delta_restart,
)
from .once import once

__all__ = [
    "Buckets",
    "DeltaRestartReport",
    "IncrementalPageRank",
    "bfs_delta_restart",
    "cc_delta_restart",
    "chain",
    "delta_stepping",
    "delta_stepping_light_heavy",
    "delta_stepping_spmd",
    "fixed_point",
    "light_heavy_sssp_pattern",
    "once",
    "run_until_quiet",
    "sssp_delta_restart",
]
