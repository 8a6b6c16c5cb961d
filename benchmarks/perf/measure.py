"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time

import numpy as np

median = statistics.median


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least ``q`` of the
    samples at or below it (the usual interpolated median for ``q == 0.5``)."""
    ordered = sorted(values)
    if q == 0.5:
        return median(ordered)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int, want: float = 0.9) -> float:
    """The highest quantile ``<= want`` that still has ten samples beyond
    it under :func:`quantile`; the median when ``n`` is too small for any."""
    return max(0.5, min(want, (n - 10) / n)) if n else 0.5


def samples_beyond(n: int, q: float) -> int:
    return n - math.ceil(q * n)


def peak_rss_mb(own: bool = True, children: bool = False) -> float:
    """Largest peak resident set, in MiB, among this process and/or the
    child processes it has waited for (Linux reports KiB)."""
    who = [resource.RUSAGE_SELF] * own + [resource.RUSAGE_CHILDREN] * children
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


#: The probe reading that defines a reference-host second: what the recording
#: host read while quiet when the benchmark was written (20-23 ms since).
REFERENCE_PROBE_S = 0.0230


def probe() -> float:
    """Seconds for a fixed stretch of interpreter work (arithmetic, tuple
    and dict churn) that uses nothing of the program under test."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i & 7
    rows = [(i, i + 1.0, -1) for i in range(60_000)]
    table = {}
    for a, b, c in rows:
        table[a & 4095] = (b, c)
    return time.perf_counter() - start


def warm_probe() -> None:
    """The first few probes of a process read high (cold allocator and
    interpreter caches); spend them before any reading counts."""
    for _ in range(6):
        probe()


class corrected:
    """Times a ``with`` block in *reference-host seconds*.

    Only the end-to-end durations (``setup_s``, ``solve_s`` and through it
    ``edges_per_s``) use this clock; every per-layer number is raw wall
    time.  The recording host (a 2-vCPU VM) drifts between speed states up
    to 1.6x apart that last from seconds to minutes and slow :func:`probe`
    and the workloads alike, so raw wall time of identical work is bimodal
    and no statistic over one run steadies it.  The timed region is
    bracketed by two probes on each side and its wall time is scaled by
    ``REFERENCE_PROBE_S / mean(probes)``: the time it would have taken had
    the host run at its quiet speed throughout.  ``raw_s`` keeps the wall
    time as it was and ``factor`` the scale.
    """

    def __enter__(self) -> "corrected":
        self.raw_s = None
        self._before = (probe() + probe()) / 2
        self._start = time.perf_counter()
        return self

    def stop(self) -> None:
        """End the timed region early; what follows inside the block (such
        as joining worker processes) happens before the closing probes but
        is not timed."""
        if self.raw_s is None:
            self.raw_s = time.perf_counter() - self._start

    def __exit__(self, *exc) -> None:
        self.stop()
        after = (probe() + probe()) / 2
        self.factor = REFERENCE_PROBE_S / ((self._before + after) / 2)
        self.seconds = self.raw_s * self.factor


def host_fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
