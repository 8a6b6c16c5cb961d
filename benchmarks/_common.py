"""Shared helpers for the benchmark harness.

Each benchmark regenerates one experiment from DESIGN.md's index (F1-F6,
C1-C6, S1): it measures wall time via pytest-benchmark, *verifies the
paper's qualitative claim as an assertion* (who wins, by roughly what
factor, where behaviour changes), and persists the regenerated
table/series under ``benchmarks/results/`` so the rows survive pytest's
output capturing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import Machine
from repro.graph import build_graph, erdos_renyi, rmat, uniform_weights

RESULTS_DIR = Path(__file__).parent / "results"

#: Tier of the paper-figure machines.  The default tier fuses message
#: rounds the paper's planner does not (``static_message_count(fused=True)``);
#: the figures record the paper's unfused message counts, which "compiled"
#: reproduces exactly (its accounting is identical to the "off" oracle's).
PAPER_FAST_PATH = "compiled"


def paper_machine(*args, **kw) -> Machine:
    """A :class:`Machine` running the paper's planner, for figure benches."""
    return Machine(*args, fast_path=PAPER_FAST_PATH, **kw)


def timed_with_warmup(fn, *, warmup: int = 1, repeats: int = 3) -> dict:
    """Time ``fn()`` with explicit warmup passes reported separately.

    The first run of a given machine/plan shape pays one-time costs —
    imports, allocator growth, cold caches.  Folding that into
    steady-state numbers would make a tier look slow or fast depending on
    run order, so benches call ``fn`` ``warmup`` times first and report:

    - ``warmup_s``: wall seconds of each warmup pass
    - ``runs_s``:   wall seconds of each measured pass
    - ``best_s``:   min of the measured passes (steady-state figure)

    ``fn`` must be self-contained (build machine, bind, run) so every
    pass re-executes the full algorithm.
    """
    warmup_s = []
    for _ in range(warmup):
        t0 = time.perf_counter()
        fn()
        warmup_s.append(time.perf_counter() - t0)
    runs_s = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs_s.append(time.perf_counter() - t0)
    return {
        "warmup_s": warmup_s,
        "runs_s": runs_s,
        "best_s": min(runs_s),
        "mean_s": sum(runs_s) / len(runs_s),
    }


def write_result(name: str, title: str, body: str) -> Path:
    """Persist one experiment's regenerated rows; also echo to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    text = f"== {title} ==\n{body.rstrip()}\n"
    path.write_text(text)
    print("\n" + text)
    return path


def write_json(name: str, payload: dict) -> Path:
    """Persist one experiment's machine-readable results as JSON.

    Sibling of :func:`write_result` for benches whose numbers feed
    automated checks (e.g. ``BENCH_fastpath.json``'s speedup floor).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    return path


def wire_metrics(machine) -> dict:
    """Wire-codec serialization accounting for one finished run.

    Returns the transport's ``wire_summary()`` (bytes per logical
    message, frame/byte totals, learned per-type schemas) when the
    transport has a wire codec — i.e. ``transport="process"`` — and an
    empty dict otherwise, so benches can record it unconditionally and
    BENCH_* files track serialization cost across PRs.
    """
    summary = getattr(machine.transport, "wire_summary", None)
    if summary is None:
        return {}
    return summary()


def er_weighted(n=256, avg_deg=6, seed=0, n_ranks=4, partition="block"):
    """Standard weighted Erdős–Rényi instance used across benches."""
    m = n * avg_deg
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1.0, 10.0, seed=seed + 1)
    return build_graph(
        n, list(zip(s, t)), weights=w, n_ranks=n_ranks, partition=partition
    )


def rmat_weighted(scale=8, edge_factor=8, seed=0, n_ranks=4, partition="cyclic"):
    """Graph500-style R-MAT instance (skewed degrees)."""
    s, t = rmat(scale, edge_factor=edge_factor, seed=seed)
    w = uniform_weights(len(s), 1.0, 10.0, seed=seed + 1)
    return build_graph(
        1 << scale, list(zip(s, t)), weights=w, n_ranks=n_ranks, partition=partition
    )


def er_undirected(n=200, m=260, seed=0, n_ranks=4):
    s, t = erdos_renyi(n, m, seed=seed)
    g, _ = build_graph(n, list(zip(s, t)), directed=False, n_ranks=n_ranks)
    return g, s, t
