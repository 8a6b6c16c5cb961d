"""Checkpoint overhead bench — off / full / incremental on delta-stepping.

The checkpoint subsystem (docs/RECOVERY.md) promises that epoch-aligned
snapshots are (a) semantically invisible — a checkpointed run's result
and logical message accounting are bit-identical to a plain run's — and
(b) cheap when incremental: dirty-chunk diffing re-encodes and hashes
only the chunks an epoch touched, so an incremental chain's encoded
chunk count must come in well under a full-every-time manager's (the
content-addressed blob store already dedups *bytes* in both modes —
unique content written is identical by construction).  This bench
measures all three modes on the standard weighted Erdős–Rényi instance
(the C6 graph, Δ-stepping so every epoch is one bucket level), asserts
both claims with loose CI-safe ceilings, and records the numbers
machine-readably in ``results/BENCH_checkpoint.json``.
"""

import platform
import time

import numpy as np

from _common import er_weighted, write_json, write_result
from repro import Machine
from repro.algorithms import sssp_delta_stepping
from repro.runtime import CheckpointConfig

N = 256
AVG_DEG = 6
SEED = 11  # the C6 instance
DELTA = 3.0
ROUNDS = 3
MODES = ("off", "full", "incremental")
# loose ceiling: snapshotting every epoch must stay within this factor
OVERHEAD_CEILING = 6.0


def _config(mode):
    if mode == "off":
        return None
    return CheckpointConfig(incremental=(mode == "incremental"))


def _run(mode, g, wg):
    """Best-of-ROUNDS wall clock; returns (seconds, dist, summary, ckpt)."""
    best, dist, summary, ckpt = float("inf"), None, None, None
    for _ in range(ROUNDS):
        m = Machine(4, checkpoint=_config(mode))
        t0 = time.perf_counter()
        dist = sssp_delta_stepping(m, g, wg, 0, DELTA)
        best = min(best, time.perf_counter() - t0)
        # wall time (handler and epoch seconds) is inherently noisy
        summary = {k: v for k, v in m.stats.summary().items() if "seconds" not in k}
        ckpt = m.stats.checkpoint
    return best, dist, summary, ckpt


def test_checkpoint_overhead(benchmark):
    g, wg = er_weighted(n=N, avg_deg=AVG_DEG, seed=SEED)
    benchmark.pedantic(lambda: _run("off", g, wg), rounds=1, iterations=1)

    times, dists, summaries, ckpts = {}, {}, {}, {}
    for mode in MODES:
        times[mode], dists[mode], summaries[mode], ckpts[mode] = _run(
            mode, g, wg
        )

    # checkpointing never changes the answer or the message accounting
    for mode in MODES[1:]:
        assert np.array_equal(dists["off"], dists[mode]), mode
        assert summaries[mode] == summaries["off"], mode

    # incremental encodes strictly fewer chunks than full-every-time and
    # actually reuses manifests (the dirty tracker is doing its job);
    # unique bytes match — content addressing dedups both modes equally
    full, inc = ckpts["full"], ckpts["incremental"]
    assert full.snapshots == inc.snapshots
    assert inc.chunks_written < full.chunks_written, (
        inc.chunks_written,
        full.chunks_written,
    )
    assert inc.bytes_written <= full.bytes_written
    assert inc.chunks_reused > 0
    assert 0.0 < inc.dirty_fraction < 1.0
    assert full.chunks_reused == 0 and full.dirty_fraction == 1.0

    ratio = {mode: times[mode] / times["off"] for mode in MODES}
    assert ratio["incremental"] <= OVERHEAD_CEILING, ratio

    rows = [
        {
            "checkpoint": mode,
            "seconds": round(times[mode], 4),
            "overhead_vs_off": round(ratio[mode], 3),
            "snapshots": ckpts[mode].snapshots if mode != "off" else 0,
            "chunks_written": (
                ckpts[mode].chunks_written if mode != "off" else 0
            ),
            "bytes_written": (
                ckpts[mode].bytes_written if mode != "off" else 0
            ),
        }
        for mode in MODES
    ]
    write_json(
        "BENCH_checkpoint",
        {
            "workload": {
                "algorithm": f"sssp-delta({DELTA}) (pattern-compiled)",
                "n": N,
                "avg_deg": AVG_DEG,
                "seed": SEED,
            },
            "rounds": ROUNDS,
            "python": platform.python_version(),
            "modes": rows,
            "incremental_vs_full_chunks": round(
                inc.chunks_written / full.chunks_written, 3
            ),
            "ceilings": {"incremental": OVERHEAD_CEILING},
        },
    )
    body = "\n".join(
        f"{r['checkpoint']:<12} {r['seconds']:>8.4f}s   "
        f"{r['overhead_vs_off']:>5.2f}x   "
        f"{r['snapshots']:>3} snaps   {r['chunks_written']:>4} chunks   "
        f"{r['bytes_written']:>9} B"
        for r in rows
    )
    write_result(
        "BENCH_checkpoint",
        f"checkpoint overhead (Δ-stepping SSSP, ER n={N})",
        body,
    )


def test_restore_roundtrip_cost():
    """Restoring the latest checkpoint is cheap and exact: rollback of a
    converged run reproduces the converged maps bit for bit."""
    g, wg = er_weighted(n=N, avg_deg=AVG_DEG, seed=SEED)
    m = Machine(4, checkpoint=True)
    dist = sssp_delta_stepping(m, g, wg, 0, DELTA)
    mgr = m.checkpoints
    pm = mgr.maps()["dist"]
    pm.fill(-1.0)
    t0 = time.perf_counter()
    mgr.restore()
    restore_seconds = time.perf_counter() - t0
    assert np.array_equal(np.asarray(pm.to_array()), np.asarray(dist))
    # loose sanity ceiling — a restore is a handful of chunk decodes
    assert restore_seconds < 5.0, restore_seconds
