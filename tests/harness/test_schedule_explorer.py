"""Acceptance tests for the schedule/fault exploration harness.

Three guarantees are locked in here:

1. **Sweep correctness** — a full (schedule x routing x fast_path x
   chaos-seed) sweep of 25+ combos produces property maps bit-identical
   to the fault-free oracle, with faults actually injected.
2. **Bug-finding power** — a deliberately shrunken dedup window
   (``ReliableConfig(dedup_window=1)``) re-introduces at-least-once
   delivery; the explorer catches the resulting divergence on a
   duplication-sensitive workload.
3. **Shrinking** — the recorded fault trace of such a failure is
   minimized by ddmin to a handful of events (<= 10), and the minimal
   trace still reproduces the failure via scripted replay.
"""

from __future__ import annotations

import pytest

from repro.runtime import ChaosConfig, ReliableConfig
from repro.runtime.machine import Machine

from tests.harness.schedule_explorer import (
    FAST_PATHS,
    N_RANKS,
    RunConfig,
    Shrinker,
    _run_traced,
    compare,
    default_chaos,
    explore,
    run_config,
    sweep,
    wl_pagerank,
)

# A seed for which ``default_chaos`` provably exposes the dedup_window=1
# bug on the ``accumulate`` workload (verified experimentally; the trace
# shrinks to ~4 events).  Pinned so the test is deterministic.
BUGGY_SEED = 0
BUGGY_CONFIG = RunConfig(
    workload="accumulate", schedule="random", routing="direct", fast_path="off"
)
BUGGY_RELIABLE = ReliableConfig(dedup_window=1)


# ---------------------------------------------------------------------------
# 1. Sweep: 25+ combos bit-identical to the fault-free oracle
# ---------------------------------------------------------------------------


class TestSweep:
    def test_full_sweep_is_bit_identical(self):
        combos = sweep(chaos_seeds=(0, 1))
        assert len(combos) >= 25, "acceptance floor: 25+ combos"
        failures = explore(combos)
        assert not failures, "\n".join(f.describe() for f in failures)

    def test_sweep_covers_all_axes(self):
        combos = sweep(chaos_seeds=(0,))
        schedules = {c[0].schedule for c in combos}
        routings = {c[0].routing for c in combos}
        fast_paths = {c[0].fast_path for c in combos}
        assert len(schedules) >= 4
        assert len(routings) >= 2
        assert fast_paths == set(FAST_PATHS)

    def test_chaos_actually_injects_faults(self):
        cfg = RunConfig(
            workload="sssp", schedule="round_robin", routing="direct", fast_path="vector"
        )
        sink: list = []
        oracle = run_config(cfg)
        result = _run_traced(cfg, default_chaos(2), ReliableConfig(), sink)
        assert not compare(oracle, result)
        assert len(sink) > 0, "the chaos run must have injected faults"
        kinds = {ev.kind for ev in sink}
        assert kinds & {"drop", "duplicate", "delay", "reorder"}


    def test_pagerank_sum_path_survives_chaos_and_sees_duplicates(self):
        """The ``pagerank`` workload runs the vector tier's ``+=`` path
        under chaos bit-identically, and a duplicated row shows."""
        cfg = RunConfig(
            workload="pagerank", schedule="random", routing="direct", fast_path="vector"
        )
        oracle = run_config(cfg)
        machine = Machine(
            N_RANKS, fast_path="vector", chaos=default_chaos(2), reliable=ReliableConfig()
        )
        assert not compare(oracle, wl_pagerank(machine, cfg.graph_seed))
        assert machine.stats.chaos.duplicated > 0
        assert machine.stats.by_type["pat.PR.scatter"].vector_items > 0
        result = _run_traced(cfg, default_chaos(2), BUGGY_RELIABLE, [])
        assert compare(oracle, result)


# ---------------------------------------------------------------------------
# 2 + 3. Injected dedup-window bug is caught and shrunk to <= 10 events
# ---------------------------------------------------------------------------


class TestBugHuntAndShrink:
    def _failing_trace(self):
        sink: list = []
        oracle = run_config(BUGGY_CONFIG)
        try:
            result = _run_traced(
                BUGGY_CONFIG, default_chaos(BUGGY_SEED), BUGGY_RELIABLE, sink
            )
            mismatches = compare(oracle, result)
        except Exception:  # divergence may also surface as a runtime error
            mismatches = ["crashed"]
        return mismatches, sink

    def test_dedup_window_bug_is_caught(self):
        mismatches, trace = self._failing_trace()
        assert mismatches, (
            "dedup_window=1 must re-introduce at-least-once delivery on the "
            "duplication-sensitive accumulate workload"
        )
        assert trace, "the failing run must have recorded its fault trace"

    def test_shrinker_minimizes_to_at_most_10_events(self):
        _, trace = self._failing_trace()
        shrinker = Shrinker(config=BUGGY_CONFIG, reliable=BUGGY_RELIABLE)
        minimal = shrinker.shrink(trace)
        assert 1 <= len(minimal) <= 10, (
            f"shrunk trace has {len(minimal)} events, expected <= 10: {minimal}"
        )
        # The minimal trace must still reproduce the failure...
        assert shrinker.fails(minimal)
        # ...and be 1-minimal: removing any single event makes it pass.
        for i in range(len(minimal)):
            reduced = minimal[:i] + minimal[i + 1 :]
            assert not shrinker.fails(reduced), (
                f"trace not 1-minimal: event {minimal[i]} is removable"
            )

    def test_correct_window_survives_the_minimal_trace(self):
        """The exact fault script that kills dedup_window=1 is harmless
        with the default window — the bug is in the config, not the run."""
        _, trace = self._failing_trace()
        shrinker = Shrinker(config=BUGGY_CONFIG, reliable=BUGGY_RELIABLE)
        minimal = shrinker.shrink(trace)
        oracle = run_config(BUGGY_CONFIG)
        script = ChaosConfig(script=tuple(minimal))
        result = run_config(BUGGY_CONFIG, chaos=script, reliable=ReliableConfig())
        assert not compare(oracle, result)

    def test_shrink_rejects_passing_trace(self):
        shrinker = Shrinker(config=BUGGY_CONFIG, reliable=ReliableConfig())
        with pytest.raises(ValueError):
            shrinker.shrink([])


# ---------------------------------------------------------------------------
# Scripted replay determinism
# ---------------------------------------------------------------------------


class TestReplayDeterminism:
    def test_trace_replays_to_identical_trace_and_result(self):
        cfg = RunConfig(
            workload="accumulate", schedule="random", routing="direct", fast_path="off"
        )
        sink1: list = []
        res1 = _run_traced(cfg, default_chaos(3), ReliableConfig(), sink1)
        # Replay the recorded trace as a script: same faults, same results.
        script = ChaosConfig(script=tuple(sink1))
        sink2: list = []
        res2 = _run_traced(cfg, script, ReliableConfig(), sink2)
        assert sink1 == sink2
        assert not compare(res1, res2)
