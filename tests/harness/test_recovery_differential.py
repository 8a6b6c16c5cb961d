"""Differential recovery suite (docs/RECOVERY.md, flagship claim).

A crashed-and-recovered run must be observably identical to an
uninterrupted run of the same configuration under the same adversary:
bit-identical property maps, identical dependent (predecessor) sets,
and — on the deterministic sim transport — identical logical message
accounting.  The baseline is the *same* chaos config with only the
crash removed, so fault-injection noise cancels out and rollback/replay
is the only variable under test.
"""

import numpy as np
import pytest

from repro.algorithms.sssp import bind_sssp, sssp_fixed_point, sssp_with_predecessors
from repro.graph import MutationBatch, build_graph, erdos_renyi, uniform_weights
from repro.props.property_map import weight_map_from_array
from repro.runtime import ChaosConfig, Machine, run_with_recovery
from repro.runtime.checkpoint import CheckpointError
from repro.strategies import sssp_delta_restart

from ..tiers import CELLS, cell_seed, tier
from .schedule_explorer import (
    N_RANKS,
    RunConfig,
    Shrinker,
    crash_chaos,
    explore_recovery,
    run_config,
    run_config_recover,
    uncrashed,
)

SEEDS = tuple(range(10))


def _summary(machine) -> dict:
    """Logical accounting: everything except wall-clock and fault noise.

    ``chaos_*`` counters track *physical* fault injections, which differ
    by construction (the candidate run contains a crash event and the
    retries its dumped mailbox forces); checkpoint counters exist only on
    the checkpointed machine.  Everything else — logical sends, handler
    calls, payload slots, epochs, control messages — must match exactly.
    """
    return {
        k: v
        for k, v in machine.stats.summary().items()
        if not k.startswith("chaos_")
        and not k.startswith("checkpoint")
        and "seconds" not in k
    }


class TestRecoveryDifferential:
    """sim transport × fast paths × chaos seeds, full adversary + crash."""

    @pytest.mark.parametrize("fast_path", CELLS)
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_delta_stepping(self, fast_path, seed):
        cfg = RunConfig(workload="sssp_delta", fast_path=tier(fast_path))
        chaos = crash_chaos(cell_seed(fast_path, seed))
        oracle = run_config(cfg, chaos=uncrashed(chaos))
        result, machine = run_config_recover(cfg, chaos)
        assert np.array_equal(oracle["dist"], result["dist"])
        if machine.stats.chaos.crashes:
            assert machine.stats.checkpoint.restores >= 1

    @pytest.mark.parametrize("seed", SEEDS[5:])
    def test_delta_stepping_more_seeds_compiled(self, seed):
        cfg = RunConfig(workload="sssp_delta", fast_path="compiled")
        chaos = crash_chaos(seed)
        oracle = run_config(cfg, chaos=uncrashed(chaos))
        result, _ = run_config_recover(cfg, chaos)
        assert np.array_equal(oracle["dist"], result["dist"])

    def test_majority_of_seeds_actually_crash(self):
        """A sweep whose crashes never fire proves nothing."""
        crashed = 0
        for seed in SEEDS:
            cfg = RunConfig(workload="sssp_delta", fast_path="compiled")
            _, machine = run_config_recover(cfg, crash_chaos(seed))
            crashed += bool(machine.stats.chaos.crashes)
        assert crashed >= len(SEEDS) // 2, f"only {crashed}/{len(SEEDS)} crashed"

    @pytest.mark.parametrize("seed", (0, 3, 7))
    def test_logical_accounting_identical(self, seed):
        """On the sim transport the replayed run re-draws the same fates,
        so even the message counters line up with the crash-free run."""
        cfg = RunConfig(workload="sssp_delta", fast_path="vector")
        chaos = crash_chaos(seed)
        m0 = Machine(
            n_ranks=N_RANKS,
            schedule=cfg.schedule,
            seed=cfg.machine_seed,
            routing=cfg.routing,
            fast_path=cfg.fast_path,
            detector=cfg.detector,
            chaos=uncrashed(chaos),
        )
        from .schedule_explorer import WORKLOADS

        oracle = WORKLOADS[cfg.workload](m0, cfg.graph_seed)
        result, m1 = run_config_recover(cfg, chaos)
        assert np.array_equal(oracle["dist"], result["dist"])
        assert _summary(m0) == _summary(m1)

    def test_explore_recovery_clean(self):
        """The harness's own recovery sweep, one small slice."""
        combos = [
            (RunConfig(workload="sssp_delta", fast_path=fp), crash_chaos(s))
            for fp in ("off", "vector")
            for s in (1, 4)
        ]
        failures, crashed = explore_recovery(combos)
        assert not failures, "\n".join(f.describe() for f in failures)
        assert crashed >= len(combos) // 2


class TestPredecessorSetsRecovery:
    """Dependent (object-valued) maps across crash/restore."""

    def _run(self, machine):
        s, t = erdos_renyi(40, 110, seed=9)
        w = uniform_weights(110, 1.0, 8.0, seed=10)
        g, wbg = build_graph(
            40, list(zip(s, t)), weights=w, n_ranks=4, partition="cyclic"
        )
        dist, preds = sssp_with_predecessors(machine, g, wbg, 0)
        return np.asarray(dist), [set(p) for p in preds]

    @pytest.mark.parametrize("seed", (0, 2, 5))
    def test_pred_sets_identical(self, seed):
        chaos = crash_chaos(seed)
        m0 = Machine(4, chaos=uncrashed(chaos))
        d0, p0 = self._run(m0)

        m1 = Machine(4, chaos=chaos, checkpoint=True)
        d1, p1 = run_with_recovery(m1, lambda: self._run(m1))
        assert np.array_equal(d0, d1)
        assert p0 == p1


class TestThreadsRecoverySmoke:
    """Real threads: nondeterministic scheduling, so maps only."""

    def _run(self, machine):
        from repro.algorithms.sssp import sssp_delta_stepping

        s, t = erdos_renyi(40, 110, seed=11)
        w = uniform_weights(110, 1.0, 8.0, seed=12)
        g, wbg = build_graph(
            40, list(zip(s, t)), weights=w, n_ranks=3, partition="cyclic"
        )
        return np.asarray(sssp_delta_stepping(machine, g, wbg, 0, 4.0))

    def test_crash_recover_on_threads(self):
        m0 = Machine(3, transport="threads")
        d0 = self._run(m0)

        m1 = Machine(
            3,
            transport="threads",
            chaos=ChaosConfig(crash_rank=1, crash_tick=8),
            checkpoint=True,
        )
        d1 = run_with_recovery(m1, lambda: self._run(m1))
        assert m1.stats.chaos.crashes == 1
        assert np.array_equal(d0, d1)


class TestCrashTraceShrinking:
    """ddmin over a crash-bearing trace (satellite: replay + shrink)."""

    def test_shrinks_to_crash_event(self):
        """Under the full adversary the trace collects dozens of benign
        fault events; if the failure is 'the run crashes', ddmin must
        strip everything but crash events."""
        cfg = RunConfig(workload="sssp_delta", fast_path="compiled")
        chaos = crash_chaos(2)
        assert chaos.crash_rank >= 0
        # run WITHOUT recovery so the crash escapes as a failure
        try:
            run_config(cfg, chaos=chaos)
            raised = False
        except Exception:
            raised = True
        assert raised
        # reproduce with a traced run to collect the full fault trace
        from .schedule_explorer import _run_traced

        sink: list = []
        with pytest.raises(Exception):
            _run_traced(cfg, chaos, None, sink)
        trace = tuple(sink)
        assert any(ev.kind == "crash" for ev in trace)
        assert len(trace) > 1  # adversary injected benign faults too

        shrinker = Shrinker(cfg)
        minimal = shrinker.shrink(trace)
        assert len(minimal) < len(trace)
        assert all(ev.kind == "crash" for ev in minimal)
        assert len(minimal) == 1

    def test_minimal_trace_replays_crash(self):
        from repro.runtime import FaultEvent, RankCrashed

        cfg = RunConfig(workload="sssp_delta")
        with pytest.raises(RankCrashed):
            run_config(
                cfg,
                chaos=ChaosConfig(script=(FaultEvent(12, "crash", 2),)),
            )


class TestMutationRecovery:
    """Crash recovery across a graph mutation (docs/DYNAMIC.md).

    The driver runs SSSP to its fixed point, applies a mutation batch
    through ``Machine.apply_mutations``, then delta-restarts.  A crash
    anywhere along that timeline — including *inside* the incremental
    restart — must recover to exactly the crash-free result: the re-run
    replays the driver from scratch, the post-mutation checkpoint stays
    parked until the replayed ``apply_mutations`` brings the rebuilt
    graph back to the checkpointed version, and only then is it applied.
    """

    def _run(self, machine, ticks=None):
        """The driver; ``ticks`` (if given) collects the chaos clock right
        after ``apply_mutations`` and again after the delta restart."""
        s, t = erdos_renyi(40, 110, seed=21)
        w = uniform_weights(110, 1.0, 8.0, seed=22)
        g, wbg = build_graph(
            40, list(zip(s, t)), weights=w, n_ranks=4, partition="cyclic"
        )
        wm = weight_map_from_array(g, wbg)
        machine.attach_graph(g)
        bp = bind_sssp(machine, g, wm)
        sssp_fixed_point(machine, g, wm, 0, bound=bp)
        arcs = [(a, b) for _gid, a, b in g.edges()]
        batch = MutationBatch()
        batch.delete_edge(*arcs[5])
        batch.insert_edge(7, 31, weight=1.5)
        batch.update_weight(*arcs[20], 2.0)
        delta = machine.apply_mutations(batch, weight_map=wm)
        if ticks is not None:
            ticks.append(machine.chaos.tick)
        rep = sssp_delta_restart(machine, bp, delta, 0)
        if ticks is not None:
            ticks.append(machine.chaos.tick)
        return rep.values

    @pytest.mark.parametrize("seed", tuple(range(6)))
    def test_full_adversary_crash_matches_crash_free(self, seed):
        chaos = crash_chaos(seed)
        m0 = Machine(4, chaos=uncrashed(chaos))
        base = self._run(m0)
        m1 = Machine(4, chaos=chaos, checkpoint=True)
        got = run_with_recovery(m1, lambda: self._run(m1))
        assert np.array_equal(base, got)
        if m1.stats.chaos.crashes:
            assert m1.stats.checkpoint.restores >= 1

    def test_seeds_actually_crash(self):
        crashed = 0
        for seed in range(6):
            m = Machine(4, chaos=crash_chaos(seed), checkpoint=True)
            run_with_recovery(m, lambda: self._run(m))
            crashed += bool(m.stats.chaos.crashes)
        assert crashed >= 3, f"only {crashed}/6 seeds crashed"

    def test_scripted_crash_inside_delta_restart(self):
        """The crash lands midway between apply_mutations and restart
        convergence, so it destroys the half-relaxed incremental state
        specifically.  Both ticks are read off a crash-free run of the same
        configuration: the window moves with the tier's message schedule."""
        m0 = Machine(4)
        base = self._run(m0)
        ticks: list = []
        probe = Machine(4, chaos=ChaosConfig(), checkpoint=True)
        assert np.array_equal(base, self._run(probe, ticks))
        mutated, converged = ticks
        assert converged - mutated >= 2, "delta restart ran no scheduler step"
        m1 = Machine(
            4,
            chaos=ChaosConfig(crash_rank=1, crash_tick=(mutated + converged) // 2),
            checkpoint=True,
        )
        got = run_with_recovery(m1, lambda: self._run(m1))
        assert m1.stats.chaos.crashes == 1
        assert m1.stats.checkpoint.restores >= 1
        assert np.array_equal(base, got)

    def test_restore_refuses_rollback_across_mutation(self):
        """A pre-mutation checkpoint must never be restored onto the
        mutated graph: that would silently un-mutate the results."""
        s, t = erdos_renyi(30, 80, seed=5)
        g, _ = build_graph(30, list(zip(s, t)), n_ranks=4, partition="cyclic")
        m = Machine(4, checkpoint=True)
        m.attach_graph(g)
        from repro.algorithms.bfs import bfs_pattern
        from repro.patterns import bind
        from repro.strategies import fixed_point

        bp = bind(bfs_pattern(), m, g)
        bp.map("depth")[0] = 0.0
        fixed_point(m, bp["hop"], [0])
        pre = m.checkpoints.latest()
        assert pre is not None and pre.meta["graph_version"] == 0
        m.apply_mutations(MutationBatch().insert_edge(3, 17))
        with pytest.raises(CheckpointError, match="graph version"):
            m.checkpoints.restore(pre)

    def test_queued_mutation_checkpoint_round_trip(self):
        """The pending-mutation queue is checkpoint state: a batch queued
        but not yet applied survives capture/restore (weight maps travel
        by registered name) and still applies at the next boundary."""
        s, t = erdos_renyi(20, 50, seed=6)
        w = uniform_weights(50, 1.0, 4.0, seed=7)
        g, wbg = build_graph(
            20, list(zip(s, t)), weights=w, n_ranks=4, partition="cyclic"
        )
        m = Machine(4, checkpoint=True)
        m.attach_graph(g)
        wm = weight_map_from_array(g, wbg)
        wm.name = "weight"
        m.checkpoints.register_map(wm)
        batch = MutationBatch()
        batch.insert_edge(2, 11, weight=2.5)
        batch.add_vertices(1)
        m.queue_mutations(batch, weight_map=wm)
        m.checkpoints.capture(full=True)
        m._pending_mutations.clear()  # simulate losing the live queue
        m.checkpoints.restore()
        assert len(m._pending_mutations) == 1
        rebatch, wm_ref = m._pending_mutations[0]
        assert wm_ref == "weight"  # travels by name, resolved at apply time
        assert rebatch.vertices_added == 1
        n_edges_before = g.n_edges
        with m.epoch():
            pass  # boundary: the queued batch applies here
        assert g.n_vertices == 21
        assert g.n_edges == n_edges_before + 1
        assert g.version == 1
