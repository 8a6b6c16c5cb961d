"""The Delta-stepping strategy (paper Sec. II-A).

    strategy delta(action a, container vertices, property-map m, delta D) {
      buckets B; i = 0;
      for (v in vertices) B.insert(v, m[v], D);
      a.work(Vertex v) = { B.insert(v, m[v], D); }
      while (!B.empty()) {
        epoch { while (!B[i].empty()) { v = B[i].pop(); a(v); } }
        i++;
      }
    }

Two variants are provided:

* :func:`delta_stepping` — the paper's strategy, driven from the (global)
  driver: one epoch per bucket level, re-testing the level after the
  epoch because in-flight work may refill it ("epoch must be used to
  finish ongoing actions, and the bucket has to be tested again").
* :func:`delta_stepping_spmd` — the distributed variant the paper
  sketches in Sec. III-D: per-rank buckets on real threads; a rank that
  runs out of local work calls ``try_finish`` and, on failure, returns to
  its buckets (which handler threads may have refilled meanwhile).
"""

from __future__ import annotations

from typing import Iterable

from ..patterns.executor import BoundAction
from ..props.property_map import VertexPropertyMap
from ..runtime.machine import Machine
from .buckets import Buckets


class DeltaLoopState:
    """Resumable loop state for :func:`delta_stepping`.

    Registered with the machine's :class:`~repro.runtime.checkpoint.
    CheckpointManager` (when one is installed) so an epoch-aligned
    checkpoint carries the strategy's position — the pending buckets,
    the next level to open, and the levels finished so far.  After a
    rank crash, recovery re-runs the strategy function; the fresh
    ``DeltaLoopState`` it builds adopts the rolled-back state
    (:meth:`CheckpointManager.adopt_state`) and the loop resumes
    mid-``delta`` instead of starting over.
    """

    checkpoint_name = "strategy:delta_stepping"

    def __init__(self, delta: float) -> None:
        self.buckets = Buckets(delta)
        self.seeded = False
        self.next_start = 0
        self.levels = 0

    def checkpoint_state(self) -> dict:
        return {
            "buckets": self.buckets.checkpoint_state(),
            "seeded": self.seeded,
            "next_start": self.next_start,
            "levels": self.levels,
        }

    def restore_state(self, state: dict) -> None:
        # Restore the Buckets *in place*: the action's work hook closes
        # over this object, so identity must survive the rollback.
        self.buckets.restore_state(state["buckets"])
        self.seeded = bool(state["seeded"])
        self.next_start = int(state["next_start"])
        self.levels = int(state["levels"])


def delta_stepping(
    machine: Machine,
    action: BoundAction,
    vertices: Iterable[int],
    pmap: VertexPropertyMap,
    delta: float,
) -> int:
    """Apply ``action`` level by level; returns the number of levels run.

    Resumable: with checkpointing enabled the loop state (buckets, next
    level, levels finished) rides in every epoch-aligned checkpoint, and
    a re-entry after a crash rollback continues from the restored level.
    """
    state = DeltaLoopState(delta)
    mgr = getattr(machine, "checkpoints", None)
    if mgr is not None:
        mgr.adopt_state(state)
    B = state.buckets
    if not state.seeded:
        for v in vertices:
            B.insert(v, pmap[v])
        state.seeded = True
    action.work = lambda ctx, w: B.insert(w, pmap.get(w, rank=ctx.rank))
    action.work_many = lambda ctx, ws: B.insert_many(ws, pmap.get_many(ws, ctx.rank))

    i = B.next_nonempty(state.next_start)
    while i is not None:
        # One epoch per level: drain bucket i, flush, and re-test — work
        # produced by in-flight actions may land back in the current level
        # (light edges), so the inner loop repeats inside the epoch.
        with machine.epoch() as ep:
            while True:
                action.invoke_many(ep, B.drain(i))
                ep.flush()  # finish ongoing actions; they may refill B[i]
                if B.bucket_empty(i):
                    break
            # Advance the loop state *inside* the epoch body: the
            # end-of-epoch auto-capture (Epoch.__exit__) must record a
            # position consistent with the level just drained.
            state.levels += 1
            state.next_start = i + 1
        i = B.next_nonempty(state.next_start)
    if mgr is not None:
        mgr.drop_state(DeltaLoopState.checkpoint_name)
    return state.levels


def delta_stepping_spmd(
    machine: Machine,
    action: BoundAction,
    sources: Iterable[int],
    pmap: VertexPropertyMap,
    delta: float,
) -> None:
    """Distributed Delta-stepping with rank-local buckets and try_finish.

    Requires ``transport='threads'``.  Every rank drains its own buckets
    in level order; running dry, it attempts to finish the epoch and goes
    back to work if the attempt fails (paper Sec. III-D).
    """
    buckets = [Buckets(delta) for _ in range(machine.n_ranks)]

    def work(ctx, w: int) -> None:
        buckets[ctx.rank].insert(w, pmap.get(w, rank=ctx.rank))

    action.work = work
    source_list = list(sources)

    def program(ctx) -> None:
        mine = buckets[ctx.rank]
        for v in source_list:
            if ctx.is_local(v):
                mine.insert(v, pmap.get(v, rank=ctx.rank))
        while True:
            with ctx.epoch() as ep:
                while True:
                    i = mine.next_nonempty(0)
                    if i is None:
                        ep.flush()  # help drain in-flight handlers
                        # Locally idle: attempt to finish.  A failed attempt
                        # means work is still in flight somewhere — go back
                        # to the buckets (a handler's work hook may have
                        # refilled them meanwhile), exactly the paper's
                        # Sec. III-D protocol.
                        if mine.empty() and ep.try_finish():
                            break
                        continue
                    v = mine.pop(i)
                    if v is not None:
                        ctx.send(action.mtype, (int(v), -1, 0))
            # Epoch exit proved global quiescence of *messages*, but a
            # handler's work hook may have deposited bucket work after this
            # rank stopped draining.  Decide collectively between barriers
            # (no mutation can happen here: all handlers have completed and
            # every program thread is parked).
            ctx.barrier()
            done = all(b.empty() for b in buckets)
            ctx.barrier()
            if done:
                return

    machine.run_spmd(program)
