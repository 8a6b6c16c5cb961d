"""Chaining strategies (paper Sec. I: strategies allow "chaining patterns
in an arbitrary way").

Two generic combinators built purely from the public surface:

* :func:`chain` — apply a sequence of actions, each over its vertex set,
  each inside its own epoch (all work of step k completes before step
  k+1 begins).  The CC driver is a hand-rolled instance of this shape.
* :func:`run_until_quiet` — repeat an action (via ``once``) until no
  property value changes; the generic Bellman-Ford/Jacobi driver.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..patterns.executor import BoundAction
from ..runtime.machine import Machine
from .once import once


def chain(
    machine: Machine,
    steps: Sequence[tuple[BoundAction, Iterable[int]]],
) -> None:
    """Run ``(action, vertices)`` steps sequentially, one epoch each.

    Work hooks installed on the actions stay in effect, so a step may be
    a full fixed-point computation if its hook re-invokes.
    """
    for action, vertices in steps:
        with machine.epoch() as ep:
            action.invoke_many(ep, vertices)


def run_until_quiet(
    machine: Machine,
    action: BoundAction,
    vertices: Iterable[int],
    *,
    max_rounds: int = 1_000_000,
) -> int:
    """Apply ``action`` to ``vertices`` round after round until a round
    changes nothing; returns the number of changing rounds."""
    vertex_list = list(vertices)
    rounds = 0
    while once(machine, action, vertex_list):
        rounds += 1
        if rounds >= max_rounds:
            raise RuntimeError(
                f"run_until_quiet exceeded {max_rounds} rounds; "
                "the action may not be monotone"
            )
    return rounds
