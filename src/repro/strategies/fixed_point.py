"""The ``fixed_point`` strategy (paper Sec. II-A).

    strategy fixed_point(action a, container vertices) {
      a.work(Vertex v) = { a(v) };
      epoch {
        for (v in vertices) a(v);
      }
    }

The action's work hook is set to immediately re-run the action at every
dependent vertex; the epoch guarantees that all transitively produced work
completes before the strategy returns.
"""

from __future__ import annotations

from typing import Iterable

from ..patterns.executor import BoundAction
from ..runtime.machine import Machine


def fixed_point(machine: Machine, action: BoundAction, vertices: Iterable[int]) -> None:
    """Run ``action`` at ``vertices`` and chase dependencies to a fixed point."""
    action.work = action.invoke_from
    action.work_many = action.invoke_many_from
    with machine.epoch() as ep:
        action.invoke_many(ep, vertices)
