"""The ``once`` strategy (paper Sec. II-B).

"The once strategy performs an action at every vertex in the input set,
recording if any assignments to property maps were performed."  Used by
the CC algorithm to drive pointer jumping to quiescence.

Dependencies are *not* chased (the work hook is cleared): the action runs
exactly once per input vertex, and the return value tells the caller
whether anything changed.
"""

from __future__ import annotations

from typing import Iterable

from ..patterns.executor import BoundAction
from ..runtime.machine import Machine


def once(machine: Machine, action: BoundAction, vertices: Iterable[int]) -> bool:
    """Apply ``action`` once per vertex; ``True`` iff any value changed."""
    action.work = None
    before = action.change_count
    with machine.epoch() as ep:
        action.invoke_many(ep, vertices)
    return action.change_count > before
