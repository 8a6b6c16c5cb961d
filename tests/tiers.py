"""The tier axis of the differential matrices.

Cells ``off``, ``compiled`` and ``vector`` run the ``Machine`` tier of the
same name.  The fourth cell, ``native``, is the id these matrices gave the
fused tier while fusion was opt-in under that tier name.  Fusion is now part
of ``vector``, so that cell runs ``vector`` as well.  Where a cell takes a
chaos seed, the fused cell draws it from a band of its own
(:func:`cell_seed`), and the mutation matrix gives every cell its own graph:
the fused tier is checked on a second set of seeds, not twice on one.
Matrices without a seed run the fused cell as a repeat of ``vector``.
"""

from __future__ import annotations

from repro.runtime.machine import FAST_PATHS

FUSED = "native"
CELLS = (*FAST_PATHS, FUSED)

_FUSED_SEED_BAND = 1000


def tier(cell: str) -> str:
    """The ``Machine(fast_path=...)`` a cell runs."""
    return "vector" if cell == FUSED else cell


def cell_seed(cell: str, seed: int) -> int:
    """``seed`` as the cell uses it: the fused cell's lie in their own band."""
    return seed + _FUSED_SEED_BAND if cell == FUSED else seed
