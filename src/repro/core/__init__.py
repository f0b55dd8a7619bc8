"""Core Asbestos label algebra.

This package implements the label machinery of the paper's Section 5:

- :mod:`repro.core.levels` -- the ordered level set ``[*, 0, 1, 2, 3]``.
- :mod:`repro.core.labels` -- labels as functions from handles to levels,
  with the lattice operators compare (``<=``), least upper bound (``|``),
  greatest lower bound (``&``), and the stars-only projection ``L.stars()``.
- :mod:`repro.core.handles` -- the 61-bit handle namespace, allocated by
  encrypting a counter so that handle values are unpredictable but never
  repeat (closing the handle-count covert channel, Section 8).
- :mod:`repro.core.chunks` -- the kernel's chunked, copy-on-write label
  representation (Section 5.6): packed buffers, chunks shared by identity.
- :mod:`repro.core.labelops` -- the fused Figure 4 operations on it.
"""

from repro.core.levels import STAR, L0, L1, L2, L3, Level, level_name
from repro.core.labels import Label
from repro.core.handles import Handle, HandleAllocator, HANDLE_BITS

__all__ = [
    "STAR",
    "L0",
    "L1",
    "L2",
    "L3",
    "Level",
    "level_name",
    "Label",
    "Handle",
    "HandleAllocator",
    "HANDLE_BITS",
]
