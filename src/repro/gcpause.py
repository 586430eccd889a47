"""Pause the cyclic garbage collector around a bulk pass.

Loading a trace and running a synchronous engine pass allocate hundreds
of thousands of long-lived objects (events, clocks, access histories)
and create no cyclic garbage, so every generation-0 threshold crossing
during them is a collector walk over a growing heap that frees nothing.
:func:`gc_paused` disables the collector for the block and restores the
caller's state afterwards: a collector that was already disabled stays
disabled.  Reference counting still frees acyclic garbage as usual.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block, then restore it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
