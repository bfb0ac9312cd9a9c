"""Stage seconds of this process, in one table: the only clock of a stage in ``bfdr``.

A forked worker of ``studies.imap_parallel`` sends what each item recorded
back with its result, and the map adds it to this process's table as it
yields the item, so a map records the same stages on any number of
workers. Seconds summed over several processes are work, not wall time.
Spans go around coarse blocks, never around one test.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["span", "take", "add"]

_clock = time.perf_counter
_seconds: dict[str, float] = {}


@contextmanager
def span(name: str) -> Iterator[None]:
    """Add the wall-clock seconds of the ``with`` block to stage ``name`` (not when the block raises)."""
    _seconds.setdefault(name, 0.0)
    start = _clock()
    yield
    _seconds[name] = _seconds.get(name, 0.0) + _clock() - start


def take() -> dict[str, float]:
    """The stage seconds recorded since the last ``take()``, in the order the stages first started."""
    global _seconds
    table, _seconds = _seconds, {}
    return table


def add(table: dict[str, float]) -> None:
    """Add another process's ``take()`` to this process's table."""
    for name, seconds in table.items():
        _seconds[name] = _seconds.get(name, 0.0) + seconds
