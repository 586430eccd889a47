"""Trace writers -- the inverse of :mod:`repro.trace.parsers`."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Union

from repro.trace.trace import Trace


#: Per STD field, the characters its parser would read as structure.
_STD_FORBIDDEN = (
    ("thread", "|\n\r"),
    ("target", ")|\n\r"),
    ("location", "|\n\r"),
)


def write_std(trace: Trace) -> str:
    """Serialize ``trace`` in the STD one-event-per-line format.

    Raises :class:`ValueError`, naming the event index and the field,
    when a thread or location holds ``|`` or a line break, or a target
    holds ``)``, ``|`` or a line break: STD cannot carry them, and the
    line would load back as a different event.
    """
    lines = []
    for event in trace:
        target = event.target if event.target is not None else ""
        loc = event.loc or ""
        line = "%s|%s(%s)|%s" % (event.thread, event.etype.value, target, loc)
        if line.count("|") != 2 or ")" in target or (
            "\n" in line or "\r" in line
        ):
            _refuse_std(event.index, (str(event.thread), target, loc))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _refuse_std(index: int, values) -> None:
    for (field, forbidden), value in zip(_STD_FORBIDDEN, values):
        for char in forbidden:
            if char in value:
                raise ValueError(
                    "event %d: %s %r contains %r, which STD cannot carry"
                    % (index, field, value, char)
                )


def write_csv(trace: Trace) -> str:
    """Serialize ``trace`` as CSV with a ``thread,etype,target,loc`` header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["thread", "etype", "target", "loc"])
    for event in trace:
        writer.writerow([
            event.thread,
            event.etype.value,
            event.target if event.target is not None else "",
            event.loc or "",
        ])
    return buffer.getvalue()


def dump_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path``, choosing the format from the extension."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        path.write_text(write_csv(trace))
    else:
        path.write_text(write_std(trace))
    return path
