"""The result JSON, streamed.

:func:`write_result` writes a runtime result with exactly the bytes of
``json.dumps(payload, indent=indent, sort_keys=True)``, but never
builds that payload.  The session audit log, which is nearly all of
the bytes, is formatted straight from its columns
(:class:`~repro.runtime.sessions.SessionLog`) through one row template
per indent, :data:`EXPORT_BLOCK` rows per ``write``: export holds one
block of row strings, never a dict or an event object per row, nor the
whole string.  Times take ``float.__repr__`` (what :mod:`json` writes
for a finite float) unless one vectorised check finds a non-finite
time in the block; rows the log stamped with an int time write that
int.  The other sections are small; they go through :func:`json.dumps`
and are re-indented one level.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from typing import TextIO

import numpy as np

from repro.runtime.sessions import SessionEventKind, SessionLog

#: Session events encoded per ``write`` call.
EXPORT_BLOCK = 2048

#: The fields of one session event, in ``sort_keys`` order.
_EVENT_FIELDS = ('"kind": %s', '"reason": %s', '"served_by": %s',
                 '"session_id": %d', '"time": %s', '"title": %d')

_INF = float("inf")


def _json_string(value: str | None) -> str:
    """``value`` exactly as :func:`json.dumps` spells it (None is null)."""
    return "null" if value is None else encode_basestring_ascii(value)


def _json_number(value: float) -> str:
    """``value`` exactly as :func:`json.dumps` spells it."""
    if not isinstance(value, float):
        return int.__repr__(value)
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def write_result(handle: TextIO, log: SessionLog,
                 sections: Mapping[str, object], *,
                 indent: int | None = None) -> None:
    """Write ``{"events": log, **sections}`` to ``handle`` as
    ``json.dumps(..., indent=indent, sort_keys=True)`` would."""
    if indent is None:
        item_sep, pads = ", ", ("", "", "", "")
    else:
        item_sep = ","
        pads = tuple("\n" + " " * (level * indent) for level in range(4))
    handle.write("{")
    for i, key in enumerate(sorted(("events", *sections))):
        handle.write((item_sep if i else "") + pads[1]
                     + encode_basestring_ascii(key) + ": ")
        if key == "events":
            _write_events(handle, log, item_sep, pads)
            continue
        # json escapes line breaks inside strings, so every raw "\n"
        # in ``text`` starts an indented line.
        text = json.dumps(sections[key], indent=indent, sort_keys=True)
        handle.write(text.replace("\n", pads[1]))
    handle.write(pads[0] + "}")


def _write_events(handle: TextIO, log: SessionLog, item_sep: str,
                  pads: tuple[str, ...]) -> None:
    """The ``events`` list: one formatted row per log row."""
    n = len(log)
    if not n:
        handle.write("[]")
        return
    template = ("{" + pads[3] + (item_sep + pads[3]).join(_EVENT_FIELDS)
                + pads[2] + "}")
    between = item_sep + pads[2]
    kinds = [_json_string(kind.value) for kind in SessionEventKind]
    tiers = [_json_string(name) for name in log.tiers.names]
    reasons = [_json_string(name) for name in log.reasons.names]
    handle.write("[" + pads[2])
    for start in range(0, n, EXPORT_BLOCK):
        stop = min(start + EXPORT_BLOCK, n)
        if start:
            handle.write(between)
        block = log.time[start:stop]
        times = list(map(float.__repr__ if np.isfinite(block).all()
                         else _json_number, block.tolist()))
        for row, time in log.exact(start, stop):
            times[row - start] = _json_number(time)
        handle.write(between.join([
            template % (kinds[kind], reasons[reason], tiers[served],
                        session_id, time, title)
            for kind, reason, served, session_id, time, title in zip(
                log.kind[start:stop].tolist(),
                log.reason[start:stop].tolist(),
                log.served[start:stop].tolist(),
                log.session[start:stop].tolist(), times,
                log.title[start:stop].tolist())]))
    handle.write(pads[1] + "]")
