"""The result JSON, streamed.

:func:`write_result` writes a runtime result with exactly the bytes of
``json.dumps(payload, indent=indent, sort_keys=True)``, but never
builds that payload.  The session audit log, which is nearly all of
the bytes, is encoded through one row template per indent and written
:data:`EXPORT_BLOCK` events at a time, so export holds one block of
rows rather than a dict per event and the whole string.  The other
sections are small; they go through :func:`json.dumps` and are
re-indented one level.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from json.encoder import encode_basestring_ascii
from typing import TextIO

from repro.runtime.sessions import SessionEvent, SessionEventKind

#: Session events encoded per ``write`` call.
EXPORT_BLOCK = 2048

#: The fields of one session event, in ``sort_keys`` order.
_EVENT_FIELDS = ('"kind": %s', '"reason": %s', '"served_by": %s',
                 '"session_id": %d', '"time": %s', '"title": %d')

_INF = float("inf")


class _JsonStrings(dict):
    """Memo of :mod:`json`'s ASCII spelling of strings (None is null)."""

    def __missing__(self, value: str | None) -> str:
        text = "null" if value is None else encode_basestring_ascii(value)
        self[value] = text
        return text


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


def write_result(handle: TextIO, events: Sequence[SessionEvent],
                 sections: Mapping[str, object], *,
                 indent: int | None = None) -> None:
    """Write ``{"events": events, **sections}`` to ``handle`` as
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
            _write_events(handle, events, item_sep, pads)
            continue
        # json escapes line breaks inside strings, so every raw "\n"
        # in ``text`` starts an indented line.
        text = json.dumps(sections[key], indent=indent, sort_keys=True)
        handle.write(text.replace("\n", pads[1]))
    handle.write(pads[0] + "}")


def _write_events(handle: TextIO, events: Sequence[SessionEvent],
                  item_sep: str, pads: tuple[str, ...]) -> None:
    """The ``events`` list: one formatted row per session event."""
    if not events:
        handle.write("[]")
        return
    row = ("{" + pads[3] + (item_sep + pads[3]).join(_EVENT_FIELDS)
           + pads[2] + "}")
    between = item_sep + pads[2]
    kinds = {kind: encode_basestring_ascii(kind.value)
             for kind in SessionEventKind}
    strings = _JsonStrings()
    number = _json_number
    handle.write("[" + pads[2])
    for start in range(0, len(events), EXPORT_BLOCK):
        if start:
            handle.write(between)
        handle.write(between.join([
            row % (kinds[e.kind], strings[e.reason], strings[e.served_by],
                   e.session_id, number(e.time), e.title)
            for e in events[start:start + EXPORT_BLOCK]]))
    handle.write(pads[1] + "]")
