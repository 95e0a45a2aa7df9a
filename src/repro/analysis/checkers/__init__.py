"""The repo-specific lint rules.

Importing this package registers every checker (the modules register
themselves via :func:`repro.analysis.base.register` at import time).
One module per rule keeps each invariant's logic, scope, and rationale
in one reviewable place; add new rules by dropping a module here and
importing it below.

Five rules are per-file; three (``layer-boundaries``, ``dead-export``
and ``event-contract``) enforce whole-program contracts — see
:mod:`repro.analysis.project` for the graph they run against.
"""

from repro.analysis.checkers import (  # noqa: F401  (registration imports)
    asserts,
    dead_export,
    determinism,
    event_contract,
    exceptions,
    float_equality,
    layer_boundaries,
    units_literals,
)

__all__ = [
    "asserts",
    "dead_export",
    "determinism",
    "event_contract",
    "exceptions",
    "float_equality",
    "layer_boundaries",
    "units_literals",
]
