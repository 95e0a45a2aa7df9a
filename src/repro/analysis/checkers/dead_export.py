"""``dead-export``: every public module-level symbol has a reader.

Seven PRs of aggressive refactoring leave orphans: a helper whose
last caller moved into the planner, a constant superseded by a config
knob.  Dead exports are review debt — they look load-bearing, so
every future refactor budgets for them.  This rule walks the
whole-program symbol table and flags public top-level bindings that
nothing reads.

A symbol is *live* when any of these holds:

* it appears in its own module's ``__all__`` (a declared public API —
  the package facade pattern);
* its own module reads it (helpers used locally are fine even if
  nothing imports them — visibility is a separate question);
* another module from-imports it or reaches it as a dotted attribute
  (``planner.search.max_feasible_real`` style);
* some module star-imports its module (conservatively keeps every
  public name there);
* it is a declared CLI entry point (``[project.scripts]``);
* it is decorated — decorators like ``@register`` exist to make the
  definition itself the use;
* it is a dunder (``__version__``, ``__all__``).

Deliberately *not* live: being re-exported from the defining module's
own import list (re-exports are uses *of the source*, not of the
re-exporting binding), and being referenced only from tests (the
contract is that ``src/`` carries its own weight).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.base import Finding, ProjectChecker, register
from repro.analysis.project import ProjectGraph


@register
class DeadExportChecker(ProjectChecker):
    """Flag public top-level symbols no module imports, uses, or exports."""

    rule = "dead-export"
    description = ("public module-level symbols must be imported, used, "
                   "listed in __all__, or registered somewhere")

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        entry_points = set(self.config.entry_points)
        for module in sorted(graph.modules):
            summary = graph.modules[module]
            own_all = set(summary.all_names or ())
            starred = bool(graph.star_importers_of(module))
            seen: set[str] = set()
            for name, line, kind, decorated in summary.defs:
                if name in seen:
                    continue
                seen.add(name)
                if name.startswith("_") or decorated:
                    continue
                if name in own_all or starred:
                    continue
                if (module, name) in entry_points:
                    continue
                if name in summary.used_names:
                    continue
                if any(use.startswith(f"{name}.")
                       for use in summary.dotted_uses):
                    continue
                if graph.importers_of(module, name):
                    continue
                label = {"def": "function", "class": "class"}.get(
                    kind, "binding")
                yield self.at(
                    summary.path, line,
                    f"public {label} {module}.{name} is never imported, "
                    f"used, or listed in __all__ anywhere in the project; "
                    f"delete it or declare it in __all__")
