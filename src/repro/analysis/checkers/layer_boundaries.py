"""``layer-boundaries``: the declared architecture DAG holds.

The repository's layering — devices at the bottom, planner over core,
runtime over simulation/scheduling, service over runtime, experiments
over everything — is what makes the roadmap refactors (sharded
cluster runtime, pluggable middle tiers) tractable: a lower layer that
quietly grows an upward import couples the stack in ways no per-file
rule can see.

The DAG lives declaratively in ``pyproject.toml``::

    [tool.mems-repro.lint.layers.allow]
    core = ["devices"]
    planner = ["core", "devices"]
    ...

    [tool.mems-repro.lint.layers.exceptions]
    "repro/__init__.py" = ["*"]        # the public-API facade
    "perf/bench.py" = ["*"]            # the harness times every layer

A module's layer is the first package level below the import root
(``repro/planner/search.py`` -> ``planner``; top-level modules like
``repro/errors.py`` form the implicit ``root`` layer every other
layer may use).  Importing your own layer and ``root`` is always
allowed; everything else must be declared in ``allow`` (validated
acyclic at load time) or carried by a named per-file exception.
Undeclared layers are themselves findings, so a new top-level package
cannot land without stating its place in the architecture.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from repro.analysis.base import Finding, ProjectChecker, register
from repro.analysis.config import ANY_LAYER, ROOT_LAYER
from repro.analysis.project import ProjectGraph


@register
class LayerBoundariesChecker(ProjectChecker):
    """Flag imports that cross the declared layer DAG upward."""

    rule = "layer-boundaries"
    description = ("project imports must follow the layer DAG declared "
                   "in [tool.mems-repro.lint.layers]")

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        layers = self.config.layers
        for module in sorted(graph.modules):
            summary = graph.modules[module]
            layer = graph.layer_of(module)
            if layer is None:  # pragma: no cover - graph only holds project
                continue
            allowed = layers.allowed(layer)
            extra = layers.extra_for(Path(summary.path))
            targets = [(target, line) for target, _, line in summary.imports]
            targets.extend(summary.star_imports)
            seen: set[tuple[str, int]] = set()
            for target, line in targets:
                target_layer = graph.layer_of(target)
                if target_layer is None or target_layer in (layer,
                                                            ROOT_LAYER):
                    continue
                if ANY_LAYER in extra or target_layer in extra:
                    continue
                if allowed is None:
                    key = (layer, line)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.at(
                        summary.path, line,
                        f"layer {layer!r} is not declared in "
                        f"[tool.mems-repro.lint.layers.allow]; every "
                        f"layer must state its allowed imports")
                    continue
                if target_layer not in allowed:
                    key = (target_layer, line)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.at(
                        summary.path, line,
                        f"layer {layer!r} may not import layer "
                        f"{target_layer!r} (module {target}); allowed: "
                        f"{', '.join(allowed) or '<none>'}")
