"""Repo-specific static analysis: the invariants pytest cannot see.

The reproduction makes promises that hold *by convention*, not by any
type the interpreter checks: all internal math is in the decimal base
units of :mod:`repro.units`; a fixed seed replays a run byte-for-byte;
library errors derive from :class:`repro.errors.ReproError`; and no
load-bearing check may be an ``assert`` statement, because ``python -O``
strips those (a real PR-2 incident).  This package enforces them
mechanically, at analysis time:

* :mod:`repro.analysis.base` — the :class:`~repro.analysis.base.Finding`
  record, the :class:`~repro.analysis.base.Checker` /
  :class:`~repro.analysis.base.ProjectChecker` interfaces, and the
  rule registry;
* :mod:`repro.analysis.config` — the declarative
  ``[tool.mems-repro.lint]`` configuration (rule scopes, the layer
  DAG, contract surfaces) discovered from the nearest
  ``pyproject.toml``;
* :mod:`repro.analysis.project` — the whole-program import graph and
  symbol table the graph rules run against;
* :mod:`repro.analysis.checkers` — the eight repo-specific rules;
* :mod:`repro.analysis.engine` — file walking, parsing, the
  content-hash incremental cache, the ``sweep_map`` parallel pass,
  per-line ``# repro-lint: disable=<rule>`` suppressions, and the
  ratchet baseline;
* :mod:`repro.analysis.reporters` — human text, JSON, and SARIF
  output with stable exit codes.

Run it as ``mems-repro lint [--json] [--rule ...] [--jobs N]
[--changed] [paths]``; CI runs it over ``src/`` as a blocking step.
See ``docs/LINTING.md`` for the rule-by-rule rationale.
"""

from repro.analysis.base import (
    Checker,
    Finding,
    ProjectChecker,
    all_rules,
    get_checker,
)
from repro.analysis.config import LintConfig, find_project, load_config
from repro.analysis.engine import (
    LintResult,
    analyze_file,
    analyze_paths,
    parse_suppressions,
    run_analysis,
)
from repro.analysis.project import ModuleSummary, ProjectGraph
from repro.analysis.reporters import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    render_json,
    render_sarif,
    render_text,
)

# Importing the checkers package populates the registry as a side
# effect; nothing else must happen before the first all_rules() call.
import repro.analysis.checkers  # noqa: F401  (registration import)

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "Checker",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleSummary",
    "ProjectChecker",
    "ProjectGraph",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "find_project",
    "get_checker",
    "load_config",
    "parse_suppressions",
    "render_json",
    "render_sarif",
    "render_text",
    "run_analysis",
]
