"""``determinism``: the seed guarantee of the stochastic layers.

The runtime promises that a fixed seed reproduces a run byte-for-byte
(``docs/RUNTIME.md``), and every simulation/workload entry point takes
a ``seed``.  That only holds while *all* randomness flows through an
injected ``numpy.random.Generator`` and nothing reads the wall clock.
This rule bans, inside the scope declared by
``[tool.mems-repro.lint.scopes.determinism]`` — the stochastic layers
``simulation/``, ``runtime/``, ``workloads/``, ``perf/``, ``vod/``,
``service/`` plus the file-scoped ``planner/incremental.py`` (whose
warm-start replay must be bit-reproducible):

* wall-clock reads (``time.time()``, ``time.monotonic()``,
  ``datetime.now()``, ...) — simulated time comes from the event
  engine.  The one sanctioned read is the bench timer helper in
  ``perf/bench.py``, which carries a reviewed inline suppression;
* the :mod:`random` module's global functions (seeded or not — the
  global state is shared across callers and not part of any run's
  seed);
* :mod:`numpy.random` *module-level* state (``np.random.seed``,
  ``np.random.rand``, ...).  Constructing generators
  (``np.random.default_rng(seed)``) and naming types
  (``np.random.Generator``) is fine — that is the sanctioned idiom;
* process-pool construction (``ProcessPoolExecutor``,
  ``multiprocessing.Pool``, thread pools) — fan-out must go through
  :func:`repro.perf.parallel.sweep_map`, whose items carry explicit
  seeds and whose ordered gathering keeps results byte-identical to a
  serial run.  ``parallel.py``'s own pool carries the reviewed
  suppression;
* builtin ``sum()`` over anything not provably integer — from Python
  3.12 it adds floats with Neumaier compensation, so a float sum's
  bits depend on the interpreter.  Float sums go through
  :func:`repro.core.summation.sequential_sum`.  A ``sum`` passes when
  its items are an int literal (``sum(1 for ...)``), a ``len(...)``
  call, or one of the :data:`INT_COUNT_NAMES` attributes, or when it
  sums the ``.values()`` of a mapping named there.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from repro.analysis.base import Checker, Finding, register

#: Fully-qualified callables that read the wall clock.
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: numpy.random attributes that do NOT touch global RNG state.
NUMPY_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

#: Pool constructors whose scheduling is nondeterministic; fan-out in
#: the seeded layers must go through repro.perf.parallel.sweep_map.
POOL_CONSTRUCTORS = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.pool.ThreadPool",
    "multiprocessing.dummy.Pool",
})


#: Attribute names that hold integer counts in the seeded layers (or,
#: for ``counts``, a mapping of them): summing them is exact on every
#: interpreter, so ``sum()`` over them is not flagged.
INT_COUNT_NAMES = frozenset({"counts", "n_sessions", "pending_finalized"})


def _is_int_item(node: ast.expr) -> bool:
    """True when ``node`` provably evaluates to an int."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "len"
    return isinstance(node, ast.Attribute) and node.attr in INT_COUNT_NAMES


def _sums_ints(call: ast.Call) -> bool:
    """True when a builtin ``sum(...)`` call provably adds integers."""
    if len(call.args) != 1 or call.keywords:
        return False
    (items,) = call.args
    if isinstance(items, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return _is_int_item(items.elt)
    # ``sum(x.counts.values())``: the values of a named count mapping.
    return (isinstance(items, ast.Call) and not items.args
            and isinstance(items.func, ast.Attribute)
            and items.func.attr == "values"
            and _is_int_item(items.func.value))


def _dotted(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]`` (None for non-name chains)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


class _ImportMap(ast.NodeVisitor):
    """Local name -> canonical dotted prefix, from the file's imports."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            canonical = alias.name if alias.asname else local
            self.aliases[local] = canonical

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"


@register
class DeterminismChecker(Checker):
    """Flag wall-clock reads and global-RNG use in the seeded layers."""

    rule = "determinism"
    description = ("no wall clocks, global RNG state or builtin float "
                   "sum() in the seeded layers (scoped via config)")
    version = 2

    def check(self, tree: ast.Module, source: str,
              path: Path) -> Iterator[Finding]:
        imports = _ImportMap()
        imports.visit(tree)
        aliases = imports.aliases
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Name) and node.func.id == "sum"
                    and "sum" not in aliases and not _sums_ints(node)):
                yield self.finding(
                    path, node,
                    "builtin sum() over floats depends on the Python "
                    "version (3.12 compensates); use "
                    "repro.core.summation.sequential_sum")
                continue
            parts = _dotted(node.func)
            if parts is None:
                continue
            head = aliases.get(parts[0])
            if head is None:
                continue
            full = ".".join([head, *parts[1:]])
            if full in WALL_CLOCK:
                yield self.finding(
                    path, node,
                    f"{full}() reads the wall clock; simulated time comes "
                    f"from the event engine (Simulator.now)")
            elif full in POOL_CONSTRUCTORS:
                yield self.finding(
                    path, node,
                    f"{full}() builds an ad-hoc worker pool; fan out "
                    f"through repro.perf.parallel.sweep_map (explicit "
                    f"per-item seeds, ordered gathering)")
            elif full == "random" or full.startswith("random."):
                yield self.finding(
                    path, node,
                    f"{full}() uses the random module's global state; "
                    f"inject a seeded numpy Generator instead")
            elif full.startswith("numpy.random."):
                attr = full.removeprefix("numpy.random.").split(".")[0]
                if attr not in NUMPY_RANDOM_ALLOWED:
                    yield self.finding(
                        path, node,
                        f"numpy.random.{attr} mutates/reads numpy's global "
                        f"RNG; use numpy.random.default_rng(seed)")
