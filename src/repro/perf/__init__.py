"""Performance layer: :mod:`repro.perf.parallel` (the deterministic
``sweep_map`` behind ``--jobs N``) and :mod:`repro.perf.bench` (the
workloads behind ``mems-repro bench``).  Import from those modules
directly; see ``docs/PERFORMANCE.md``.
"""
