"""Fixture: builtin float sums ``determinism`` must flag.

Lives under a ``runtime/`` directory because the rule is path-scoped.
Only the first three sums are findings; the rest provably add ints.
"""


def totals(sizes, sessions, streams, log):
    total = sum(sizes)
    mean = sum(s.size for s in sessions) / len(sessions)
    start = sum(sizes, 0.0)
    count = sum(1 for s in sessions if s.size)
    rows = sum(len(s.rows) for s in sessions)
    riders = sum(s.n_sessions for s in streams)
    parked = sum(e.pending_finalized for e in log.events)
    kinds = sum(log.counts.values())
    return total, mean, start, count, rows, riders, parked, kinds
