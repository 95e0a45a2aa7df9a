"""Session lifecycle primitives for the online runtime.

A *session* is one viewer playing one title: it arrives by a Poisson
process, holds a server slot for an exponentially distributed viewing
time, and departs (or is rejected at admission, or dropped when a
failure shrinks the server).  The workload model follows the loss
system of :mod:`repro.workloads.arrivals`, extended with the two
time-varying effects the static model cannot express:

* **popularity drift** — the title ranking rotates, so yesterday's hot
  titles cool and the adaptive placement must chase the new head;
* **rate surges** — the arrival rate scales by a factor mid-run (flash
  crowds);
* **title focus** — a share of all arrivals collapses onto one title
  (the flash crowd's *object* of attention), the regime where the VoD
  prefix mode's multicast batching pays off.
"""

from __future__ import annotations

import enum
import heapq
import operator
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.popularity import PopularityDistribution
from repro.errors import ConfigurationError
from repro.workloads.popularity_gen import RequestSampler


class SessionEventKind(enum.Enum):
    """What happened to a session at a point in time."""

    ADMIT = "admit"
    REJECT = "reject"
    DEPART = "depart"
    #: Shed mid-play because a failure shrank the feasible population.
    DROP = "drop"


class SessionEvent(NamedTuple):
    """One entry of the runtime's session audit log, built on read.

    The runtime appends each entry to a :class:`SessionLog` as one row
    of typed columns; a :class:`SessionEvent` exists only when a caller
    reads that row through :class:`SessionEvents` (or when a teardown
    returns the event it just logged).
    """

    time: float
    kind: SessionEventKind
    session_id: int
    title: int
    #: "cache" or "disk" at admission time ("prefix"/"shared" under the
    #: VoD prefix mode); None for rejects.
    served_by: str | None = None
    #: Rejection/drop reason (None for admits and normal departures).
    reason: str | None = None


@dataclass
class SessionWorkload:
    """Stochastic session generator with drift and surge support.

    All randomness flows through one ``numpy`` generator seeded by the
    runtime, so a fixed seed reproduces the exact arrival/holding/title
    sequence.
    """

    arrival_rate: float
    mean_holding: float
    n_titles: int
    popularity: PopularityDistribution
    _rate_factor: float = field(default=1.0, init=False)
    _rotation: int = field(default=0, init=False)
    _base_weights: np.ndarray = field(default=None, init=False, repr=False)
    _focus_title: int | None = field(default=None, init=False)
    _focus_weight: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival_rate must be > 0, got {self.arrival_rate!r}")
        if self.mean_holding <= 0:
            raise ConfigurationError(
                f"mean_holding must be > 0, got {self.mean_holding!r}")
        if self.n_titles < 1:
            raise ConfigurationError(
                f"n_titles must be >= 1, got {self.n_titles!r}")
        sampler = RequestSampler(self.popularity, self.n_titles)
        self._base_weights = sampler.title_weights

    # -- Time-varying knobs --------------------------------------------------

    @property
    def offered_load(self) -> float:
        """Current offered load in Erlangs."""
        return self.arrival_rate * self._rate_factor * self.mean_holding

    @property
    def rate_factor(self) -> float:
        return self._rate_factor

    def scale_rate(self, factor: float) -> None:
        """Apply a flash-crowd multiplier to the arrival rate."""
        if factor <= 0:
            raise ConfigurationError(
                f"rate factor must be > 0, got {factor!r}")
        self._rate_factor = factor

    def rotate_popularity(self, shift: int) -> None:
        """Drift: rotate the title ranking by ``shift`` positions.

        The weight *vector* stays fixed (the aggregate skew is
        unchanged) but which titles carry the head moves, so a cached
        set chosen for the old ranking goes stale.
        """
        self._rotation = (self._rotation + shift) % self.n_titles

    def focus_title(self, title: int, weight: float) -> None:
        """Collapse ``weight`` of all arrivals onto one title.

        A focused flash crowd: each arrival picks ``title`` with
        probability ``weight`` and otherwise falls through to the usual
        rotated ranking.  ``weight=0`` clears the focus (and restores
        the unfocused sampling path exactly, so downstream draws are
        bit-identical to a run that never focused).
        """
        if not 0 <= title < self.n_titles:
            raise ConfigurationError(
                f"title must be in [0, {self.n_titles}), got {title!r}")
        if not 0.0 <= weight <= 1.0:
            raise ConfigurationError(
                f"focus weight must be in [0, 1], got {weight!r}")
        if weight <= 0.0:
            self._focus_title = None
            self._focus_weight = 0.0
        else:
            self._focus_title = title
            self._focus_weight = weight

    def title_weight(self, title: int) -> float:
        """Current access probability of one title."""
        if not 0 <= title < self.n_titles:
            raise ConfigurationError(
                f"title must be in [0, {self.n_titles}), got {title!r}")
        return float(self._effective_weights()[title])

    def current_weights(self) -> np.ndarray:
        """Per-title access probabilities under rotation and focus."""
        return self._effective_weights()

    def _effective_weights(self) -> np.ndarray:
        rotated = np.roll(self._base_weights, self._rotation)
        if self._focus_title is None:
            return rotated
        mixed = (1.0 - self._focus_weight) * rotated
        mixed[self._focus_title] += self._focus_weight
        return mixed

    # -- Sampling ------------------------------------------------------------

    def next_interarrival(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(
            1.0 / (self.arrival_rate * self._rate_factor)))

    def next_holding(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_holding))

    def next_title(self, rng: np.random.Generator) -> int:
        if self._focus_title is not None:
            # One draw per arrival either way, so entering/leaving a
            # focus window consumes the same RNG stream length.
            return int(rng.choice(self.n_titles,
                                  p=self._effective_weights()))
        rank = int(rng.choice(self.n_titles, p=self._base_weights))
        return (rank + self._rotation) % self.n_titles


#: Interarrival draws :meth:`SessionSampler.arrival_times` sums first.
_FIRST_SLICE = 16


class SessionSampler:
    """Chunked, purpose-split sampler over a :class:`SessionWorkload`.

    The per-event path (``rng.exponential`` per arrival, ``rng.choice``
    per title) costs a few microseconds of generator dispatch per draw
    and — worse — interleaves every purpose on one bitstream, which
    makes vectorisation impossible: a blocked draw of 1000
    interarrivals would consume the words the titles and holding times
    of those same arrivals needed.

    The sampler therefore spawns three *independent* child generators
    from the run seed (``np.random.SeedSequence(seed).spawn(3)``), one
    per purpose, and refills a numpy chunk per stream.  Scalar
    consumption (API admits) and blocked consumption (a self-driven
    engine's drained windows) then read the *same* value sequences —
    the property the windowed-traffic oracle tests rest on:

    * interarrivals are buffered as *standard* exponentials and scaled
      by the current rate at consumption time, so a mid-run surge never
      invalidates the buffer and matches the legacy draw-at-previous-
      arrival semantics;
    * titles are buffered as raw uniforms and mapped through the
      workload's current CDF at consumption time, so drift and focus
      never invalidate the buffer either (the CDF is re-derived only
      when rotation/focus actually change);
    * holding times are consumed only for *admitted* sessions, so
      rejects leave the stream untouched on every path.
    """

    def __init__(self, workload: SessionWorkload, seed: int, *,
                 chunk: int = 1024) -> None:  # repro-lint: disable=unit-literals (a draw count, not bytes)
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk!r}")
        self.workload = workload
        self._chunk = int(chunk)
        ia_seq, title_seq, hold_seq = np.random.SeedSequence(seed).spawn(3)
        self._ia_rng = np.random.default_rng(ia_seq)
        self._title_rng = np.random.default_rng(title_seq)
        self._hold_rng = np.random.default_rng(hold_seq)
        self._ia_buf = np.empty(0)
        self._ia_cur = 0
        self._title_buf = np.empty(0)
        self._title_cur = 0
        self._hold_buf = np.empty(0)
        self._hold_cur = 0
        self._cdf: np.ndarray | None = None
        self._cdf_key: tuple | None = None

    # -- Buffers -------------------------------------------------------------

    def _ensure_ia(self, n: int) -> None:
        if len(self._ia_buf) - self._ia_cur < n:
            tail = self._ia_buf[self._ia_cur:]
            fresh = self._ia_rng.standard_exponential(
                max(self._chunk, n - len(tail)))
            self._ia_buf = np.concatenate((tail, fresh))
            self._ia_cur = 0

    def _ensure_titles(self, n: int) -> None:
        if len(self._title_buf) - self._title_cur < n:
            tail = self._title_buf[self._title_cur:]
            fresh = self._title_rng.random(max(self._chunk, n - len(tail)))
            self._title_buf = np.concatenate((tail, fresh))
            self._title_cur = 0

    def _title_cdf(self) -> np.ndarray:
        w = self.workload
        key = (w._rotation, w._focus_title, w._focus_weight)
        if key != self._cdf_key:
            cdf = np.cumsum(w._effective_weights())
            cdf[-1] = 1.0  # guard float drift at the top of the CDF
            self._cdf = cdf
            self._cdf_key = key
        return self._cdf

    # -- Scalar draws ---------------------------------------------------------

    def next_interarrival(self) -> float:
        w = self.workload
        self._ensure_ia(1)
        value = self._ia_buf[self._ia_cur]
        self._ia_cur += 1
        return float(value * (1.0 / (w.arrival_rate * w._rate_factor)))

    def next_title(self) -> int:
        self._ensure_titles(1)
        u = self._title_buf[self._title_cur]
        self._title_cur += 1
        cdf = self._title_cdf()
        return int(min(np.searchsorted(cdf, u, side="right"),
                       len(cdf) - 1))

    def next_holding(self) -> float:
        if len(self._hold_buf) - self._hold_cur < 1:
            self._hold_buf = self._hold_rng.standard_exponential(self._chunk)
            self._hold_cur = 0
        value = self._hold_buf[self._hold_cur]
        self._hold_cur += 1
        return float(value * self.workload.mean_holding)

    # -- Blocked draws (harvested windows) -----------------------------------

    def arrival_times(self, start: float, until: float, *,
                      inclusive: bool = False) -> np.ndarray:
        """Absolute arrival times in ``(start, until)`` at the current rate.

        Accumulates sequentially (``cumsum``) from ``start`` so the
        float trajectory is bit-identical to a
        one-``sim.after``-per-arrival calendar chain.  Exactly the returned
        number of interarrival draws is consumed; the first draw beyond
        the window stays buffered for the next window, and because the
        buffer holds *standard* exponentials a rate change between
        windows re-scales it correctly.  The sums run over slices that
        start small and double up to the chunk, so a window of a few
        arrivals does not sum a whole chunk.
        """
        w = self.workload
        scale = 1.0 / (w.arrival_rate * w._rate_factor)
        side = "right" if inclusive else "left"
        times: list[np.ndarray] = []
        size = min(_FIRST_SLICE, self._chunk)
        while True:
            self._ensure_ia(size)
            block = self._ia_buf[self._ia_cur:self._ia_cur + size]
            # Seed the cumsum with ``start`` so every partial sum is the
            # exact float chain ((start + d1) + d2) + ... the per-event
            # path produces — adding start after the fact rounds
            # differently at the last ulp.
            t = np.cumsum(np.concatenate(((start,), block * scale)))[1:]
            cut = int(np.searchsorted(t, until, side=side))
            if cut < len(t):
                self._ia_cur += cut
                times.append(t[:cut])
                break
            self._ia_cur += len(t)
            times.append(t)
            start = float(t[-1])
            size = min(2 * size, self._chunk)
        return np.concatenate(times) if len(times) > 1 else times[0]

    def title_block(self, n: int) -> np.ndarray:
        """Titles for the next ``n`` arrivals under the current CDF."""
        if n == 0:
            return np.empty(0, dtype=np.int64)
        self._ensure_titles(n)
        u = self._title_buf[self._title_cur:self._title_cur + n]
        self._title_cur += n
        cdf = self._title_cdf()
        return np.minimum(np.searchsorted(cdf, u, side="right"),
                          len(cdf) - 1)


#: ``SessionTable`` row states.
TABLE_ACTIVE = 1
TABLE_DEPARTED = 2
TABLE_DROPPED = 3


class Codebook:
    """Strings interned as small int codes, in first-seen order.

    Code 0 is None, so a code column's zero fill means "no value".
    """

    def __init__(self) -> None:
        self.names: list[str | None] = [None]
        self._codes: dict[str | None, int] = {None: 0}

    def code(self, name: str | None) -> int:
        code = self._codes.get(name)
        if code is None:
            code = len(self.names)
            self._codes[name] = code
            self.names.append(name)
        return code


class SessionTable:
    """Struct-of-arrays store for session state.

    One row per *admitted* session, indexed by session id (ids are
    dense and allocated in admit order, so the row index is the id).
    Columns are flat numpy arrays — departure time, title,
    shared-stream id, serving tier and lifecycle state — so shedding
    and re-tagging become masked scans instead of per-object attribute
    walks, and a million sessions cost ~30 MB instead of a million heap
    objects.

    The table also keeps a ``(departure, row)`` min-heap, so
    :meth:`harvest` and :meth:`min_departure` cost O(due) per window
    rather than a scan of every live row.  Torn-down and shed rows
    leave their entries behind; those are skipped when they surface.

    The serving tier ("disk", "cache", ...) is stored as a :attr:`tiers`
    code, which the runtime's :class:`SessionLog` shares, so a retired
    row's tier goes to the audit log as the code the table holds.
    """

    def __init__(self, *, capacity: int = 1024) -> None:  # repro-lint: disable=unit-literals (a row count, not bytes)
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity!r}")
        self._due: list[tuple[float, int]] = []
        self._n = 0
        self._active = 0
        #: Every row below this watermark is inactive; the scans
        #: raise it, so marking a row stays O(1).
        self._lo = 0
        self.departure = np.empty(capacity)
        self.title = np.empty(capacity, dtype=np.int64)
        self.stream = np.full(capacity, -1, dtype=np.int64)
        self.state = np.zeros(capacity, dtype=np.uint8)
        self.served = np.zeros(capacity, dtype=np.int16)
        self.tiers = Codebook()
        self._bind_views()

    def _bind_views(self) -> None:
        # Admission, departure and teardown touch one row at a time; a
        # memoryview over the same buffer reads or writes one scalar in
        # about half the time numpy indexing takes.
        self._departure_v = memoryview(self.departure)
        self._title_v = memoryview(self.title)
        self._stream_v = memoryview(self.stream)
        self._state_v = memoryview(self.state)
        self._served_v = memoryview(self.served)

    def __len__(self) -> int:
        return self._n

    @property
    def active_count(self) -> int:
        return self._active

    def _grow(self) -> None:
        capacity = 2 * len(self.departure)
        for name in ("departure", "title", "stream", "state", "served"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[:self._n] = old[:self._n]
            if name == "stream":
                new[self._n:] = -1
            elif name == "state":
                new[self._n:] = 0
            setattr(self, name, new)
        self._bind_views()

    def add(self, session_id: int, *, title: int, arrival: float,
            holding: float, served_by: str,
            stream_id: int | None = None) -> int:
        """Append an admitted session (ids must stay dense).

        Returns the row's :attr:`tiers` code.
        """
        if session_id != self._n:
            raise ConfigurationError(
                f"session ids must be dense: expected {self._n}, "
                f"got {session_id!r}")
        if self._n == len(self.departure):
            self._grow()
        row = self._n
        departure = arrival + holding
        self._departure_v[row] = departure
        heapq.heappush(self._due, (departure, row))
        self._title_v[row] = title
        if stream_id is not None:  # unused rows already hold -1
            self._stream_v[row] = stream_id
        tier = self._served_v[row] = self.tiers.code(served_by)
        self._state_v[row] = TABLE_ACTIVE
        self._n += 1
        self._active += 1
        return tier

    # -- Masked scans --------------------------------------------------------

    def active_rows(self) -> np.ndarray:
        """Row ids of live sessions, in admit order."""
        lo, n = self._lo, self._n
        rows = (lo + np.flatnonzero(
            self.state[lo:n] == TABLE_ACTIVE)).astype(np.int64, copy=False)
        self._lo = int(rows[0]) if len(rows) else n
        return rows

    def harvest(self, until: float) -> list[int]:
        """Live rows departing by ``until``, ordered by (time, admit order).

        Pops the due entries off the departure heap, so each row is
        handed out once: the caller retires every returned row (marks
        it departed or dropped).
        """
        due = self._due
        state = self._state_v
        rows: list[int] = []
        while due and due[0][0] <= until:
            row = heapq.heappop(due)[1]
            if state[row] == TABLE_ACTIVE:
                rows.append(row)
        return rows

    def min_departure(self) -> float:
        """Earliest departure among live sessions (inf when empty)."""
        due = self._due
        state = self._state_v
        while due and state[due[0][1]] != TABLE_ACTIVE:
            heapq.heappop(due)
        return due[0][0] if due else float("inf")

    def is_active(self, row: int) -> bool:
        """True when ``row`` names a live session (False for any other int)."""
        return 0 <= row < self._n and self._state_v[row] == TABLE_ACTIVE

    def mark_departed(self, row: int) -> tuple[int, int, int]:
        """Retire a departing row; returns its (title, tier code, stream id)."""
        self._state_v[row] = TABLE_DEPARTED
        self._active -= 1
        return self._title_v[row], self._served_v[row], self._stream_v[row]

    def mark_dropped(self, row: int) -> tuple[int, int, int]:
        """Retire a shed row; returns its (title, tier code, stream id)."""
        self._state_v[row] = TABLE_DROPPED
        self._active -= 1
        return self._title_v[row], self._served_v[row], self._stream_v[row]

    def shed_newest(self, count: int) -> np.ndarray:
        """Newest ``count`` live rows (reverse admit order), for sheds."""
        rows = self.active_rows()
        return rows[::-1][:count]


#: ``SessionLog.kind`` codes: the position in :class:`SessionEventKind`.
LOG_ADMIT, LOG_REJECT, LOG_DEPART, LOG_DROP = range(4)
_KINDS = tuple(SessionEventKind)

#: Rows :class:`SessionEvents` builds per step while iterating.
_READ_BLOCK = 2048
#: Rows a new :class:`SessionLog` holds before its columns first double.
_LOG_ROWS = 1024  # repro-lint: disable=unit-literals (a row count, not bytes)


class SessionLog:
    """Columnar session audit log: one row per admit, reject, departure
    and drop, in the order they happened.

    Each row is one write to six typed numpy columns — :attr:`time`
    ``f8``, :attr:`kind` ``u1`` (a ``LOG_*`` code), :attr:`session` id
    ``i8`` (-1 on rejects), :attr:`title` ``i8``, and the
    :attr:`served` ``u1`` and :attr:`reason` ``u2`` codes of two
    :class:`Codebook` s — 28 bytes a row, against some 110 for a
    per-event object in a list.  As in :class:`SessionTable`, the
    columns double when full (rows ``len(log)`` on are unused) and one
    row is written through memoryviews.  The served-by codebook is the
    table's own, so a retiring row logs the code the table holds.
    :class:`SessionEvents` reads the rows back as :class:`SessionEvent`
    s, and :mod:`repro.runtime.export` formats them straight from
    column slices.

    A row stamped with a time that is not a float (an int ``sim.now``,
    from an int timeline time or an API caller's ``sim.run(until=100)``)
    keeps that exact value in :attr:`exact_rows` / :attr:`exact_times`
    beside the column, so it reads back and exports as the int.
    """

    _COLUMNS = (("time", np.float64), ("kind", np.uint8),
                ("session", np.int64), ("title", np.int64),
                ("served", np.uint8), ("reason", np.uint16))

    def __init__(self, *, tiers: Codebook | None = None) -> None:
        self.tiers = tiers if tiers is not None else Codebook()
        self.reasons = Codebook()
        self._n = 0
        for name, dtype in self._COLUMNS:
            setattr(self, name, np.empty(_LOG_ROWS, dtype=dtype))
        self._bind_views()
        #: Rows (ascending) whose time is not a float, and those times.
        self.exact_rows: list[int] = []
        self.exact_times: list[object] = []

    def _bind_views(self) -> None:
        # One-row writes through a memoryview cost about half of numpy
        # scalar indexing (see SessionTable._bind_views).
        for name, _ in self._COLUMNS:
            setattr(self, f"_{name}_v", memoryview(getattr(self, name)))

    def _grow(self, rows: int) -> None:
        """Double the columns until ``rows`` rows fit."""
        capacity = len(self.time)
        while capacity < rows:
            capacity *= 2
        # Column by column, so only one old column outlives its copy.
        for name, _ in self._COLUMNS:
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[:self._n] = old[:self._n]
            setattr(self, name, new)
            setattr(self, f"_{name}_v", memoryview(new))

    def __getstate__(self) -> dict:
        # Pickle the written rows only; memoryviews do not pickle.
        state = {key: value for key, value in vars(self).items()
                 if not key.endswith("_v")}
        for name, _ in self._COLUMNS:
            state[name] = state[name][:max(self._n, 1)].copy()
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind_views()

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        """Bytes the columns hold for the rows written."""
        return self._n * (
            self.time.itemsize + self.kind.itemsize + self.session.itemsize
            + self.title.itemsize + self.served.itemsize
            + self.reason.itemsize)

    def append(self, time: float, kind: int, session_id: int, title: int,
               served: int = 0, reason: int = 0) -> None:
        """Log one row; ``served`` and ``reason`` are codebook codes."""
        row = self._n
        if row == len(self.time):
            self._grow(row + 1)
        if type(time) is not float and not isinstance(time, float):
            self.exact_rows.append(row)
            self.exact_times.append(time)
        self._time_v[row] = time
        self._kind_v[row] = kind
        self._session_v[row] = session_id
        self._title_v[row] = title
        self._served_v[row] = served
        self._reason_v[row] = reason
        self._n = row + 1

    def append_rejects(self, times: np.ndarray, titles: np.ndarray,
                       reason: int) -> None:
        """Log one REJECT row per arrival of a block, column by column."""
        row = self._n
        end = row + len(times)
        if end > len(self.time):
            self._grow(end)
        if times.dtype.kind != "f":
            # A burst at an int ``sim.now`` arrives as an int block.
            self.exact_rows.extend(range(row, end))
            self.exact_times.extend(times.tolist())
        self.time[row:end] = times
        self.kind[row:end] = LOG_REJECT
        self.session[row:end] = -1
        self.title[row:end] = titles
        self.served[row:end] = 0
        self.reason[row:end] = reason
        self._n = end

    def exact(self, start: int, stop: int) -> list[tuple[int, object]]:
        """``(row, time)`` of the rows in ``start:stop`` whose time is
        not a float."""
        rows = self.exact_rows
        lo, hi = bisect_left(rows, start), bisect_left(rows, stop)
        return list(zip(rows[lo:hi], self.exact_times[lo:hi]))

    def events(self, start: int, stop: int) -> list[SessionEvent]:
        """Rows ``start:stop`` (clipped to the log) as :class:`SessionEvent` s."""
        stop = min(stop, self._n)
        times = self.time[start:stop].tolist()
        for row, time in self.exact(start, stop):
            times[row - start] = time
        tiers, reasons = self.tiers.names, self.reasons.names
        return [SessionEvent(time, _KINDS[kind], session_id, title,
                             tiers[served], reasons[reason])
                for time, kind, session_id, title, served, reason in zip(
                    times, self.kind[start:stop].tolist(),
                    self.session[start:stop].tolist(),
                    self.title[start:stop].tolist(),
                    self.served[start:stop].tolist(),
                    self.reason[start:stop].tolist())]


class SessionEvents(Sequence):
    """Read-only sequence view of a :class:`SessionLog`.

    ``len`` is the log's row count; indexing, slicing and iteration
    build :class:`SessionEvent` s only for the rows they read.  Two
    views (or a view and a list of events) compare equal row by row.
    """

    def __init__(self, log: SessionLog) -> None:
        self.log = log

    def __len__(self) -> int:
        return len(self.log)

    def __getitem__(self, index):
        # ``range`` resolves negative indexes and slices, and raises
        # the IndexError the sequence protocol expects.
        rows = range(len(self.log))[index]
        if isinstance(rows, int):
            return self.log.events(rows, rows + 1)[0]
        if rows.step == 1:
            return self.log.events(rows.start, max(rows.start, rows.stop))
        return [self.log.events(i, i + 1)[0] for i in rows]

    def __iter__(self) -> Iterator[SessionEvent]:
        for start in range(0, len(self.log), _READ_BLOCK):
            yield from self.log.events(start, start + _READ_BLOCK)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SessionEvents, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<SessionEvents: {len(self)} rows>"
