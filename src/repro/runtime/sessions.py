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
from dataclasses import dataclass, field

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


@dataclass(frozen=True, slots=True)
class SessionEvent:
    """One entry of the runtime's session audit log."""

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
        self._served_names: list[str] = []
        self._served_codes: dict[str, int] = {}
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

    def serve_code(self, served_by: str) -> int:
        """Intern a serving-tier name ("disk", "cache", ...) as a code."""
        code = self._served_codes.get(served_by)
        if code is None:
            code = len(self._served_names)
            self._served_codes[served_by] = code
            self._served_names.append(served_by)
        return code

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
            stream_id: int | None = None) -> None:
        """Append an admitted session (ids must stay dense)."""
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
        self._served_v[row] = self.serve_code(served_by)
        self._state_v[row] = TABLE_ACTIVE
        self._n += 1
        self._active += 1

    # -- Masked scans --------------------------------------------------------

    def active_rows(self) -> np.ndarray:
        """Row ids of live sessions, in admit order."""
        lo, n = self._lo, self._n
        rows = (lo + np.flatnonzero(
            self.state[lo:n] == TABLE_ACTIVE)).astype(np.int64, copy=False)
        self._lo = int(rows[0]) if len(rows) else n
        return rows

    def harvest(self, until: float, *, inclusive: bool = True) -> list[int]:
        """Live rows departing by ``until``, ordered by (time, admit order).

        Pops the due entries off the departure heap, so each row is
        handed out once: the caller retires every returned row (marks
        it departed or dropped).
        """
        due = self._due
        state = self._state_v
        rows: list[int] = []
        while due and (due[0][0] <= until if inclusive
                       else due[0][0] < until):
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

    def mark_departed(self, row: int) -> tuple[int, str, int]:
        """Retire a departing row; returns its (title, tier, stream id)."""
        self._state_v[row] = TABLE_DEPARTED
        self._active -= 1
        return (self._title_v[row], self._served_names[self._served_v[row]],
                self._stream_v[row])

    def mark_dropped(self, row: int) -> tuple[int, str, int]:
        """Retire a shed row; returns its (title, tier, stream id)."""
        self._state_v[row] = TABLE_DROPPED
        self._active -= 1
        return (self._title_v[row], self._served_names[self._served_v[row]],
                self._stream_v[row])

    def shed_newest(self, count: int) -> np.ndarray:
        """Newest ``count`` live rows (reverse admit order), for sheds."""
        rows = self.active_rows()
        return rows[::-1][:count]
