"""Prefix-cache sizing: how many MEMS bytes a title's head needs.

Hiding the disk path's startup latency does not need a whole title
resident on the MEMS bank — only its *prefix*: a new session plays the
first seconds from MEMS (one short MEMS cycle away, see
:func:`repro.core.startup.cache_startup`) while its tail IO joins the
disk cycle.  The resident prefix must therefore cover at least the
worst-case direct-path startup (Theorem 1 cycle plus one IO service,
:func:`repro.core.startup.direct_startup`) at the concurrent IO-stream
population, scaled by a safety factor.

A prefix *may* be longer than that floor: every extra resident second
widens the multicast batching window of :mod:`repro.vod.multicast`
(a later session can catch up from MEMS and share the open IO stream),
which is where :mod:`repro.vod.replacement` spends the bank's remaining
bytes on the popular head of the catalogue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.parameters import SystemParameters
from repro.core.startup import direct_startup
from repro.core.summation import sequential_sum
from repro.errors import ConfigurationError, require

#: Startup-latency sizing caps the reference population at this disk
#: bandwidth fraction: beyond it the Theorem 1 cycle diverges and the
#: "cover the startup" rule would ask for unbounded prefixes.
_SIZING_LOAD_CAP = 0.5


def prefix_seconds(params: SystemParameters, *, population: float,
                   safety: float = 2.0, floor: float = 1.0) -> float:
    """Seconds of playback a resident prefix must hold to hide startup.

    ``population`` is the concurrent *IO-stream* population the disk
    path is sized against (clamped to at least one stream and at most
    half the disk's bandwidth capacity, where the cycle-time model is
    well behaved).  ``safety`` scales the worst-case startup bound;
    ``floor`` is the minimum prefix duration regardless of load.
    """
    if population < 0:
        raise ConfigurationError(
            f"population must be >= 0, got {population!r}")
    if safety <= 0:
        raise ConfigurationError(f"safety must be > 0, got {safety!r}")
    if floor < 0:
        raise ConfigurationError(f"floor must be >= 0, got {floor!r}")
    cap = _SIZING_LOAD_CAP * params.r_disk / params.bit_rate
    sizing_n = min(max(population, 1.0), cap)
    latency = direct_startup(params, n_streams=sizing_n).worst
    return max(safety * latency, floor)


def base_prefix_bytes(params: SystemParameters, *, population: float,
                      safety: float = 2.0, floor: float = 1.0) -> float:
    """Bytes of the startup-covering base prefix: bitrate x latency."""
    return params.bit_rate * prefix_seconds(params, population=population,
                                            safety=safety, floor=floor)


@dataclass(frozen=True)
class PrefixAllocation:
    """Per-title resident prefix bytes under one MEMS byte budget.

    ``prefix_bytes[t]`` is the MEMS residency of title ``t`` (0 when the
    title is not resident at all); every resident prefix is clamped to
    the whole title.  Titles are modelled equal-sized (``title_bytes``
    each), matching the scenario library model.

    Construction also keeps the residencies as one read-only float64
    array and the resident title set, so an epoch's allocation is
    checked, summed and diffed with array work instead of per-title
    Python.
    """

    prefix_bytes: tuple[float, ...]
    title_bytes: float

    def __post_init__(self) -> None:
        if not self.prefix_bytes:
            raise ConfigurationError("prefix_bytes must be non-empty")
        if self.title_bytes <= 0:
            raise ConfigurationError(
                f"title_bytes must be > 0, got {self.title_bytes!r}")
        sizes = np.array(self.prefix_bytes, dtype=float)
        # ``not >= 0`` also catches NaN, which no bound comparison does.
        bad = ~(sizes >= 0) | (sizes > self.title_bytes * (1 + 1e-9))
        if bad.any():
            title = int(np.flatnonzero(bad)[0])
            raise ConfigurationError(
                f"prefix of title {title} must be in "
                f"[0, {self.title_bytes!r}], got {self.prefix_bytes[title]!r}")
        sizes.flags.writeable = False
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_resident", tuple(
            np.flatnonzero(sizes > 0).tolist()))

    @property
    def n_titles(self) -> int:
        return len(self.prefix_bytes)

    @property
    def sizes(self) -> np.ndarray:
        """``prefix_bytes`` as a read-only float64 array."""
        return self._sizes

    @property
    def resident_titles(self) -> tuple[int, ...]:
        """Titles with any resident prefix, sorted by id."""
        return self._resident

    @property
    def total_bytes(self) -> float:
        """MEMS bytes the allocation occupies."""
        return sequential_sum(self._sizes)

    def byte_fraction(self, title: int) -> float:
        """Resident fraction of one title's bytes, in [0, 1]."""
        require(0 <= title < self.n_titles,
                f"title must be in [0, {self.n_titles}), got {title!r}")
        return min(self.prefix_bytes[title] / self.title_bytes, 1.0)

    def window_seconds(self, title: int, bit_rate: float) -> float:
        """Playback duration of one title's resident prefix."""
        if bit_rate <= 0:
            raise ConfigurationError(
                f"bit_rate must be > 0, got {bit_rate!r}")
        require(0 <= title < self.n_titles,
                f"title must be in [0, {self.n_titles}), got {title!r}")
        return self.prefix_bytes[title] / bit_rate

    def mems_fraction(self, weights) -> float:
        """Expected byte share served from MEMS under ``weights``.

        ``weights`` are per-title access probabilities (summing to 1);
        the expected fraction of a random session's bytes that are
        MEMS-resident is ``sum_t w_t * prefix_t / title_bytes`` — the
        ``h`` the prefix demand model of the planner consumes.
        """
        values = np.asarray(weights, dtype=float)
        if values.shape != (self.n_titles,):
            raise ConfigurationError(
                f"weights must have length {self.n_titles}, "
                f"got {values.size}")
        if not np.isfinite(values).all():
            raise ConfigurationError("weights must be finite")
        if (values < 0).any():
            raise ConfigurationError("weights must be >= 0")
        total = sequential_sum(values)
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
            raise ConfigurationError(
                f"weights must sum to 1, got {total!r}")
        fractions = np.minimum(self._sizes / self.title_bytes, 1.0)
        return min(sequential_sum(values * fractions), 1.0)
