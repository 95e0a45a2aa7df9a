"""The canonical server-configuration spec the planner solves for.

The paper's four ways of arranging the memory hierarchy — direct
disk-to-DRAM streaming (Theorem 1), a ``k``-device MEMS speed-matching
buffer (Theorem 2), a striped/replicated MEMS content cache (Theorems
3/4), and the future-work hybrid split of the bank — were historically
named ad hoc: strings (``"none"`` / ``"buffer"`` / ``"cache"``) in the
admission controller and capacity solvers, keyword choices in the
experiments, split integers in the hybrid solver.
:class:`Configuration` is the one canonical, hashable spelling all
layers now share, and therefore the second half of every memoization
key ``(params, configuration)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.cache_model import CachePolicy
from repro.core.popularity import PopularityDistribution
from repro.errors import ConfigurationError, require


class ConfigurationKind(enum.Enum):
    """Which arrangement of the hierarchy a :class:`Configuration` names."""

    #: Plain disk-to-DRAM streaming (Theorem 1); no MEMS involved.
    DIRECT = "direct"
    #: k-device MEMS bank as a disk speed-matching buffer (Theorem 2).
    BUFFER = "buffer"
    #: k-device MEMS bank as a popular-content cache (Theorems 3/4).
    CACHE = "cache"
    #: Bank split between caching and buffering (Section 7 future work).
    HYBRID = "hybrid"
    #: Bank holds per-title *prefixes*; the disk serves the tails and
    #: batched sessions share IO streams (:mod:`repro.vod`).
    PREFIX = "prefix"


@dataclass(frozen=True)
class Configuration:
    """A hashable server-configuration spec.

    ``k`` is the MEMS bank size engaged by the configuration; ``None``
    defers to ``params.k`` at solve time (the common case for the
    legacy wrappers).  ``policy`` and ``popularity`` are required for
    CACHE and HYBRID; ``k_cache`` only exists for HYBRID, where ``k``
    is the *total* bank and ``k - k_cache`` devices buffer.  PREFIX
    carries its demand model as two scalars — ``mems_fraction`` (the
    expected byte share served from the resident prefixes) and
    ``fanout`` (sessions per shared IO stream) — so the planner never
    depends on the per-title allocation behind them (see
    :mod:`repro.vod.placement`, which computes both).
    """

    kind: ConfigurationKind
    k: int | None = None
    policy: CachePolicy | None = None
    popularity: PopularityDistribution | None = None
    k_cache: int | None = None
    mems_fraction: float | None = None
    fanout: float | None = None

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 0:
            raise ConfigurationError(f"k must be >= 0, got {self.k!r}")
        if self.kind in (ConfigurationKind.CACHE, ConfigurationKind.HYBRID):
            if self.policy is None or self.popularity is None:
                raise ConfigurationError(
                    f"{self.kind.value} configuration needs policy and "
                    f"popularity")
        if self.kind is ConfigurationKind.HYBRID:
            if self.k is None or self.k_cache is None:
                raise ConfigurationError(
                    "hybrid configuration needs explicit k and k_cache")
            if not 0 <= self.k_cache <= self.k:
                raise ConfigurationError(
                    f"k_cache must be in [0, {self.k}], got {self.k_cache!r}")
        elif self.k_cache is not None:
            raise ConfigurationError(
                f"k_cache only applies to hybrid configurations, "
                f"got {self.k_cache!r} for {self.kind.value}")
        if self.kind is ConfigurationKind.BUFFER and self.k == 0:
            raise ConfigurationError("a buffer configuration needs k >= 1")
        if self.kind is ConfigurationKind.CACHE and self.k == 0:
            raise ConfigurationError("a cache configuration needs k >= 1")
        if self.kind is ConfigurationKind.PREFIX:
            if self.policy is None or self.mems_fraction is None:
                raise ConfigurationError(
                    "prefix configuration needs policy and mems_fraction")
            if not 0.0 <= self.mems_fraction <= 1.0:
                raise ConfigurationError(
                    f"mems_fraction must be in [0, 1], "
                    f"got {self.mems_fraction!r}")
            if self.fanout is None or self.fanout < 1.0:
                raise ConfigurationError(
                    f"fanout must be >= 1, got {self.fanout!r}")
            if self.k == 0:
                raise ConfigurationError(
                    "a prefix configuration needs k >= 1")
        elif self.mems_fraction is not None or self.fanout is not None:
            raise ConfigurationError(
                f"mems_fraction/fanout only apply to prefix "
                f"configurations, not {self.kind.value}")

    # -- Constructors --------------------------------------------------------

    @classmethod
    def direct(cls) -> "Configuration":
        """Plain disk-to-DRAM streaming."""
        return cls(kind=ConfigurationKind.DIRECT)

    @classmethod
    def buffer(cls, k: int | None = None) -> "Configuration":
        """MEMS disk buffer over ``k`` devices (``None``: ``params.k``)."""
        return cls(kind=ConfigurationKind.BUFFER, k=k)

    @classmethod
    def cache(cls, policy: CachePolicy,
              popularity: PopularityDistribution,
              k: int | None = None) -> "Configuration":
        """MEMS content cache under ``policy`` (``None``: ``params.k``)."""
        return cls(kind=ConfigurationKind.CACHE, k=k, policy=policy,
                   popularity=popularity)

    @classmethod
    def hybrid(cls, k_cache: int, k_buffer: int, policy: CachePolicy,
               popularity: PopularityDistribution) -> "Configuration":
        """Split bank: ``k_cache`` devices cache, ``k_buffer`` buffer."""
        if k_buffer < 0:
            raise ConfigurationError(
                f"k_buffer must be >= 0, got {k_buffer!r}")
        return cls(kind=ConfigurationKind.HYBRID, k=k_cache + k_buffer,
                   policy=policy, popularity=popularity, k_cache=k_cache)

    @classmethod
    def prefix(cls, policy: CachePolicy, mems_fraction: float, *,
               fanout: float = 1.0, k: int | None = None) -> "Configuration":
        """Prefix cache: MEMS serves ``mems_fraction`` of each IO
        stream's bytes under ``policy``; ``fanout`` sessions share one
        stream (``fanout=1`` states demand in IO-stream units — the
        admission controller's spelling, since batched joins consume no
        new stream)."""
        return cls(kind=ConfigurationKind.PREFIX, k=k, policy=policy,
                   mems_fraction=float(mems_fraction), fanout=float(fanout))

    @classmethod
    def from_legacy(cls, configuration: str, *,
                    policy: CachePolicy | None = None,
                    popularity: PopularityDistribution | None = None,
                    k: int | None = None) -> "Configuration":
        """Map the historical ``"none"``/``"buffer"``/``"cache"`` strings."""
        if configuration == "none":
            return cls.direct()
        if configuration == "buffer":
            return cls.buffer(k)
        if configuration == "cache":
            if policy is None or popularity is None:
                raise ConfigurationError(
                    "cache configuration needs policy and popularity")
            return cls.cache(policy, popularity, k)
        raise ConfigurationError(
            f"configuration must be 'none', 'buffer' or 'cache', "
            f"got {configuration!r}")

    # -- Introspection -------------------------------------------------------

    @property
    def k_buffer(self) -> int | None:
        """Buffer-side devices of a hybrid split (``None`` otherwise)."""
        if self.kind is not ConfigurationKind.HYBRID:
            return None
        require(self.k is not None and self.k_cache is not None,
                "hybrid configuration constructed without k/k_cache")
        return self.k - self.k_cache

    @property
    def uses_mems(self) -> bool:
        """True when the configuration engages the MEMS bank at all."""
        return self.kind is not ConfigurationKind.DIRECT

    def describe(self) -> str:
        """Short human-readable label, e.g. ``"cache(striped, k=2)"``."""
        k_text = "" if self.k is None else f"k={self.k}"
        if self.kind is ConfigurationKind.DIRECT:
            return "direct"
        if self.kind is ConfigurationKind.BUFFER:
            return f"buffer({k_text or 'k=params'})"
        require(self.policy is not None,
                "cache/hybrid/prefix configuration constructed without "
                "a policy")
        if self.kind is ConfigurationKind.CACHE:
            return f"cache({self.policy.value}, {k_text or 'k=params'})"
        if self.kind is ConfigurationKind.PREFIX:
            return (f"prefix({self.policy.value}, h={self.mems_fraction:.3f},"
                    f" fanout={self.fanout:g}, {k_text or 'k=params'})")
        return (f"hybrid({self.policy.value}, k_cache={self.k_cache}, "
                f"k_buffer={self.k_buffer})")
