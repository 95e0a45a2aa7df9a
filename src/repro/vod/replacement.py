"""Adaptive replacement of resident prefixes.

The bank budget is spent greedily down the observed popularity ranking
(the "popularity-aware prefix cache" policy): the hottest titles get a
*full* prefix — the batching-window cap, which maximises multicast
fan-out on the head — the marginal title gets whatever partial prefix
is left (still at least the startup-covering base), and colder titles
get nothing.  Re-running the allocation against fresh scores at each
epoch is what promotes, demotes and resizes prefixes as popularity
drifts.

A hysteresis bonus makes residency sticky: an already-resident title
only loses its slot to a challenger whose score beats it by the
hysteresis margin, so near-ties do not thrash prefixes on and off the
bank every epoch.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

from repro.vod.prefix import PrefixAllocation


@dataclass(frozen=True)
class AdaptiveReplacement:
    """Deterministic promote/demote/resize policy (pure: no state).

    The caller (:class:`repro.vod.placement.PrefixPlacement`) owns the
    previous allocation and passes its resident set back in, so one
    policy instance can evaluate several candidate budgets (striped
    vs. replicated) without committing.
    """

    #: Relative score bonus a resident title enjoys when re-ranked.
    hysteresis: float = 0.2

    def __post_init__(self) -> None:
        if self.hysteresis < 0:
            raise ConfigurationError(
                f"hysteresis must be >= 0, got {self.hysteresis!r}")

    def rebalance(self, scores, *, base_bytes: float, max_bytes: float,
                  budget_bytes: float, title_bytes: float,
                  resident: Collection[int] = ()) -> PrefixAllocation:
        """Allocate ``budget_bytes`` of prefixes down the score ranking.

        ``base_bytes`` is the startup-covering minimum a resident title
        must hold; ``max_bytes`` the batching-window cap a hot title may
        grow to (both already clamped to the title size by the caller).
        A title is resident only if at least ``base_bytes`` remain for
        it — a shorter residue could not even hide startup, so it stays
        on the bank unspent rather than buying a useless stub.
        """
        values = np.array(scores, dtype=float)
        if values.ndim != 1 or not values.size:
            raise ConfigurationError(
                "scores must be a non-empty 1-D sequence")
        if not np.isfinite(values).all():
            raise ConfigurationError("scores must be finite")
        if (values < 0).any():
            raise ConfigurationError("scores must be >= 0")
        if base_bytes <= 0:
            raise ConfigurationError(
                f"base_bytes must be > 0, got {base_bytes!r}")
        if max_bytes < base_bytes:
            raise ConfigurationError(
                f"max_bytes must be >= base_bytes ({base_bytes!r}), "
                f"got {max_bytes!r}")
        if budget_bytes < 0:
            raise ConfigurationError(
                f"budget_bytes must be >= 0, got {budget_bytes!r}")
        sticky = np.fromiter(resident, dtype=np.intp)
        if sticky.size and not (0 <= sticky.min()
                                and sticky.max() < values.size):
            raise ConfigurationError(
                f"resident titles must be in [0, {values.size})")
        # ``values`` is this call's own copy: the bonus stays local.
        values[sticky] *= 1.0 + self.hysteresis

        # Stable ranking: higher effective score first, lower id on ties.
        ranked = np.argsort(-values, kind="stable")
        prefix = np.zeros(values.size)
        remaining = budget_bytes
        # Only the resident head is walked: the loop ends at the first
        # title the residue cannot give a base prefix.
        for title in ranked.tolist():
            if remaining < base_bytes:
                break
            give = min(max_bytes, remaining)
            prefix[title] = give
            remaining -= give
        return PrefixAllocation(prefix_bytes=tuple(prefix.tolist()),
                                title_bytes=title_bytes)
