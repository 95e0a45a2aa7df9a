"""System parameter set (the paper's Table 2).

:class:`SystemParameters` bundles every symbol of the analytical model:
stream population (``N``, ``B̄``), device rates and latencies, the MEMS
bank size ``k``, unit costs, and device capacities.  All values are in
base units (bytes, bytes/second, seconds, dollars) — see
:mod:`repro.units`.

Instances are immutable; :meth:`SystemParameters.replace` derives
variants, and :meth:`SystemParameters.table3_default` builds the
paper's 2007 case-study configuration from the device catalog.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SystemParameters:
    """All inputs of the analytical model (Table 2 of the paper).

    Attributes use the paper's symbols:

    * ``n_streams`` — N, number of continuous-media streams.
    * ``bit_rate`` — B̄, average stream bit-rate in bytes/second.
    * ``k`` — number of MEMS devices in the system.
    * ``r_disk`` / ``r_mems`` — media transfer rates in bytes/second.
    * ``l_disk`` — L̄_disk, scheduler-determined average disk latency.
    * ``l_mems`` — L̄_mems, per-IO MEMS latency; the paper always uses
      the *maximum* device latency here.
    * ``c_dram`` / ``c_mems`` — unit costs in dollars per byte.
    * ``size_mems`` / ``size_disk`` — per-device capacities in bytes.
      ``size_mems=None`` models the paper's "unlimited MEMS storage"
      relaxation (Sections 5.1.1-5.1.2).
    """

    #: Number of streams; fractional values are allowed because the
    #: analysis routinely evaluates expected sub-populations (``h * N``)
    #: and the capacity solvers invert the model over a continuous N.
    n_streams: float
    bit_rate: float
    r_disk: float
    r_mems: float
    l_disk: float
    l_mems: float
    k: int = 1
    c_dram: float = 0.0
    c_mems: float = 0.0
    size_mems: float | None = None
    size_disk: float | None = None

    def __post_init__(self) -> None:
        if self.n_streams < 0:
            raise ConfigurationError(
                f"n_streams must be >= 0, got {self.n_streams!r}")
        if self.bit_rate <= 0:
            raise ConfigurationError(
                f"bit_rate must be > 0, got {self.bit_rate!r}")
        for label, value in (("r_disk", self.r_disk), ("r_mems", self.r_mems)):
            if value <= 0:
                raise ConfigurationError(
                    f"{label} must be > 0, got {value!r}")
        for label, value in (("l_disk", self.l_disk), ("l_mems", self.l_mems)):
            if value < 0:
                raise ConfigurationError(
                    f"{label} must be >= 0, got {value!r}")
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k!r}")
        for label, value in (("c_dram", self.c_dram), ("c_mems", self.c_mems)):
            if value < 0:
                raise ConfigurationError(
                    f"{label} must be >= 0, got {value!r}")
        for label, value in (("size_mems", self.size_mems),
                             ("size_disk", self.size_disk)):
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{label} must be > 0 or None, got {value!r}")

    # -- Derived quantities ----------------------------------------------

    @property
    def offered_load(self) -> float:
        """Aggregate stream bandwidth ``N * B̄`` in bytes/second."""
        return self.n_streams * self.bit_rate

    @property
    def disk_utilization(self) -> float:
        """Fraction of disk media bandwidth consumed by the streams."""
        return self.offered_load / self.r_disk

    @property
    def mems_bank_bandwidth(self) -> float:
        """Aggregate MEMS bank media rate ``k * R_mems``."""
        return self.k * self.r_mems

    @property
    def mems_bank_capacity(self) -> float | None:
        """Aggregate MEMS bank capacity ``k * Size_mems`` (None if unlimited)."""
        if self.size_mems is None:
            return None
        return self.k * self.size_mems

    @property
    def mems_bank_cost(self) -> float:
        """Purchase cost of the MEMS bank under the per-device cost model.

        Section 4: "The k MEMS devices cost k x C_mems x Size_mems even
        if the system does not utilize all the available MEMS storage."
        Requires a finite ``size_mems``.
        """
        if self.size_mems is None:
            raise ConfigurationError(
                "mems_bank_cost requires a finite size_mems")
        return self.k * self.c_mems * self.size_mems

    @property
    def latency_ratio(self) -> float:
        """The paper's sensitivity knob: ``L̄_disk / L̄_mems``."""
        if self.l_mems == 0:
            return math.inf
        return self.l_disk / self.l_mems

    # -- Constructors and derivation ----------------------------------------

    @classmethod
    def table3_default(cls, *, n_streams: int, bit_rate: float, k: int = 2,
                       size_mems_unlimited: bool = False,
                       elevator_queue_depth: int | None = None) -> "SystemParameters":
        """The paper's 2007 case-study configuration (Table 3).

        FutureDisk + G3 MEMS + 2007 DRAM prices; MEMS latency is the G3
        worst case; disk latency is the elevator-scheduled average.
        ``size_mems_unlimited=True`` reproduces the relaxation used in
        the Figure 6/8 experiments.
        """
        # Imported here to avoid a devices <-> core import cycle at load.
        from repro.devices.catalog import DRAM_2007, FUTURE_DISK_2007, MEMS_G3

        disk = FUTURE_DISK_2007
        mems = MEMS_G3
        if elevator_queue_depth is None:
            l_disk = disk.scheduled_latency()
        else:
            l_disk = disk.scheduled_latency(elevator_queue_depth)
        return cls(
            n_streams=n_streams,
            bit_rate=bit_rate,
            k=k,
            r_disk=disk.transfer_rate,
            r_mems=mems.transfer_rate,
            l_disk=l_disk,
            l_mems=mems.max_access_time(),
            c_dram=DRAM_2007.cost_per_byte,
            c_mems=mems.cost_per_byte,
            size_mems=None if size_mems_unlimited else mems.capacity,
            size_disk=disk.capacity,
        )

    def replace(self, **changes: object) -> "SystemParameters":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @property
    def base(self) -> "SystemParameters":
        """This parameter set with ``n_streams`` zeroed.

        The population-free half of every planner key: a solve at ``n``
        streams is keyed ``(base, ..., n)``.  ``self`` when already
        zero; otherwise built once and kept on the instance, so a caller
        that re-asks with the same object pays one copy, not one per
        query.
        """
        if self.n_streams == 0:
            return self
        base = self.__dict__.get("_base")
        if base is None:
            base = self.replace(n_streams=0)
            object.__setattr__(self, "_base", base)
        return base

    def with_latency_ratio(self, ratio: float) -> "SystemParameters":
        """Copy with ``l_mems`` set so that ``l_disk / l_mems == ratio``.

        This is how the Figure 7 sensitivity study varies the MEMS
        device speed while holding the disk fixed.
        """
        if ratio <= 0:
            raise ConfigurationError(
                f"latency ratio must be > 0, got {ratio!r}")
        return self.replace(l_mems=self.l_disk / ratio)
