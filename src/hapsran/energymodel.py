"""Per-BS energy consumption: four static components plus a load-linear term.

Hourly consumption of an active BS is
    e0 + e_bb + e_tran + e_pa + (1/eta) * p_tx_w * dt_s * (rate / capacity),
while a sleeping BS consumes only the baseline e0.  The shipped defaults are
normalized units: full load costs 1.7 and sleep costs 0.2 per hour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import check_load, require_finite, scalar_or_array
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class EnergyParams:
    e0: float = 0.2
    e_bb: float = 0.15
    e_tran: float = 0.15
    e_pa: float = 0.2
    eta: float = 0.3
    p_tx_w: float = 0.3
    dt_s: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if min(self.e0, self.e_bb, self.e_tran, self.e_pa) < 0:
            raise InvalidArgumentError("energy components must be >= 0")
        if not (0 < self.eta <= 1):
            raise InvalidArgumentError(f"eta must be in (0,1], got {self.eta}")
        if self.p_tx_w <= 0 or self.dt_s <= 0:
            raise InvalidArgumentError("p_tx_w and dt_s must be positive")
        # each setting is finite, but their sum or product can still overflow
        if not math.isfinite(self.static_energy):
            raise InvalidArgumentError(
                f"[energy] e0 + e_bb + e_tran + e_pa overflows to {self.static_energy} ({self})"
            )
        if not math.isfinite(self.full_load_dynamic):
            raise InvalidArgumentError(
                f"[energy] p_tx_w * dt_s / eta overflows to {self.full_load_dynamic} ({self})"
            )

    @property
    def static_energy(self) -> float:
        """Consumption of an active BS at zero load."""
        return self.e0 + self.e_bb + self.e_tran + self.e_pa

    @property
    def full_load_dynamic(self) -> float:
        """Extra consumption at 100% load."""
        return self.p_tx_w * self.dt_s / self.eta


def bs_energy(params: EnergyParams, rate, capacity):
    """Energy per time step of an active BS; accepts scalars or arrays."""
    rate = np.asarray(rate, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    check_load(rate, capacity)
    return scalar_or_array(params.static_energy + params.full_load_dynamic * (rate / capacity))


def sleep_energy(params: EnergyParams) -> float:
    """Energy per time step of a sleeping BS: the baseline only."""
    return params.e0
