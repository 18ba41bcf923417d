"""Hourly BS deactivation: least-traffic-first greedy plus an exact oracle.

Each hour is independent: BSs are scanned in ascending rate order and put to
sleep while both constraints hold, namely the active count may not drop below
ceil(min_active_frac * N) and the total offloaded rate may not exceed the
HAPS capacity.  The brute-force oracle enumerates all feasible active sets
for small instances and is used to validate the greedy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import check_load
from .energymodel import EnergyParams, bs_energy, sleep_energy
from .errors import InstanceTooLargeError, InvalidArgumentError
from .traffic import HourOrder, TrafficScenario, sort_hours

_ORACLE_MAX_N = 20
# the sleepers may offload this fraction over c_haps, in the greedy and the oracle alike,
# so that sums rounded in either one's order fit at a tie
OFFLOAD_TOLERANCE = 1e-12


@dataclass(frozen=True)
class OffloadConstraints:
    min_active_frac: float = 0.4
    c_haps: float = 0.0

    def __post_init__(self):
        if not 0 <= self.min_active_frac <= 1:
            raise InvalidArgumentError("min_active_frac must be in [0,1]")
        if not self.c_haps >= 0:
            raise InvalidArgumentError(f"c_haps must be >= 0, got {self.c_haps}")

    def max_offloadable(self, n: int) -> int:
        """Largest sleeper count that keeps ceil(min_active_frac*n) BSs active."""
        # small slack absorbs float noise in frac*n at exact integers
        return n - math.ceil(self.min_active_frac * n - 1e-9)


@dataclass(frozen=True)
class OffloadSchedule:
    """A week's greedy decisions: per hour, the k lowest-ranked BSs sleep.

    Every field but rank is a (T,) vector; rank is the scenario's read-only (T, N)
    HourOrder.rank, held by reference.
    """

    rank: np.ndarray  # (T, N) int32, BS i's place in hour h's order
    offloaded_rate: np.ndarray  # (T,) Mbps
    offloaded_count: np.ndarray  # (T,) int: k, the sleepers
    energy_per_hour: np.ndarray  # (T,)
    active_capacity: np.ndarray  # (T,) summed capacity of the BSs that stay on

    @property
    def active(self) -> np.ndarray:
        """(T, N) bool, True = BS stays on; built on each call."""
        return self.rank >= self.offloaded_count[:, None]

    @property
    def total_energy(self) -> float:
        return float(self.energy_per_hour.sum())

    @property
    def never_active_count(self) -> int:
        """Number of BSs that sleep through the whole week."""
        return int((self.rank < self.offloaded_count[:, None]).all(axis=0).sum())


def _hour_inputs(rates, capacities) -> tuple[np.ndarray, np.ndarray]:
    """One hour's rates and capacities as non-empty, equal-length 1-D float arrays, each
    rate finite and in [0, capacity] and each capacity positive and finite."""
    rates = np.asarray(rates, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if rates.ndim != 1 or rates.size == 0 or capacities.shape != rates.shape:
        shapes = f"{rates.shape} and {capacities.shape}"
        raise InvalidArgumentError(f"need 1-D rates and capacities of one length > 0, got {shapes}")
    if not np.isfinite(rates).all():
        raise InvalidArgumentError("rates must be finite")
    check_load(rates, capacities)
    return rates, capacities


def _baseline(order: HourOrder, params: EnergyParams) -> np.ndarray:
    """(T,) energy of each hour with every BS on: bs_energy is linear in load."""
    n = order.rank.shape[1]
    return n * params.static_energy + params.full_load_dynamic * order.cum_load[:, -1]


def _solve(order: HourOrder, params: EnergyParams, cons: OffloadConstraints) -> OffloadSchedule:
    """Greedy over every hour at once, given the hours' order.

    Per hour, the k lowest-ranked BSs sleep: k is the smaller of the active-count
    limit and the longest prefix of the order whose summed rate fits in c_haps.
    Every hourly output is then column k of a prefix sum.  Each sleeper saves
    static - e0 plus its dynamic term, whichever BSs sleep with it, so an hour's
    energy is its baseline less the k sleepers' saving.
    The inputs are trusted: a TrafficScenario or _hour_inputs has put every rate in
    [0, capacity * (1 + LOAD_TOLERANCE)] through check_load.
    """
    n_hours, n = order.rank.shape
    fits = order.cum_rate[:, 1:] <= cons.c_haps * (1 + OFFLOAD_TOLERANCE)
    k = np.minimum(cons.max_offloadable(n), fits.sum(axis=1))
    at_k = (np.arange(n_hours), k)
    per_sleeper = params.static_energy - sleep_energy(params)
    saved = k * per_sleeper + params.full_load_dynamic * order.cum_load[at_k]
    return OffloadSchedule(
        rank=order.rank,
        offloaded_rate=order.cum_rate[at_k],
        offloaded_count=k,
        energy_per_hour=_baseline(order, params) - saved,
        active_capacity=order.cum_cap[:, -1] - order.cum_cap[at_k],
    )


def offload_hour(
    rates, capacities, params: EnergyParams, cons: OffloadConstraints
) -> tuple[np.ndarray, float, float, int]:
    """Greedy single-hour solve: the one-hour case of offload_week.

    Returns (active flags, hour energy, offloaded rate, offloaded count).
    Ties in rate are broken by ascending BS index; the scan stops at the
    first BS that would overshoot the HAPS capacity, since every later BS
    carries at least as much traffic.
    """
    rates, capacities = _hour_inputs(rates, capacities)
    s = _solve(sort_hours(rates[:, None], capacities), params, cons)
    return s.active[0], s.total_energy, float(s.offloaded_rate[0]), int(s.offloaded_count[0])


def offload_week(
    scenario: TrafficScenario, params: EnergyParams, cons: OffloadConstraints
) -> OffloadSchedule:
    """Apply the greedy solve independently to each of the 168 hours, in the
    scenario's cached hour order."""
    return _solve(scenario.hour_order, params, cons)


def baseline_energy_per_hour(scenario: TrafficScenario, params: EnergyParams) -> np.ndarray:
    """Per-hour energy with every BS active (no offloading)."""
    return _baseline(scenario.hour_order, params)


def baseline_energy(scenario: TrafficScenario, params: EnergyParams) -> float:
    return float(baseline_energy_per_hour(scenario, params).sum())


def exact_oracle_hour(
    rates, capacities, params: EnergyParams, cons: OffloadConstraints
) -> tuple[np.ndarray, float]:
    """Exhaustive single-hour minimizer over all feasible active sets.

    Ties are broken by the lexicographically smallest active index set.
    Limited to N <= 20 (2^N enumeration).
    """
    rates, capacities = _hour_inputs(rates, capacities)
    per_bs = bs_energy(params, rates, capacities)
    n = rates.size
    if n > _ORACLE_MAX_N:
        raise InstanceTooLargeError(f"oracle limited to N <= {_ORACLE_MAX_N}, got {n}")
    masks = np.arange(2**n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)  # True = active
    active_count = bits.sum(axis=1)
    offloaded = (~bits) @ rates
    min_active = n - cons.max_offloadable(n)
    feasible = (active_count >= min_active) & (offloaded <= cons.c_haps * (1 + OFFLOAD_TOLERANCE))
    if not np.any(feasible):
        raise InvalidArgumentError("no feasible active set under the given constraints")
    energies = bits @ per_bs + (n - active_count) * sleep_energy(params)
    energies[~feasible] = np.inf
    best = energies.min()
    tied = np.flatnonzero(np.isclose(energies, best, rtol=1e-12, atol=1e-12))
    choice = min(tied, key=lambda m: tuple(np.flatnonzero(bits[m])))
    return bits[choice].copy(), float(energies[choice])
