"""The load bound, 0 <= rate <= limit * (1 + LOAD_TOLERANCE) with a positive, finite limit,
has one implementation, _numeric.check_load.  Every entry point that takes rates and
capacities must reject the same bad inputs with the exception type it has always raised,
and must put the bound in the same place.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapsran import (
    BSStats,
    EnergyParams,
    InvalidArgumentError,
    LoadExceedsCapacityError,
    OffloadConstraints,
    TrafficScenario,
    bs_energy,
    exact_oracle_hour,
    offload_hour,
)
from hapsran._numeric import LOAD_TOLERANCE, check_load
from hapsran.traffic import HOURS_PER_WEEK

ENERGY = EnergyParams()
CONS = OffloadConstraints(min_active_frac=0.0, c_haps=2.0)


def stats(rate, cap, max_load):
    return BSStats(peak=rate, p5=0.0, mean=0.0, capacity=cap, max_load=max_load)


def scenario(rate, cap, max_load):
    """Two BSs whose stats are valid; BS 1 carries rate in hour 7."""
    good = stats(min(rate, max_load * cap) if rate >= 0 else 0.0, cap, max_load)
    rates = np.zeros((2, HOURS_PER_WEEK))
    rates[1, 7] = rate
    return TrafficScenario(rate_matrix=rates, stats=(good, good))


def energy(rate, cap, max_load):
    return bs_energy(ENERGY, np.array([0.5 * cap, rate]), np.array([cap, cap]))


def energy_scalar(rate, cap, max_load):
    return bs_energy(ENERGY, rate, cap)


def hour(solver):
    def solve(rate, cap, max_load):
        rates, caps = np.array([1.0, 2.0, 3.0]), np.full(3, 10.0)
        rates[1], caps[1] = rate, cap
        return solver(rates, caps, ENERGY, CONS)

    return solve


# entry point -> (its load limit given capacity and max_load, what it raises for each fault)
INVALID, OVER = InvalidArgumentError, LoadExceedsCapacityError
ALL_INVALID = dict.fromkeys(
    ["nan", "+inf", "-inf", "negative", "over", "zero-cap", "negative-cap", "inf-cap", "nan-cap"],
    INVALID,
)
# an offload solver turns away a non-finite rate before it compares it with the limit
SOLVER = {**ALL_INVALID, "over": OVER}
# bs_energy compares an infinite rate with the limit.  It once returned NaN for a NaN rate
# or capacity and accepted an infinite capacity; it now rejects all three
ENERGY_FAULTS = {**SOLVER, "+inf": OVER}
ENTRIES = {
    "BSStats": (stats, lambda cap, ml: ml * cap, ALL_INVALID),
    "TrafficScenario": (scenario, lambda cap, ml: ml * cap, ALL_INVALID),
    "bs_energy": (energy, lambda cap, ml: cap, ENERGY_FAULTS),
    "bs_energy-scalar": (energy_scalar, lambda cap, ml: cap, ENERGY_FAULTS),
    "offload_hour": (hour(offload_hour), lambda cap, ml: cap, SOLVER),
    "exact_oracle_hour": (hour(exact_oracle_hour), lambda cap, ml: cap, SOLVER),
}
# TrafficScenario takes its capacities from BSStats, which rejects a bad one first
CAPACITY_FAULTS = ("zero-cap", "negative-cap", "inf-cap", "nan-cap")
FAULTS = [
    (name, fault)
    for name, (_, _, faults) in ENTRIES.items()
    for fault in faults
    if not (name == "TrafficScenario" and fault in CAPACITY_FAULTS)
]


def bad_input(fault, cap, limit, scale):
    """(rate, capacity) with the one fault named; scale > 1 sets how far past its bound."""
    return {
        "nan": (math.nan, cap),
        "+inf": (math.inf, cap),
        "-inf": (-math.inf, cap),
        "negative": (-limit * (scale - 1), cap),
        "over": (limit * (1 + LOAD_TOLERANCE) * scale, cap),
        "zero-cap": (0.0, 0.0),
        "negative-cap": (0.0, -cap * scale),
        "inf-cap": (0.0, math.inf),
        "nan-cap": (0.0, math.nan),
    }[fault]


class TestOneLoadCheck:
    @settings(max_examples=300, deadline=None)
    @given(
        case=st.sampled_from(FAULTS),
        cap=st.floats(10.0, 1e6),
        max_load=st.floats(0.05, 1.0),
        scale=st.floats(1.0 + 1e-6, 1e3),
    )
    def test_each_entry_point_keeps_its_exception_type(self, case, cap, max_load, scale):
        name, fault = case
        call, limit_of, faults = ENTRIES[name]
        rate, bad_cap = bad_input(fault, cap, limit_of(cap, max_load), scale)
        with pytest.raises(faults[fault]) as info:
            call(rate, bad_cap, max_load)
        assert type(info.value) is faults[fault]

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(ENTRIES)),
        cap=st.floats(10.0, 1e6),
        max_load=st.floats(0.05, 1.0),
        slack=st.floats(0.0, 0.5),
    )
    def test_every_entry_point_puts_the_bound_in_one_place(self, name, cap, max_load, slack):
        call, limit_of, faults = ENTRIES[name]
        limit = limit_of(cap, max_load)
        call(limit * (1 + slack * LOAD_TOLERANCE), cap, max_load)  # within the tolerance
        with pytest.raises(faults["over"]):
            call(limit * (1 + (2 + slack) * LOAD_TOLERANCE), cap, max_load)

    def test_a_capacity_whose_bound_overflows_is_rejected(self):
        # limit * (1 + LOAD_TOLERANCE) would be inf, and an infinite peak would fit under it
        with pytest.raises(InvalidArgumentError, match="capacity"):
            stats(math.inf, sys.float_info.max, 1.0)
        with pytest.raises(InvalidArgumentError, match="capacity"):
            check_load(1.0, sys.float_info.max)

    def test_the_caller_names_the_over_limit_error(self):
        with pytest.raises(InvalidArgumentError, match="peak exceeds max_load"):
            stats(10.0, 10.0, 0.5)
        with pytest.raises(InvalidArgumentError, match="a trace exceeds max_load"):
            scenario(10.0, 10.0, 0.5)
        with pytest.raises(LoadExceedsCapacityError, match="rate exceeds BS capacity"):
            bs_energy(ENERGY, 11.0, 10.0)
