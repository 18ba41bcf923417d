import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapsran import (
    EnergyParams,
    InstanceTooLargeError,
    InvalidArgumentError,
    LoadExceedsCapacityError,
    OffloadConstraints,
    baseline_energy,
    bs_energy,
    exact_oracle_hour,
    offload_hour,
    offload_week,
    sleep_energy,
)
from hapsran import offload
from hapsran.offload import baseline_energy_per_hour
from hapsran.traffic import HOURS_PER_WEEK, BSStats, TrafficScenario, WeeklyTrace


def reference_hour(rates, caps, params, cons):
    """One hour solved on its own: stable sort, prefix sums, searchsorted.

    Returns (active, energy, offloaded rate, k, per-BS energy, baseline). energy is
    the baseline less the k sleepers' saving, from this sort's own prefix sums of
    rate / capacity; per-BS energy adds up each BS's own energy instead.
    """
    order = np.argsort(rates, kind="stable")
    cum = np.cumsum(rates[order])
    cum_load = np.cumsum(rates[order] / caps[order])
    k = min(cons.max_offloadable(rates.size), int(np.searchsorted(cum, cons.c_haps, side="right")))
    active = np.ones(rates.size, dtype=bool)
    active[order[:k]] = False
    off_rate = float(cum[k - 1]) if k > 0 else 0.0
    static, dyn = params.static_energy, params.full_load_dynamic
    baseline = rates.size * static + dyn * cum_load[-1]
    saved = k * (static - params.e0) + dyn * cum_load[k - 1] if k > 0 else 0.0
    per_bs = float(bs_energy(params, rates[active], caps[active]).sum() + k * sleep_energy(params))
    return active, float(baseline - saved), off_rate, k, per_bs, float(baseline)


def rounding_bound(n, baseline):
    """How far two float evaluations of one hour's energy, each >= 0 and <= baseline, may differ.

    With u = eps / 2 and each load rate / capacity rounded alike on both sides:
    - the per-BS sum rounds each BS's static + dyn * load twice (2u of its energy)
      and adds at most N + 1 terms (N u of the total): (N + 2) u * baseline;
    - baseline less saving sums at most N loads in each of two prefix sums
      (N u each), rounds dyn * sum, N * static, k * (static - e0) and their sums
      (4u), and subtracts (u): (2N + 5) u * baseline.
    Together (3N + 7) u = (1.5N + 3.5) eps, within (2N + 4) eps for every N >= 1.
    """
    return (2 * n + 4) * np.finfo(float).eps * baseline


def scenario_from(rates):
    """A TrafficScenario around an (N, 168) matrix, each BS loaded to at most half capacity."""
    stats = tuple(
        BSStats(
            peak=t.peak,
            p5=t.p5,
            mean=min(max(t.mean, t.p5), t.peak),
            capacity=2 * t.peak + 1,
            max_load=1.0,
        )
        for t in map(WeeklyTrace, rates)
    )
    return TrafficScenario(rate_matrix=rates, stats=stats)


class TestOffloadHour:
    def test_zero_capacity_offloads_nothing(self, energy):
        rates = np.array([1.0, 2.0, 3.0])
        caps = np.full(3, 10.0)
        cons = OffloadConstraints(min_active_frac=0.0, c_haps=0.0)
        active, e, off_rate, count = offload_hour(rates, caps, energy, cons)
        assert active.all()
        assert count == 0 and off_rate == 0.0
        assert e == pytest.approx(bs_energy(energy, rates, caps).sum())

    def test_count_cap(self, energy):
        # floor(0.6*5) = 3 sleepers, capacity is slack
        rates = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        caps = np.full(5, 10.0)
        cons = OffloadConstraints(min_active_frac=0.4, c_haps=100.0)
        active, e, off_rate, count = offload_hour(rates, caps, energy, cons)
        assert count == 3
        np.testing.assert_array_equal(active, [False, False, False, True, True])
        assert off_rate == pytest.approx(6.0)

    def test_capacity_stop(self, energy):
        rates = np.array([10.0, 10.0, 10.0])
        caps = np.full(3, 20.0)
        cons = OffloadConstraints(min_active_frac=0.0, c_haps=15.0)
        active, e, off_rate, count = offload_hour(rates, caps, energy, cons)
        assert count == 1
        assert off_rate == pytest.approx(10.0)

    def test_worked_fraction_arithmetic(self):
        # the 960-BS case: at most 576 sleepers, at least 384 active
        cons = OffloadConstraints(min_active_frac=0.4, c_haps=1.0)
        assert cons.max_offloadable(960) == 576
        assert 960 - cons.max_offloadable(960) == 384

    def test_tie_break_by_index(self, energy):
        rates = np.array([2.0, 2.0, 2.0])
        caps = np.full(3, 10.0)
        cons = OffloadConstraints(min_active_frac=0.5, c_haps=100.0)
        active, _, _, count = offload_hour(rates, caps, energy, cons)
        assert count == 1
        np.testing.assert_array_equal(active, [False, True, True])

    def test_length_mismatch(self, energy):
        with pytest.raises(InvalidArgumentError):
            offload_hour([1.0], [1.0, 2.0], energy, OffloadConstraints(c_haps=1.0))

    def test_two_dimensional_rates_rejected(self, energy):
        with pytest.raises(InvalidArgumentError):
            offload_hour(np.ones((3, 2)), np.full(3, 10.0), energy, OffloadConstraints(c_haps=1.0))

    @pytest.mark.parametrize("solver", [offload_hour, exact_oracle_hour])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["rates", "capacities"])
    def test_non_finite_rejected(self, energy, solver, bad, where):
        rates, caps = np.array([1.0, 2.0, 3.0]), np.full(3, 10.0)
        (rates if where == "rates" else caps)[0] = bad
        with pytest.raises(InvalidArgumentError):
            solver(rates, caps, energy, OffloadConstraints(min_active_frac=0.0, c_haps=2.0))

    @pytest.mark.parametrize("solver", [offload_hour, exact_oracle_hour])
    @pytest.mark.parametrize(
        "rate, cap, error",
        [
            (1.0, 0.0, InvalidArgumentError),
            (1.0, -5.0, InvalidArgumentError),
            (-1.0, 10.0, InvalidArgumentError),
            (10.5, 10.0, LoadExceedsCapacityError),
        ],
        ids=["zero-capacity", "negative-capacity", "negative-rate", "overload"],
    )
    def test_out_of_domain_hour_rejected(self, energy, solver, rate, cap, error, monkeypatch):
        # _hour_inputs rejects these itself; offload_hour computes no per-BS energy
        monkeypatch.setattr(offload, "bs_energy", None)
        rates, caps = np.array([1.0, 2.0, 3.0]), np.full(3, 10.0)
        rates[1], caps[1] = rate, cap
        with pytest.raises(error):
            solver(rates, caps, energy, OffloadConstraints(min_active_frac=0.0, c_haps=2.0))

    def test_offload_hour_computes_no_per_bs_energy(self, energy, monkeypatch):
        monkeypatch.setattr(offload, "bs_energy", None)
        rates, caps = np.array([1.0, 2.0, 3.0]), np.full(3, 10.0)
        _, e, _, k = offload_hour(rates, caps, energy, OffloadConstraints(0.0, c_haps=3.0))
        assert k == 2 and e > 0

    def test_nan_c_haps_rejected(self):
        with pytest.raises(InvalidArgumentError):
            OffloadConstraints(c_haps=math.nan)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_feasibility_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        caps = rng.uniform(10, 100, n)
        rates = caps * rng.uniform(0, 1, n)
        frac = float(rng.uniform(0, 1))
        c_haps = float(rng.uniform(0, rates.sum() + 1))
        cons = OffloadConstraints(min_active_frac=frac, c_haps=c_haps)
        active, e, off_rate, count = offload_hour(rates, caps, EnergyParams(), cons)
        assert active.sum() >= math.ceil(frac * n - 1e-9)
        assert off_rate <= c_haps + 1e-9
        assert off_rate == pytest.approx(rates[~active].sum(), rel=1e-9, abs=1e-12)


class TestOffloadWeek:
    def test_zero_capacity_equals_baseline(self, small_scenario, energy):
        assert small_scenario.rate_matrix.min() > 0
        cons = OffloadConstraints(min_active_frac=0.4, c_haps=0.0)
        schedule = offload_week(small_scenario, energy, cons)
        assert schedule.total_energy == pytest.approx(
            baseline_energy(small_scenario, energy), rel=1e-12
        )
        assert schedule.offloaded_count.sum() == 0

    def test_unconstrained_limit(self, small_scenario, energy):
        cons = OffloadConstraints(min_active_frac=0.0, c_haps=float("inf"))
        schedule = offload_week(small_scenario, energy, cons)
        n = small_scenario.n_bs
        assert schedule.total_energy == pytest.approx(HOURS_PER_WEEK * n * energy.e0)
        assert schedule.never_active_count == n

    def test_constraints_hold_every_hour(self, small_scenario, energy):
        n = small_scenario.n_bs
        cons = OffloadConstraints(min_active_frac=0.4, c_haps=50.0)
        schedule = offload_week(small_scenario, energy, cons)
        assert (schedule.active.sum(axis=1) >= math.ceil(0.4 * n)).all()
        assert (schedule.offloaded_rate <= cons.c_haps + 1e-9).all()
        assert schedule.total_energy == pytest.approx(schedule.energy_per_hour.sum())

    def test_never_worse_than_baseline(self, small_scenario, energy):
        for c_haps in (0.0, 10.0, 100.0, 1e6):
            cons = OffloadConstraints(min_active_frac=0.4, c_haps=c_haps)
            schedule = offload_week(small_scenario, energy, cons)
            assert schedule.total_energy <= baseline_energy(small_scenario, energy) + 1e-9

    def test_trusts_its_scenario(self, small_scenario, energy, monkeypatch):
        # a TrafficScenario is checked where it is built; a trial does not check it again
        def fail(rates, capacities):
            raise AssertionError("offload_week checked its scenario's rates")

        monkeypatch.setattr(offload, "_hour_inputs", fail)
        with pytest.raises(AssertionError):
            offload_hour(small_scenario.rate_matrix[:, 0], small_scenario.capacities, energy,
                         OffloadConstraints(c_haps=50.0))
        schedule = offload_week(small_scenario, energy, OffloadConstraints(c_haps=50.0))
        assert schedule.offloaded_count.sum() > 0

    def test_capacity_monotonicity(self, small_scenario, energy):
        energies = []
        for c_haps in (0.0, 5.0, 20.0, 80.0, 320.0, 1e9):
            cons = OffloadConstraints(min_active_frac=0.4, c_haps=c_haps)
            energies.append(offload_week(small_scenario, energy, cons).total_energy)
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


class TestOneSolver:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        levels=st.integers(1, 6),
        c_mode=st.sampled_from(["zero", "prefix", "random", "inf"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_week_equals_hour_by_hour_reference(self, energy, seed, n, levels, c_mode):
        # few distinct levels (zero included) force ties within and across hours
        rng = np.random.default_rng(seed)
        rates = rng.integers(0, levels, (n, HOURS_PER_WEEK)) * rng.choice([0.5, 1.25, 3.0])
        if rng.random() < 0.5:
            rates = rates + rng.uniform(0, 1, (n, HOURS_PER_WEEK)) * (rates > 0)
        scenario = scenario_from(rates)
        h0 = int(rng.integers(HOURS_PER_WEEK))
        c_haps = {
            "zero": 0.0,
            # exactly a prefix sum of one hour, so the <= boundary is hit
            "prefix": float(np.cumsum(np.sort(rates[:, h0]))[rng.integers(n)]),
            "random": float(rng.uniform(0, rates.sum(axis=0).max() + 1)),
            "inf": math.inf,
        }[c_mode]
        cons = OffloadConstraints(min_active_frac=float(rng.choice([0.0, 0.4, rng.random()])),
                                  c_haps=c_haps)
        schedule = offload_week(scenario, energy, cons)
        caps = scenario.capacities
        for h in range(HOURS_PER_WEEK):
            active, e, off_rate, k, per_bs, base = reference_hour(rates[:, h], caps, energy, cons)
            np.testing.assert_array_equal(schedule.active[h], active)
            assert schedule.energy_per_hour[h] == e
            assert schedule.offloaded_rate[h] == off_rate
            assert schedule.offloaded_count[h] == k
            assert abs(e - per_bs) <= rounding_bound(n, base)
        active, e, off_rate, k = offload_hour(rates[:, h0], caps, energy, cons)
        np.testing.assert_array_equal(active, schedule.active[h0])
        assert (e, off_rate, k) == (
            schedule.energy_per_hour[h0], schedule.offloaded_rate[h0], schedule.offloaded_count[h0]
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        levels=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_cached_order_reused_across_capacities(self, energy, seed, n, levels):
        # one scenario solved at several capacities in a row, as the trials of a study do
        rng = np.random.default_rng(seed)
        rates = rng.integers(0, levels, (n, HOURS_PER_WEEK)) * rng.choice([0.5, 1.25, 3.0])
        scenario = scenario_from(rates)
        prefixes = np.cumsum(np.sort(rates, axis=0), axis=0)
        c_values = [0.0, *rng.choice(prefixes.ravel(), 3), float(rng.uniform(0, prefixes[-1].max())),
                    math.inf, 0.0]
        caps = scenario.capacities
        order = scenario.hour_order
        for c_haps in c_values:
            cons = OffloadConstraints(min_active_frac=0.4, c_haps=float(c_haps))
            schedule = offload_week(scenario, energy, cons)
            assert scenario.hour_order is order
            for h in range(HOURS_PER_WEEK):
                active, e, off_rate, k, per_bs, base = reference_hour(
                    rates[:, h], caps, energy, cons
                )
                np.testing.assert_array_equal(schedule.active[h], active)
                assert schedule.energy_per_hour[h] == e
                assert schedule.offloaded_rate[h] == off_rate
                assert schedule.offloaded_count[h] == k
                assert abs(e - per_bs) <= rounding_bound(n, base)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25))
    @settings(max_examples=30, deadline=None)
    def test_sleepers_saving_only_their_dynamic_term(self, seed, n):
        # with no static term above e0, every BS asleep leaves N * e0, up to rounding
        params = EnergyParams(e_bb=0.0, e_tran=0.0, e_pa=0.0)
        rng = np.random.default_rng(seed)
        scenario = scenario_from(rng.uniform(0, 10, (n, HOURS_PER_WEEK)))
        cons = OffloadConstraints(min_active_frac=0.0, c_haps=math.inf)
        schedule = offload_week(scenario, params, cons)
        baseline = baseline_energy_per_hour(scenario, params)
        assert (schedule.offloaded_count == n).all()
        assert (schedule.energy_per_hour <= baseline).all()
        gap = np.abs(schedule.energy_per_hour - n * params.e0)
        assert (gap <= rounding_bound(n, baseline)).all()


class TestHourlyLookups:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        levels=st.integers(1, 6),
        c_mode=st.sampled_from(["zero", "prefix", "random", "inf"]),
        min_active_frac=st.sampled_from([0.0, 0.4, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_outputs_read_off_k_match_the_active_matrix(
        self, energy, seed, n, levels, c_mode, min_active_frac
    ):
        # few distinct levels (zero included) force ties within and across hours
        rng = np.random.default_rng(seed)
        rates = rng.integers(0, levels, (n, HOURS_PER_WEEK)) * rng.choice([0.5, 1.25, 3.0])
        if rng.random() < 0.5:  # capacities whose sums round
            rates = rates + rng.uniform(0, 1, (n, HOURS_PER_WEEK)) * (rates > 0)
        scenario = scenario_from(rates)
        cum_rate = scenario.hour_order.cum_rate
        c_haps = {
            "zero": 0.0,
            # exactly one of the prefix sums, so the <= boundary is hit
            "prefix": float(cum_rate[rng.integers(HOURS_PER_WEEK), rng.integers(n + 1)]),
            "random": float(rng.uniform(0, cum_rate[:, -1].max() + 1)),
            "inf": math.inf,
        }[c_mode]
        cons = OffloadConstraints(min_active_frac=min_active_frac, c_haps=c_haps)
        schedule = offload_week(scenario, energy, cons)
        active = schedule.active
        assert active.shape == (HOURS_PER_WEEK, n)
        np.testing.assert_array_equal(n - schedule.offloaded_count, active.sum(axis=1))
        assert schedule.never_active_count == int((~active).all(axis=0).sum())
        caps = scenario.capacities
        for h in range(HOURS_PER_WEEK):
            exact = math.fsum(caps[active[h]])
            if exact == 0.0:
                assert schedule.active_capacity[h] == 0.0
            else:
                assert abs(schedule.active_capacity[h] - exact) <= 1e-12 * exact


class TestScenarioCaches:
    def test_hour_order_built_once_and_read_only(self, small_scenario):
        order = small_scenario.hour_order
        n = small_scenario.n_bs
        assert small_scenario.hour_order is order
        assert order.rank.dtype == np.int32
        assert order.rank.shape == (HOURS_PER_WEEK, n)
        for prefix_sums in (order.cum_rate, order.cum_load, order.cum_cap):
            assert prefix_sums.shape == (HOURS_PER_WEEK, n + 1)
        for array in order:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0

    def test_cum_load_built_once_and_read_only(self, small_scenario, energy, monkeypatch):
        # the per-scenario load and capacity prefix sums serve every EnergyParams and every
        # c_haps; energy needs no table
        cum_load = small_scenario.hour_order.cum_load
        cum_cap = small_scenario.hour_order.cum_cap
        for prefix_sums in (cum_load, cum_cap):
            assert prefix_sums.shape == (HOURS_PER_WEEK, small_scenario.n_bs + 1)
            assert not prefix_sums.flags.writeable
            with pytest.raises(ValueError):
                prefix_sums[0, 0] = 0
        monkeypatch.setattr(offload, "bs_energy", None)
        for params in (energy, EnergyParams(e0=0.3, eta=0.5)):
            for c_haps in (5.0, 50.0):
                cons = OffloadConstraints(min_active_frac=0.0, c_haps=c_haps)
                baseline_energy_per_hour(small_scenario, params)
                offload_week(small_scenario, params, cons)
                assert small_scenario.hour_order.cum_load is cum_load
                assert small_scenario.hour_order.cum_cap is cum_cap

    def test_hour_order_is_the_stable_sort(self, small_scenario):
        # column 0 of each prefix sum is 0, and columns 1: are exactly np.cumsum
        rates, caps = small_scenario.rate_matrix, small_scenario.capacities
        order = small_scenario.hour_order
        for h in (0, 50, 167):
            ascending = np.argsort(rates[:, h], kind="stable")
            np.testing.assert_array_equal(order.rank[h, ascending], np.arange(small_scenario.n_bs))
            loads = rates[ascending, h] / caps[ascending]
            for prefix_sums, values in (
                (order.cum_rate, rates[ascending, h]),
                (order.cum_load, loads),
                (order.cum_cap, caps[ascending]),
            ):
                assert prefix_sums[h, 0] == 0.0
                np.testing.assert_array_equal(prefix_sums[h, 1:], np.cumsum(values))

    def test_baseline_is_the_per_bs_energy_sum(self, small_scenario):
        rates, caps = small_scenario.rate_matrix, small_scenario.capacities
        for params in (EnergyParams(), EnergyParams(e0=0.3, eta=0.5)):
            per_hour = baseline_energy_per_hour(small_scenario, params)
            expected = bs_energy(params, rates, caps[:, None]).sum(axis=0)
            assert per_hour.shape == (HOURS_PER_WEEK,)
            bound = rounding_bound(small_scenario.n_bs, expected)
            assert (np.abs(per_hour - expected) <= bound).all()

    def test_a_new_scenario_has_its_own_caches(self, small_scenario):
        twin = TrafficScenario(rate_matrix=small_scenario.rate_matrix, stats=small_scenario.stats)
        assert "hour_order" not in vars(twin)
        assert twin.hour_order is not small_scenario.hour_order
        np.testing.assert_array_equal(twin.hour_order.rank, small_scenario.hour_order.rank)


class TestBaseline:
    def test_zero_traffic(self, energy):
        import hapsran.traffic as traffic

        stats = traffic.BSStats(peak=0.0, p5=0.0, mean=0.0, capacity=10.0, max_load=1.0)
        scenario = traffic.TrafficScenario(
            rate_matrix=np.zeros((3, HOURS_PER_WEEK)), stats=(stats,) * 3
        )
        assert baseline_energy(scenario, energy) == pytest.approx(
            HOURS_PER_WEEK * 3 * energy.static_energy
        )

    def test_double_loop_oracle(self, small_scenario, energy):
        # independent recomputation, one BS-hour at a time
        expected = 0.0
        for i in range(small_scenario.n_bs):
            cap = small_scenario.stats[i].capacity
            for h in range(HOURS_PER_WEEK):
                expected += bs_energy(energy, small_scenario.rate_matrix[i, h], cap)
        assert baseline_energy(small_scenario, energy) == pytest.approx(expected, rel=1e-12)

    def test_per_hour_sums(self, small_scenario, energy):
        per_hour = baseline_energy_per_hour(small_scenario, energy)
        assert per_hour.shape == (HOURS_PER_WEEK,)
        assert per_hour.sum() == pytest.approx(baseline_energy(small_scenario, energy))


class TestExactOracle:
    def test_oracle_never_worse_than_greedy(self, energy):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            caps = rng.uniform(10, 100, n)
            rates = caps * rng.uniform(0, 0.9, n)
            cons = OffloadConstraints(
                min_active_frac=float(rng.uniform(0, 1)),
                c_haps=float(rng.uniform(0, rates.sum())),
            )
            _, greedy_e, _, _ = offload_hour(rates, caps, energy, cons)
            _, oracle_e = exact_oracle_hour(rates, caps, energy, cons)
            assert oracle_e <= greedy_e + 1e-9

    def test_homogeneous_sleeps_largest_rates(self, energy):
        # energy is affine in rate, so with slack capacity the optimum sleeps
        # the floor((1-l_B)*N) highest-rate BSs
        rates = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        caps = np.full(6, 10.0)
        cons = OffloadConstraints(min_active_frac=0.5, c_haps=1e9)
        active, e = exact_oracle_hour(rates, caps, energy, cons)
        np.testing.assert_array_equal(active, [True, True, True, False, False, False])

    def test_forced_active_single_bs(self, energy):
        cons = OffloadConstraints(min_active_frac=1.0, c_haps=1e9)
        active, e = exact_oracle_hour([5.0], [10.0], energy, cons)
        assert active.all()
        assert e == pytest.approx(bs_energy(energy, 5.0, 10.0))

    def test_instance_too_large(self, energy):
        n = 21
        with pytest.raises(InstanceTooLargeError):
            exact_oracle_hour(np.ones(n), np.full(n, 2.0), energy, OffloadConstraints(c_haps=1.0))

    def test_tie_break_lexicographic(self):
        # zero traffic everywhere: any max-size sleeper set is optimal, so the
        # lexicographically smallest active set must be returned
        params = EnergyParams()
        rates = np.zeros(4)
        caps = np.full(4, 10.0)
        cons = OffloadConstraints(min_active_frac=0.5, c_haps=1e9)
        active, _ = exact_oracle_hour(rates, caps, params, cons)
        np.testing.assert_array_equal(active, [True, True, False, False])


class TestOneFeasibilityTolerance:
    """The greedy and the oracle let the sleepers offload up to c_haps * (1 + OFFLOAD_TOLERANCE).

    Near-equal rates and large capacities make every sleeper save about the same, so the
    optimum sleeps as many BSs as fit; the fewest-rate k BSs fit exactly when their sum
    does.  c_haps is set a little inside or outside the tolerance around that sum, far
    beyond the rounding of either solver's sums and far within the tolerance itself.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        data=st.data(),
        inside=st.booleans(),
    )
    def test_greedy_and_oracle_agree_at_a_near_tie(self, energy, seed, n, data, inside):
        k = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        rates = 1 + 1e-3 * rng.random(n)
        caps = np.full(n, 1e6)
        k_lowest = math.fsum(np.sort(rates)[:k])
        margin = 1e-13 if inside else -1e-13
        c_haps = k_lowest / (1 + offload.OFFLOAD_TOLERANCE) * (1 + margin)
        if inside:
            assert c_haps < k_lowest  # only the tolerance lets the k BSs sleep
        cons = OffloadConstraints(min_active_frac=0.0, c_haps=c_haps)
        _, greedy_e, off_rate, count = offload_hour(rates, caps, energy, cons)
        active, oracle_e = exact_oracle_hour(rates, caps, energy, cons)
        expected = k if inside else k - 1
        assert count == expected
        assert int((~active).sum()) == expected
        assert off_rate <= c_haps * (1 + offload.OFFLOAD_TOLERANCE)
        assert oracle_e <= greedy_e + rounding_bound(n, greedy_e)

    def test_zero_c_haps_lets_only_idle_bss_sleep(self, energy):
        # a relative tolerance on c_haps = 0 admits no traffic at all, however little
        rates, caps = np.array([0.0, 1e-300, 0.0, 2.0]), np.full(4, 10.0)
        cons = OffloadConstraints(min_active_frac=0.0, c_haps=0.0)
        greedy_active, _, off_rate, _ = offload_hour(rates, caps, energy, cons)
        oracle_active, _ = exact_oracle_hour(rates, caps, energy, cons)
        np.testing.assert_array_equal(greedy_active, [False, True, False, True])
        np.testing.assert_array_equal(oracle_active, greedy_active)
        assert off_rate == 0.0


class TestHourIndependence:
    def test_permuting_hours_permutes_energy(self, small_scenario, energy):
        cons = OffloadConstraints(min_active_frac=0.4, c_haps=40.0)
        schedule = offload_week(small_scenario, energy, cons)
        rates = small_scenario.rate_matrix
        caps = small_scenario.capacities
        for h in (0, 17, 100, 167):
            _, e, _, _ = offload_hour(rates[:, h], caps, energy, cons)
            assert e == pytest.approx(schedule.energy_per_hour[h], rel=1e-12)
