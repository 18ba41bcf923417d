import csv
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapsran import (
    StudyConfig,
    TrafficScenario,
    UndefinedMetricError,
    build_scenario,
    run_study,
    run_trial,
    sample_trial_config,
)
from hapsran import montecarlo
from hapsran.metrics import (
    DEFAULT_MASKS,
    NIGHT_MASK,
    WEEK_MASK,
    WEEKDAY_MASK,
    WEEKEND_MASK,
    PeriodMask,
    energy_saving,
    sorted_saving_curves,
    study_config_digest,
    write_figure2_csv,
    write_figure3_csv,
    write_figure45_csv,
    write_trials_csv,
)
from hapsran.montecarlo import TrialResult
from hapsran.traffic import HOURS_PER_WEEK


def hourly_demand(scenario: TrafficScenario, hour: int) -> float:
    """The hour's summed rate: the last column of its running sum in rate order."""
    return float(scenario.hour_order.cum_rate[hour, -1])


def offloaded_fraction(result: TrialResult, scenario: TrafficScenario, hour: int) -> float:
    """Share of the hour's total demand carried by the HAPS."""
    total = hourly_demand(scenario, hour)
    if total <= 0:
        raise UndefinedMetricError(f"zero traffic demand at hour {hour}")
    return float(result.offloaded_rate_per_hour[hour]) / total


def capacity_utilization(result: TrialResult, scenario: TrafficScenario, hour: int) -> float:
    """Total demand over combined HAPS plus active terrestrial capacity."""
    denom = result.c_haps_mbps + float(result.active_capacity_per_hour[hour])
    if denom <= 0:
        raise UndefinedMetricError(f"zero available capacity at hour {hour}")
    return hourly_demand(scenario, hour) / denom


def toy_result(energy_ph, baseline_ph, **kw):
    energy_ph = np.asarray(energy_ph, dtype=float)
    baseline_ph = np.asarray(baseline_ph, dtype=float)
    defaults = dict(
        trial_idx=0,
        elevation_deg=90.0,
        indoor_frac=0.7,
        traditional_frac=0.5,
        c_haps_mbps=40.0,
        total_energy=float(energy_ph.sum()),
        baseline_energy=float(baseline_ph.sum()),
        energy_per_hour=energy_ph,
        baseline_energy_per_hour=baseline_ph,
        offloaded_rate_per_hour=np.zeros(HOURS_PER_WEEK),
        offloaded_count_per_hour=np.zeros(HOURS_PER_WEEK, dtype=int),
        active_count_per_hour=np.full(HOURS_PER_WEEK, 2),
        active_capacity_per_hour=np.full(HOURS_PER_WEEK, 60.0),
        never_active_bs_count=0,
    )
    defaults.update(kw)
    return TrialResult(**defaults)


@pytest.fixture(scope="module")
def study_results(small_scenario, tables):
    study = StudyConfig(
        scenario=small_scenario,
        tables=tables,
        n_trials=6,
        master_seed=3,
        ue_density_per_km2=100.0,
    )
    return study, run_study(study)


class TestMasks:
    def test_partition(self):
        assert set(WEEKDAY_MASK.hours) | set(WEEKEND_MASK.hours) == set(WEEK_MASK.hours)
        assert not set(WEEKDAY_MASK.hours) & set(WEEKEND_MASK.hours)

    def test_night_hours(self):
        assert len(NIGHT_MASK.hours) == 42  # 6 hours x 7 days
        assert all(h % 24 <= 5 for h in NIGHT_MASK.hours)

    def test_empty_mask_rejected(self):
        from hapsran.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            PeriodMask("empty", ())


class TestEnergySaving:
    def test_no_offload_gives_zero(self):
        base = np.full(HOURS_PER_WEEK, 2.0)
        result = toy_result(base, base)
        assert energy_saving(result, WEEK_MASK) == pytest.approx(0.0)

    def test_degenerate_floor(self):
        # all BSs asleep with e0 = 0: strategy energy vanishes
        base = np.full(HOURS_PER_WEEK, 2.0)
        result = toy_result(np.zeros(HOURS_PER_WEEK), base, total_energy=1e-12)
        assert energy_saving(result, WEEK_MASK) == pytest.approx(1.0)

    def test_hand_computed_toy(self):
        # 2 BSs, 2 relevant hours: baseline 1.0+1.4, strategy 0.9+0.9
        energy_ph = np.full(HOURS_PER_WEEK, 2.0)
        baseline_ph = np.full(HOURS_PER_WEEK, 2.0)
        energy_ph[0], energy_ph[1] = 0.9, 0.9
        baseline_ph[0], baseline_ph[1] = 1.0, 1.4
        result = toy_result(energy_ph, baseline_ph)
        mask = PeriodMask("toy", (0, 1))
        assert energy_saving(result, mask) == pytest.approx(1 - 1.8 / 2.4)

    def test_mask_additivity(self, study_results):
        _, results = study_results
        for r in results:
            weekday_base = r.baseline_energy_per_hour[WEEKDAY_MASK.index].sum()
            weekend_base = r.baseline_energy_per_hour[WEEKEND_MASK.index].sum()
            week_saving = energy_saving(r, WEEK_MASK)
            blended = (
                weekday_base * energy_saving(r, WEEKDAY_MASK)
                + weekend_base * energy_saving(r, WEEKEND_MASK)
            ) / (weekday_base + weekend_base)
            assert week_saving == pytest.approx(blended, rel=1e-9)


class TestOffloadedFraction:
    def test_boundaries(self, small_scenario):
        total0 = small_scenario.rate_matrix[:, 0].sum()
        nothing = toy_result(np.ones(HOURS_PER_WEEK), np.full(HOURS_PER_WEEK, 2.0))
        assert offloaded_fraction(nothing, small_scenario, 0) == 0.0
        everything = toy_result(
            np.ones(HOURS_PER_WEEK),
            np.full(HOURS_PER_WEEK, 2.0),
            offloaded_rate_per_hour=np.full(HOURS_PER_WEEK, total0),
        )
        assert offloaded_fraction(everything, small_scenario, 0) == pytest.approx(1.0)

    def test_hand_computed(self, small_scenario):
        # rates [1,2,3], first two offloaded -> 3/6
        total0 = small_scenario.rate_matrix[:, 0].sum()
        result = toy_result(
            np.ones(HOURS_PER_WEEK),
            np.full(HOURS_PER_WEEK, 2.0),
            offloaded_rate_per_hour=np.full(HOURS_PER_WEEK, total0 / 2),
        )
        assert offloaded_fraction(result, small_scenario, 0) == pytest.approx(0.5)


class TestEveryBSAsleep:
    @given(
        sizes=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        seed=st.integers(0, 2**16),
        # c_haps as a multiple of the busiest hour's demand: below 1 only the quieter hours
        # put every BS to sleep
        multiple=st.one_of(st.just(1.0), st.floats(1, 8), st.floats(0.3, 1), st.just(math.inf)),
    )
    @settings(max_examples=60, deadline=None)
    def test_offloaded_fraction_is_one_when_all_sleep(self, tables, sizes, seed, multiple):
        scenario = build_scenario(*sizes, seed=seed)
        demand = scenario.hour_order.cum_rate[:, -1]
        c_haps = multiple * float(demand.max())
        study = StudyConfig(
            scenario=scenario, tables=tables, n_trials=1, min_active_frac=0.0,
            ue_density_per_km2=1.0,
        )
        with mock.patch.object(montecarlo, "aggregate_capacity", return_value=c_haps):
            result = run_trial(study, sample_trial_config(study, 0))
        asleep = result.offloaded_count_per_hour == scenario.n_bs
        if multiple >= 1:
            assert asleep.all()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f45.csv"
            write_figure45_csv(path, [result], scenario)
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        fractions = [float(row[2]) for row in rows]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert [row[2] for row, on in zip(rows, asleep) if on] == ["1.0"] * int(asleep.sum())


class TestCapacityUtilization:
    def test_hand_computed(self, small_scenario):
        demand0 = small_scenario.rate_matrix[:, 0].sum()
        result = toy_result(
            np.ones(HOURS_PER_WEEK),
            np.full(HOURS_PER_WEEK, 2.0),
            c_haps_mbps=demand0 * 0.8,
            active_capacity_per_hour=np.full(HOURS_PER_WEEK, demand0 * 1.2),
        )
        assert capacity_utilization(result, small_scenario, 0) == pytest.approx(0.5)

    def test_never_exceeds_one_under_feasible_schedules(self, study_results):
        study, results = study_results
        for r in results:
            for h in range(0, HOURS_PER_WEEK, 13):
                u = capacity_utilization(r, study.scenario, h)
                assert 0 <= u <= 1

    def test_zero_denominator(self, small_scenario):
        result = toy_result(
            np.ones(HOURS_PER_WEEK),
            np.full(HOURS_PER_WEEK, 2.0),
            c_haps_mbps=0.0,
            active_capacity_per_hour=np.zeros(HOURS_PER_WEEK),
        )
        with pytest.raises(UndefinedMetricError):
            capacity_utilization(result, small_scenario, 0)


class TestSortedCurves:
    def test_single_trial(self, study_results):
        _, results = study_results
        curves = sorted_saving_curves(results[:1])
        assert all(len(c) == 1 for c in curves.values())

    def test_monotone_along_rank(self, study_results):
        _, results = study_results
        curves = sorted_saving_curves(results)
        for curve in curves.values():
            assert np.all(np.diff(curve) >= 0)

    def test_mask_names(self, study_results):
        _, results = study_results
        assert set(sorted_saving_curves(results)) == {m.name for m in DEFAULT_MASKS}


class TestCsvWriters:
    def test_headers_and_shapes(self, study_results, tmp_path):
        study, results = study_results
        write_figure2_csv(tmp_path / "f2.csv", results)
        write_figure3_csv(tmp_path / "f3.csv", results)
        write_figure45_csv(tmp_path / "f45.csv", results, study.scenario)
        write_trials_csv(tmp_path / "trials.csv", results)
        f2 = (tmp_path / "f2.csv").read_text().splitlines()
        assert f2[0] == "rank,week,night,weekday,weekend"
        assert len(f2) == 1 + len(results)
        f3 = (tmp_path / "f3.csv").read_text().splitlines()
        assert f3[0] == "trial,elevation,indoor_frac,traditional_frac,saving"
        f45 = (tmp_path / "f45.csv").read_text().splitlines()
        assert f45[0] == "trial,hour,offloaded_frac,utilization"
        assert len(f45) == 1 + len(results) * HOURS_PER_WEEK

    def test_figure45_bytes_are_the_per_hour_metrics(self, study_results, tmp_path):
        # the writer takes a trial's ratios as arrays; the scalar metrics through csv.writer
        # are the reference for its bytes
        study, results = study_results
        write_figure45_csv(tmp_path / "f45.csv", results, study.scenario)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["trial", "hour", "offloaded_frac", "utilization"])
        for r in results:
            for h in range(HOURS_PER_WEEK):
                writer.writerow([
                    r.trial_idx,
                    h,
                    repr(offloaded_fraction(r, study.scenario, h)),
                    repr(capacity_utilization(r, study.scenario, h)),
                ])
        assert (tmp_path / "f45.csv").read_bytes() == expected.getvalue().encode()

    def test_figure45_names_an_hour_without_capacity(self, small_scenario, tmp_path):
        capacity = np.full(HOURS_PER_WEEK, 60.0)
        capacity[5] = 0.0
        result = toy_result(
            np.ones(HOURS_PER_WEEK),
            np.full(HOURS_PER_WEEK, 2.0),
            c_haps_mbps=0.0,
            active_capacity_per_hour=capacity,
        )
        with pytest.raises(UndefinedMetricError, match="capacity at hour 5"):
            write_figure45_csv(tmp_path / "f45.csv", [result], small_scenario)

    def test_figure45_names_an_hour_without_demand(self, small_scenario, tmp_path):
        rates = np.array(small_scenario.rate_matrix)
        rates[:, 7] = 0.0
        quiet = TrafficScenario(rate_matrix=rates, stats=small_scenario.stats)
        result = toy_result(np.ones(HOURS_PER_WEEK), np.full(HOURS_PER_WEEK, 2.0))
        with pytest.raises(UndefinedMetricError, match="demand at hour 7"):
            write_figure45_csv(tmp_path / "f45.csv", [result], quiet)


class TestConfigDigest:
    def test_swapping_two_bs_rows_changes_digest(self, study_results):
        study, _ = study_results
        scenario = study.scenario
        rates = np.array(scenario.rate_matrix)
        caps = np.array([s.max_load * s.capacity for s in scenario.stats])
        # two BSs whose weeks each fit under the other's cap
        i, j = next(
            (i, j)
            for i in range(scenario.n_bs)
            for j in range(i + 1, scenario.n_bs)
            if rates[i].max() <= caps[j] and rates[j].max() <= caps[i]
            and not np.array_equal(rates[i], rates[j])
        )
        rates[[i, j]] = rates[[j, i]]
        swapped = TrafficScenario(rate_matrix=rates, stats=scenario.stats)
        assert swapped.n_bs == scenario.n_bs
        assert swapped.rate_matrix.sum() == scenario.rate_matrix.sum()
        other = StudyConfig(**{**vars(study), "scenario": swapped})
        assert study_config_digest(other) != study_config_digest(study)
