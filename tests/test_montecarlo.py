import dataclasses
import gc
import math
import os
import re
import sys
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from hapsran import (
    EnergyParams,
    InvalidArgumentError,
    OffloadConstraints,
    StudyConfig,
    TrafficScenario,
    build_scenario,
    run_study,
    run_trial,
    sample_trial_config,
)
from hapsran import montecarlo, offload, traffic


@pytest.fixture
def many_cpus(monkeypatch):
    """A machine of 64 CPUs, so that a test's requested worker count is its pool size."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)


@pytest.fixture(scope="module")
def study(small_scenario, tables):
    # low UE density keeps per-trial sampling cheap
    return StudyConfig(
        scenario=small_scenario,
        tables=tables,
        n_trials=8,
        master_seed=5,
        ue_density_per_km2=50.0,
    )


class TestSampleTrialConfig:
    def test_deterministic(self, study):
        a = sample_trial_config(study, 3)
        b = sample_trial_config(study, 3)
        assert a == b

    def test_ranges(self, study):
        for idx in range(study.n_trials):
            cfg = sample_trial_config(study, idx)
            assert cfg.elevation_deg in study.elevation_set
            assert 0.6 <= cfg.indoor_frac <= 0.9
            assert 0.3 <= cfg.traditional_frac <= 0.7

    def test_elevation_concentration(self, small_scenario, tables):
        big = StudyConfig(scenario=small_scenario, tables=tables, n_trials=1000, master_seed=1)
        counts = {}
        for idx in range(1000):
            cfg = sample_trial_config(big, idx)
            counts[cfg.elevation_deg] = counts.get(cfg.elevation_deg, 0) + 1
        for angle in (60.0, 70.0, 80.0, 90.0):
            assert 200 <= counts[angle] <= 300

    def test_out_of_range_index(self, study):
        with pytest.raises(InvalidArgumentError):
            sample_trial_config(study, study.n_trials)


class TestStudyConfig:
    def test_overflowing_full_load_week_rejected(self, small_scenario, tables):
        # finite settings whose all-on week of 40 BSs is not finite fail where they meet
        # the scenario, naming the [energy] settings
        with pytest.raises(InvalidArgumentError, match=r"\[energy\].*e_bb=1e\+305"):
            StudyConfig(small_scenario, tables, energy=EnergyParams(e_bb=1e305))
        StudyConfig(small_scenario, tables, energy=EnergyParams(e_bb=1e300))

    @pytest.mark.parametrize("key", ["n_trials", "master_seed", "n_carriers", "n_workers"])
    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    def test_counts_are_integers(self, small_scenario, tables, key, value):
        with pytest.raises(InvalidArgumentError, match=f"{key} must be an integer, got {value!r}"):
            StudyConfig(small_scenario, tables, **{key: value})

    @pytest.mark.parametrize(
        "density, area", [(1e300, 30.0), (1e17, 30.0), (1e300, 1e300), (1e300, np.float64(1e300))]
    )
    def test_ue_count_numpy_cannot_allocate(self, small_scenario, tables, density, area):
        scenario = TrafficScenario(small_scenario.rate_matrix, small_scenario.stats, area)
        tail = re.escape(f"area_km2 of {area}, got {density!r}")
        match = r"\[study\] ue_density_per_km2 .* " + tail
        with pytest.raises(InvalidArgumentError, match=match):
            StudyConfig(scenario, tables, ue_density_per_km2=density)

    def test_numpy_integers_are_counts(self, small_scenario, tables):
        counts = dict(n_trials=2, master_seed=3, n_carriers=6, n_workers=1)
        StudyConfig(small_scenario, tables, **{k: np.int64(v) for k, v in counts.items()})

    def test_frozen(self, study):
        for f in dataclasses.fields(StudyConfig):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(study, f.name, getattr(study, f.name))

    @pytest.mark.parametrize("key", ["n_trials", "n_workers"])
    def test_replace_checks_again(self, study, key):
        with pytest.raises(InvalidArgumentError, match=f"{key} must be >= 1"):
            dataclasses.replace(study, **{key: 0})


def _same_result(a, b) -> bool:
    """Whether two trial results hold the same values, to the bit."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(montecarlo.TrialResult)
    )


class TestRunTrial:
    def test_every_setting_comes_from_the_study(self, small_scenario, tables):
        # a trial drawn under another study's density and carrier count runs as the study's own
        study_a = StudyConfig(small_scenario, tables, n_trials=1, ue_density_per_km2=100.0)
        study_b = dataclasses.replace(study_a, ue_density_per_km2=500.0, n_carriers=12)
        own = run_trial(study_a, sample_trial_config(study_a, 0))
        assert _same_result(run_trial(study_a, sample_trial_config(study_b, 0)), own)
        assert not _same_result(run_trial(study_b, sample_trial_config(study_b, 0)), own)

    @pytest.mark.parametrize("density", [7.3, 100.0])
    def test_population_size_is_the_studys(self, small_scenario, tables, monkeypatch, density):
        sizes, real = [], montecarlo.sample_ue_population

        def sample(*args):
            pop = real(*args)
            sizes.append(len(pop))
            return pop

        monkeypatch.setattr(montecarlo, "sample_ue_population", sample)
        study = StudyConfig(small_scenario, tables, n_trials=2, ue_density_per_km2=density)
        run_study(study)
        assert sizes == [study.n_ues] * 2
        assert study.n_ues == math.ceil(density * small_scenario.area_km2)

    def test_deterministic(self, study):
        cfg = sample_trial_config(study, 0)
        a = run_trial(study, cfg)
        b = run_trial(study, cfg)
        assert a.c_haps_mbps == b.c_haps_mbps
        np.testing.assert_array_equal(a.energy_per_hour, b.energy_per_hour)

    def test_never_worse(self, study):
        for idx in range(study.n_trials):
            result = run_trial(study, sample_trial_config(study, idx), trial_idx=idx)
            assert result.baseline_energy >= result.total_energy > 0

    def test_bookkeeping_consistency(self, study):
        result = run_trial(study, sample_trial_config(study, 1))
        n = study.scenario.n_bs
        np.testing.assert_array_equal(
            result.active_count_per_hour + result.offloaded_count_per_hour, np.full(168, n)
        )
        assert result.total_energy == pytest.approx(result.energy_per_hour.sum())
        assert 0 <= result.never_active_bs_count <= n


class TestRunStudy:
    def test_trial_count(self, study):
        assert len(run_study(study)) == study.n_trials

    def test_singleton(self, small_scenario, tables):
        tiny = StudyConfig(
            scenario=small_scenario, tables=tables, n_trials=1, ue_density_per_km2=20.0
        )
        assert len(run_study(tiny)) == 1

    def test_parallel_matches_sequential(self, study, many_cpus):
        seq = run_study(study)
        par = run_study(dataclasses.replace(study, n_workers=4))
        for a, b in zip(seq, par):
            assert a.c_haps_mbps == b.c_haps_mbps
            np.testing.assert_array_equal(a.energy_per_hour, b.energy_per_hour)
            np.testing.assert_array_equal(a.offloaded_rate_per_hour, b.offloaded_rate_per_hour)

    def test_workers_share_a_fresh_scenario(self, study, many_cpus):
        # a fresh scenario's hour order is built by whichever worker needs it first
        seq = run_study(study)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                fresh = TrafficScenario(
                    rate_matrix=study.scenario.rate_matrix, stats=study.scenario.stats
                )
                par = run_study(dataclasses.replace(study, scenario=fresh, n_workers=8))
                for a, b in zip(seq, par, strict=True):
                    np.testing.assert_array_equal(a.energy_per_hour, b.energy_per_hour)
                    np.testing.assert_array_equal(
                        a.offloaded_count_per_hour, b.offloaded_count_per_hour
                    )
        finally:
            sys.setswitchinterval(interval)

    def test_a_pooled_study_sorts_the_hours_once(self, study, many_cpus, monkeypatch):
        calls = []  # list.append is atomic, so worker threads can share it
        real_sort_hours = traffic.sort_hours

        def counting(*args):
            calls.append(1)
            return real_sort_hours(*args)

        monkeypatch.setattr(traffic, "sort_hours", counting)
        fresh = TrafficScenario(rate_matrix=study.scenario.rate_matrix, stats=study.scenario.stats)
        run_study(dataclasses.replace(study, scenario=fresh, n_workers=2))
        assert calls == [1]

    def test_one_worker_runs_inline(self, study, many_cpus, monkeypatch):
        pools = []
        real_pool = montecarlo.ThreadPoolExecutor

        def recording_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", recording_pool)
        inline = run_study(study)
        assert pools == []
        pooled = run_study(dataclasses.replace(study, n_workers=2))
        assert pools == [2]
        for a, b in zip(inline, pooled, strict=True):
            np.testing.assert_array_equal(a.energy_per_hour, b.energy_per_hour)

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (64, 8), (1, 1), (None, 1)])
    def test_the_pool_is_bounded_by_the_cpus(self, study, monkeypatch, cpus, workers):
        # a million workers are asked for; the stand-in pool runs each call in this thread,
        # so no thread starts even if the bound fails
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def map(self, fn, iterable):
                return map(fn, iterable)

        inline = run_study(study)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        many = dataclasses.replace(study, n_workers=10**6)
        assert many.workers == workers
        results = run_study(many)
        assert sizes == ([workers] if workers > 1 else [])  # one worker runs inline
        for a, b in zip(inline, results, strict=True):
            np.testing.assert_array_equal(a.energy_per_hour, b.energy_per_hour)

    def test_study_makes_no_bs_energy_call(self, study, monkeypatch):
        # hours are priced from the scenario's load prefix sums, not from per-BS energies
        calls = []  # list.append is atomic, so worker threads can share it
        real_bs_energy = offload.bs_energy

        def counting(*args, **kwargs):
            calls.append(1)
            return real_bs_energy(*args, **kwargs)

        monkeypatch.setattr(offload, "bs_energy", counting)
        for n_trials in (4, 8):
            for workers in (1, 2):
                fresh = TrafficScenario(  # a scenario of its own, so its hour order is built here
                    rate_matrix=study.scenario.rate_matrix, stats=study.scenario.stats
                )
                results = run_study(
                    dataclasses.replace(study, scenario=fresh, n_trials=n_trials, n_workers=workers)
                )
                assert len(results) == n_trials
        assert calls == []

    def test_every_trial_baseline_is_baseline_energy_per_hour(self, study):
        expected = offload.baseline_energy_per_hour(study.scenario, study.energy)
        for r in run_study(study):
            assert r.baseline_energy_per_hour.tobytes() == expected.tobytes()
            assert r.baseline_energy == float(expected.sum())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_study_does_not_pin_its_scenario(self, study, workers):
        fresh = TrafficScenario(rate_matrix=study.scenario.rate_matrix, stats=study.scenario.stats)
        results = run_study(dataclasses.replace(study, scenario=fresh, n_workers=workers))
        ref = weakref.ref(fresh)
        del fresh
        gc.collect()
        assert ref() is None
        assert len(results) == study.n_trials

    def test_trial_independence(self, study):
        # results do not depend on which other trials are run
        full = run_study(study)
        cfg = sample_trial_config(study, 4)
        alone = run_trial(study, cfg, trial_idx=4)
        assert alone.c_haps_mbps == full[4].c_haps_mbps
        np.testing.assert_array_equal(alone.energy_per_hour, full[4].energy_per_hour)


class TestPairedMonotonicity:
    def test_elevation_raises_capacity_and_lowers_energy(self, small_scenario, tables):
        study = StudyConfig(
            scenario=small_scenario,
            tables=tables,
            n_trials=1,
            ue_density_per_km2=200.0,
            use_shadow_fading=False,
        )
        base_cfg = sample_trial_config(study, 0)
        results = []
        for elevation in (60.0, 70.0, 80.0, 90.0):
            cfg = dataclasses.replace(base_cfg, elevation_deg=elevation)
            results.append(run_trial(study, cfg))
        caps = [r.c_haps_mbps for r in results]
        energies = [r.total_energy for r in results]
        assert all(b > a for a, b in zip(caps, caps[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


class TestDefaultStudyIsCapacityBound:
    def test_no_hour_reaches_the_count_floor(self, tables):
        # the default scenario and 100 trials at master seed 0: every trial's c_haps runs
        # out before the active-count floor of 384 BSs (576 sleepers) is reached, in every
        # hour, so min_active_frac changes nothing in the default study
        scenario = build_scenario(1419, 960, seed=42)
        study = StudyConfig(scenario=scenario, tables=tables, n_trials=100, master_seed=0)
        results = run_study(study)
        k_max = OffloadConstraints(min_active_frac=study.min_active_frac).max_offloadable(960)
        assert k_max == 576
        counts = np.array([r.offloaded_count_per_hour for r in results])
        assert counts.shape == (100, 168) and counts.max() < k_max
        # the floor would bind only where c_haps reaches the 576 quietest BSs' sum
        largest_c_haps = max(r.c_haps_mbps for r in results)
        floor_rate = scenario.hour_order.cum_rate[:, k_max].min()
        assert largest_c_haps == pytest.approx(622.9, abs=0.05)
        assert floor_rate == pytest.approx(2339.0, abs=0.05)
