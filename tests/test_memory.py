"""The byte models behind the memory guards, measured with tracemalloc.

Each model is a constant beside the code whose arrays it counts, and each test measures
those arrays at the largest case found and requires the constant to cover it, within 15%.
The first call of a path is made before tracing starts, so that one-time allocations
(numpy's lazy imports, the scenario's cached hour order) are not counted per item.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from hapsran import _numeric, build_scenario
from hapsran.errors import InvalidArgumentError
from hapsran.hapscapacity import AGGREGATIONS, BYTES_PER_UE
from hapsran.montecarlo import (
    BYTES_PER_RESULT,
    StudyConfig,
    run_study,
    run_trial,
    sample_trial_config,
)
from hapsran.traffic import BYTES_PER_BUILD_ROW


def traced(call):
    """call's result, the peak traced bytes above the start and the bytes it left traced."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, current - start


def assert_covers(model, measured):
    assert measured <= model < 1.15 * measured, (model, measured)


@pytest.fixture(scope="module")
def scenario(small_scenario):
    small_scenario.hour_order  # built once per scenario, before any trial
    return small_scenario


class TestUEModel:
    # one building class holding every UE makes its index, gather and entry-loss buffers
    # span the whole population: the worst case, above any default-prior trial
    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    @pytest.mark.parametrize(
        "indoor, traditional", [(1.0, 0.0), (1.0, 1.0), (0.9, 0.3), (0.9, 0.7), (0.0, 0.0)]
    )
    def test_a_trial_peaks_within_the_model(self, scenario, tables, aggregation, indoor, traditional):
        study = StudyConfig(scenario, tables, n_trials=1, ue_density_per_km2=1000.0,
                            aggregation=aggregation)
        assert study.n_ues == 30_000
        cfg = replace(sample_trial_config(study, 0), elevation_deg=60.0,
                      indoor_frac=indoor, traditional_frac=traditional)
        run_trial(study, cfg)
        _, peak, _ = traced(lambda: run_trial(study, cfg))
        assert peak <= BYTES_PER_UE * study.n_ues
        if indoor == 1.0:
            assert_covers(BYTES_PER_UE, peak / study.n_ues)


class TestResultModel:
    @pytest.mark.parametrize("n_trials", [50, 200])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_kept_results_within_the_model(self, scenario, tables, n_trials, n_workers):
        study = StudyConfig(scenario, tables, n_trials=n_trials, ue_density_per_km2=10.0,
                            n_workers=n_workers)
        run_study(replace(study, n_trials=1))
        results, _, kept = traced(lambda: run_study(study))
        assert len(results) == n_trials
        assert_covers(BYTES_PER_RESULT, kept / n_trials)


class TestBuildModel:
    @pytest.mark.parametrize(
        "n_bases, m_targets, worst", [(10_000, 10, True), (10, 10_000, False), (1419, 960, False)]
    )
    def test_a_build_peaks_within_the_model(self, n_bases, m_targets, worst):
        build_scenario(5, 5, seed=1)
        _, peak, _ = traced(lambda: build_scenario(n_bases, m_targets, seed=1))
        per_row = peak / (n_bases + m_targets)
        assert per_row <= BYTES_PER_BUILD_ROW
        if worst:  # a base row costs more than a target row
            assert_covers(BYTES_PER_BUILD_ROW, per_row)


class TestLibraryCallers:
    """The guards sit in the constructors, so a library caller gets the error that the
    CLI turns into exit 2, not numpy's MemoryError."""

    @pytest.fixture(autouse=True)
    def one_mebibyte(self, monkeypatch):
        monkeypatch.setattr(_numeric, "physical_memory_bytes", lambda: 1 << 20)

    def test_study_ues(self, small_scenario, tables):
        with pytest.raises(InvalidArgumentError, match=r"\[study\] ue_density_per_km2"):
            StudyConfig(small_scenario, tables, n_trials=1)

    def test_study_results(self, small_scenario, tables):
        with pytest.raises(InvalidArgumentError, match=r"\[study\] trials .* 200 trials"):
            StudyConfig(small_scenario, tables, n_trials=200, ue_density_per_km2=10.0)

    def test_build(self):
        with pytest.raises(InvalidArgumentError, match=r"\[scenario\] n_bases and m_targets"):
            build_scenario(1000, 10, seed=1)
