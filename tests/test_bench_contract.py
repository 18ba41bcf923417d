"""The names perfbench reaches into must exist, and the study must still call them,
so a rename or a detour fails here and not only in the traced benchmark runs.

perfbench/tracing.py wraps layer functions where their callers look them up, and
perfbench/checks.py reads scenario attributes; neither is part of the package API.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hapsran import StudyConfig, build_scenario, load_channel_tables, montecarlo, run_study

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the perfbench directory untouched
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)
        sys.dont_write_bytecode = saved


def test_patch_sites_exist(tracing):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.patch_sites()
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_scenario_attributes(tracing):
    scenario = build_scenario(8, 3, seed=5)
    assert all(trace.values.shape == (168,) for trace in scenario.traces)
    assert tracing._retained_bytes(scenario) == scenario.rate_matrix.nbytes
    peaks = [s.peak for s in scenario.stats]
    np.testing.assert_allclose(peaks, scenario.rate_matrix.max(axis=1), rtol=1e-9)


@pytest.mark.parametrize("workers", [1, 2])
def test_study_calls_each_traced_trial_layer_once_per_trial(monkeypatch, workers):
    # per-layer metrics read these wrapped names; a trial that routed around one would
    # make its metric read 0 instead of failing
    calls = []  # list.append is atomic, so worker threads can share it

    def counting(name):
        inner = getattr(montecarlo, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return wrapper

    # baseline_energy_per_hour is priced per trial from the cached load prefix sums, so
    # offload.baseline_calls reads n_trials per study call
    names = (
        "offload_week", "baseline_energy_per_hour", "sample_ue_population", "aggregate_capacity"
    )
    for name in names:
        monkeypatch.setattr(montecarlo, name, counting(name))
    study = StudyConfig(
        scenario=build_scenario(8, 3, seed=5),
        tables=load_channel_tables(),
        n_trials=4,
        ue_density_per_km2=10.0,
        n_workers=workers,
    )
    assert len(run_study(study)) == 4
    assert Counter(calls) == dict.fromkeys(names, 4)
