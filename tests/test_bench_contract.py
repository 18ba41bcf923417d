"""The names perfbench reaches into must exist, so a rename fails here and not only in
the traced benchmark runs.

perfbench/tracing.py wraps layer functions where their callers look them up, and
perfbench/checks.py reads scenario attributes; neither is part of the package API.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hapsran import build_scenario

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
