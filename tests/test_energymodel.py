import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hapsran import (
    EnergyParams,
    InvalidArgumentError,
    LoadExceedsCapacityError,
    bs_energy,
    sleep_energy,
)


def test_zero_load_is_static_sum(energy):
    assert bs_energy(energy, 0.0, 100.0) == pytest.approx(
        energy.e0 + energy.e_bb + energy.e_tran + energy.e_pa
    )


def test_full_load_unit_efficiency():
    params = EnergyParams(eta=1.0)
    expected = params.static_energy + params.p_tx_w * params.dt_s
    assert bs_energy(params, 100.0, 100.0) == pytest.approx(expected)


def test_normalized_half_load(energy):
    # e0+e_bb+e_tran+e_pa + (1/0.3)*0.3*0.5 = 0.7 + 0.5
    assert bs_energy(energy, 50.0, 100.0) == pytest.approx(1.2)


def test_sleep_energy(energy):
    assert sleep_energy(energy) == pytest.approx(0.2)
    assert sleep_energy(EnergyParams(e0=0.0)) == 0.0


def test_rate_above_capacity_rejected(energy):
    with pytest.raises(LoadExceedsCapacityError):
        bs_energy(energy, 101.0, 100.0)


def test_bad_capacity_rejected(energy):
    with pytest.raises(InvalidArgumentError):
        bs_energy(energy, 1.0, 0.0)


def test_vectorized(energy):
    rates = np.array([0.0, 50.0, 100.0])
    caps = np.full(3, 100.0)
    out = bs_energy(energy, rates, caps)
    np.testing.assert_allclose(out, [0.7, 1.2, 1.7])


@given(st.floats(0, 1), st.floats(0, 1))
def test_affine_monotone_in_rate(load_a, load_b):
    params = EnergyParams()
    ea = bs_energy(params, load_a * 10, 10.0)
    eb = bs_energy(params, load_b * 10, 10.0)
    if load_a < load_b:
        assert ea <= eb
        # strict once the load gap survives the addition to the static terms
        if params.static_energy + params.full_load_dynamic * load_a < (
            params.static_energy + params.full_load_dynamic * load_b
        ):
            assert ea < eb
    # load-only dependence: same load, different capacity, same energy
    assert bs_energy(params, load_a * 500, 500.0) == pytest.approx(ea)


@given(st.floats(0, 1))
def test_sleep_never_worse(load):
    params = EnergyParams()
    assert sleep_energy(params) <= bs_energy(params, load * 42.0, 42.0)


@pytest.mark.parametrize(
    "settings, term",
    [
        ({"p_tx_w": 1e308}, "p_tx_w * dt_s / eta"),
        ({"e_bb": 1e308, "e_pa": 1e308}, "e0 + e_bb + e_tran + e_pa"),
    ],
    ids=["full_load_dynamic", "static_energy"],
)
def test_overflowing_derived_term_names_its_settings(settings, term):
    # every setting is finite, but the term built from them is not
    with pytest.raises(InvalidArgumentError, match=re.escape(f"[energy] {term} overflows")):
        EnergyParams(**settings)
