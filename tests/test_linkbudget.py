import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtri

from hapsran import (
    InvalidArgumentError,
    LinkParams,
    UEPopulation,
    building_entry_loss_db,
    fspl_db,
    load_channel_tables,
    los_probability,
    path_loss_db,
    slant_range_km,
    snr_db,
    tx_array_gain_dbi,
    ue_rate_bps,
)
from hapsran.hapscapacity import ue_rates_mbps
from hapsran.linkbudget import _BEL_ELEVATION_SLOPE, _BEL_FLOOR_DB, _DB_TO_LN, _EXP_M2, _ndtri


class TestFspl:
    def test_golden(self):
        assert fspl_db(20, 2) == pytest.approx(124.49, abs=0.01)

    def test_logs_vanish(self):
        assert fspl_db(1, 1) == pytest.approx(92.45)

    def test_doubling_distance(self):
        assert fspl_db(40, 2) - fspl_db(20, 2) == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fspl_db(0, 2)
        with pytest.raises(InvalidArgumentError):
            fspl_db(20, -1)


class TestSlantRange:
    def test_zenith(self):
        assert slant_range_km(20, 90) == pytest.approx(20.0)

    def test_thirty_degrees(self):
        assert slant_range_km(20, 30) == pytest.approx(40.0)

    def test_sixty_degrees(self):
        assert slant_range_km(20, 60) == pytest.approx(20 / math.sin(math.radians(60)))
        assert slant_range_km(20, 60) == pytest.approx(23.094, abs=1e-3)

    def test_bad_elevation(self):
        with pytest.raises(InvalidArgumentError):
            slant_range_km(20, 0)


class TestArrayGain:
    def test_golden(self):
        assert tx_array_gain_dbi(8, 1, 4) == pytest.approx(14.0206, abs=1e-4)

    def test_single_element(self):
        assert tx_array_gain_dbi(8, 1, 1) == pytest.approx(8.0)

    def test_array_factor_only(self):
        assert tx_array_gain_dbi(0, 2, 2) == pytest.approx(6.0206, abs=1e-4)


class TestLosProbability:
    def test_bucket_read_back(self, tables):
        assert los_probability(tables, 90) == tables.los_prob[-1]

    def test_monotone_over_buckets(self, tables):
        probs = [los_probability(tables, a) for a in range(10, 91, 10)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert all(0 <= p <= 1 for p in probs)

    def test_nearest_bucket(self, tables):
        assert los_probability(tables, 64.9) == los_probability(tables, 60)
        assert los_probability(tables, 65.1) == los_probability(tables, 70)

    def test_out_of_range(self, tables):
        with pytest.raises(InvalidArgumentError):
            los_probability(tables, 5)


def on_grid(tables, angles):
    n = len(angles)
    return dataclasses.replace(
        tables, angles_deg=tuple(angles), los_prob=(0.5,) * n, sf_sigma_los=(1.0,) * n,
        sf_sigma_nlos=(1.0,) * n, clutter_los=(0.0,) * n, clutter_nlos=(1.0,) * n,
    )


class TestBucketIndex:
    def test_bundled_grid_keeps_its_buckets(self, tables):
        assert tables.angles_deg == (10, 20, 30, 40, 50, 60, 70, 80, 90)
        for e in range(10, 91):
            assert tables.bucket_index(e) == min(max(math.floor(e / 10 + 0.5) - 1, 0), 8)

    def test_custom_grid(self, tables):
        grid = on_grid(tables, [15, 25, 35, 45, 55, 65, 75, 85, 90])
        assert grid.bucket_index(15) == 0
        assert grid.bucket_index(87.5) == 8  # halfway between 85 and 90 goes up

    # half-degree grids make every midpoint exact, so ties are really ties
    @given(
        st.lists(st.integers(0, 180), min_size=1, max_size=12, unique=True),
        st.integers(0, 180),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_nearest_angle_ties_go_up(self, tables, halves, pick, midpoint):
        angles = sorted(h / 2 for h in halves)
        if midpoint and len(angles) > 1:
            i = pick % (len(angles) - 1)
            e = (angles[i] + angles[i + 1]) / 2
        else:
            e = angles[0] + (angles[-1] - angles[0]) * pick / 180
        idx = on_grid(tables, angles).bucket_index(e)
        dist = [abs(e - a) for a in angles]
        assert dist[idx] == min(dist)
        assert idx == max(j for j, d in enumerate(dist) if d == dist[idx])

    @pytest.mark.parametrize("angles", [[90, 80, 70], [10, 20, 20, 30], []])
    def test_unordered_grid_rejected(self, tables, angles):
        with pytest.raises(InvalidArgumentError, match="ascending"):
            on_grid(tables, angles)


class TestBuildingEntryLoss:
    def test_thermally_efficient_exceeds_traditional(self, tables):
        trad = building_entry_loss_db(tables.bel["traditional"], 2, 60, 0.5)
        eff = building_entry_loss_db(tables.bel["thermally_efficient"], 2, 60, 0.5)
        assert eff > trad

    def test_monotone_in_p(self, tables):
        coeffs = tables.bel["traditional"]
        ps = np.linspace(0.01, 0.99, 99)
        losses = building_entry_loss_db(coeffs, 2, 60, ps)
        assert np.all(np.diff(losses) > 0)

    def test_median_matches_cdf_inversion(self, tables):
        # independent oracle: invert the quantile map numerically
        coeffs = tables.bel["traditional"]
        median = building_entry_loss_db(coeffs, 2, 60, 0.5)

        def cdf(x):
            return brentq(
                lambda p: building_entry_loss_db(coeffs, 2, 60, p) - x, 1e-9, 1 - 1e-9
            )

        assert cdf(median) == pytest.approx(0.5, abs=1e-9)

    def test_p_outside_open_interval(self, tables):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(InvalidArgumentError):
                building_entry_loss_db(tables.bel["traditional"], 2, 60, p)


def ues(elevation_deg=90.0, **columns):
    """UE population whose columns default to one outdoor LOS UE with no fading.

    Given columns are broadcast to the length of the longest one.
    """
    defaults = dict(los=True, indoor=False, traditional=False, sf_draw=0.0, bel_p=0.5)
    defaults.update(columns)
    n = max(np.size(v) for v in defaults.values())
    return UEPopulation(
        elevation_deg=elevation_deg,
        **{k: np.broadcast_to(np.asarray(v), (n,)) for k, v in defaults.items()},
    )


class TestPathLoss:
    def test_outdoor_los_zenith_is_pure_fspl(self, tables, link):
        (pl,) = path_loss_db(link, tables, ues())
        assert pl == pytest.approx(fspl_db(20, 2), abs=1e-9)
        assert pl == pytest.approx(124.49, abs=0.01)

    def test_indoor_strictly_greater(self, tables, link):
        outdoor, trad, eff = path_loss_db(
            link, tables, ues(indoor=[False, True, True], traditional=[False, True, False])
        )
        assert trad > outdoor
        assert eff > outdoor

    def test_sf_draw_linearity(self, tables, link):
        hi, lo = path_loss_db(link, tables, ues(sf_draw=[1.0, -1.0]))
        sigma = tables.sf_sigma_los[tables.bucket_index(90)]
        assert hi - lo == pytest.approx(2 * sigma, abs=1e-9)

    def test_nlos_gets_clutter(self, tables, link):
        los, nlos = path_loss_db(link, tables, ues(los=[True, False]))
        idx = tables.bucket_index(90)
        assert nlos - los == pytest.approx(tables.clutter_nlos[idx], abs=1e-9)

    def test_decreasing_in_elevation_outdoor(self, tables, link):
        for los in (True, False):
            pls = [
                path_loss_db(link, tables, ues(elevation_deg=a, los=los))[0]
                for a in (60, 70, 80, 90)
            ]
            assert all(b < a for a, b in zip(pls, pls[1:]))


class TestSnrAndRate:
    def test_golden_chain(self, link):
        assert snr_db(link, 124.49) == pytest.approx(33.49, abs=0.02)

    def test_linearity(self, link):
        assert snr_db(link, 124.49) - snr_db(link, 127.49) == pytest.approx(3.0)
        boosted = LinkParams(p_tx_dbm=link.p_tx_dbm + 5)
        assert snr_db(boosted, 124.49) - snr_db(link, 124.49) == pytest.approx(5.0)

    def test_zero_db_snr_rate(self, link):
        assert ue_rate_bps(link, 0.0) == pytest.approx(20e6)

    def test_golden_rate(self, link):
        assert ue_rate_bps(link, 33.49) / 1e6 == pytest.approx(222.6, abs=0.5)

    def test_rate_vanishes_at_low_snr(self, link):
        assert ue_rate_bps(link, -200.0) == pytest.approx(0.0, abs=1e-3)


def table_doc(tables):
    """The JSON document load_channel_tables reads, as fresh nested lists and dicts."""
    return {
        "environment": tables.environment,
        "band": tables.band,
        "angles_deg": list(tables.angles_deg),
        "los_prob": list(tables.los_prob),
        "sf_sigma": {"los": list(tables.sf_sigma_los), "nlos": list(tables.sf_sigma_nlos)},
        "clutter": {"los": list(tables.clutter_los), "nlos": list(tables.clutter_nlos)},
        "bel": {cls: dict(vars(c)) for cls, c in tables.bel.items()},
    }


class TestTables:
    def test_custom_file_round_trip(self, tables, tmp_path):
        doc = {
            "environment": tables.environment,
            "band": tables.band,
            "angles_deg": list(tables.angles_deg),
            "los_prob": list(tables.los_prob),
            "sf_sigma": {"los": list(tables.sf_sigma_los), "nlos": list(tables.sf_sigma_nlos)},
            "clutter": {"los": list(tables.clutter_los), "nlos": list(tables.clutter_nlos)},
            "bel": {cls: vars(c) for cls, c in tables.bel.items()},
        }
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(doc))
        loaded = load_channel_tables(path)
        assert loaded == tables

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("bel", lambda d: d.pop("bel")),
            ("sf_sigma.nlos", lambda d: d["sf_sigma"].pop("nlos")),
            ("bel.traditional.r", lambda d: d["bel"]["traditional"].pop("r")),
            ("los_prob", lambda d: d["los_prob"].__setitem__(2, "high")),
            ("clutter.los", lambda d: d["clutter"].__setitem__("los", 0.0)),
            ("clutter.nlos", lambda d: d["clutter"]["nlos"].__setitem__(0, math.nan)),
            ("bel.thermally_efficient.w", lambda d: d["bel"]["thermally_efficient"].update(w=None)),
            ("angles_deg", lambda d: d["angles_deg"].__setitem__(0, True)),
            ("bel.traditional", lambda d: d.update(bel=5)),
            ("bel.thermally_efficient", lambda d: d["bel"].pop("thermally_efficient")),
            # unknown keys, at each level
            ("notes", lambda d: d.update(notes="S band")),
            ("sf_sigma.nlso", lambda d: d["sf_sigma"].update(nlso=d["sf_sigma"]["nlos"])),
            ("bel.traditonal", lambda d: d["bel"].update(traditonal=d["bel"]["traditional"])),
            ("bel.traditional.rr", lambda d: d["bel"]["traditional"].update(rr=1.0)),
        ],
    )
    def test_malformed_file_names_key(self, tables, tmp_path, key, edit):
        doc = table_doc(tables)
        edit(doc)
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArgumentError, match=f"'{key}'"):
            load_channel_tables(path)

    def test_reversed_angles_rejected(self, tables, tmp_path):
        doc = table_doc(tables)
        doc["angles_deg"].reverse()
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArgumentError, match="strictly ascending"):
            load_channel_tables(path)

    def test_bad_probability_rejected(self, tables, tmp_path):
        doc = json.loads(
            json.dumps(
                {
                    "environment": "x",
                    "band": "s",
                    "angles_deg": [10],
                    "los_prob": [1.5],
                    "sf_sigma": {"los": [1.0], "nlos": [1.0]},
                    "clutter": {"los": [0.0], "nlos": [1.0]},
                    "bel": {cls: vars(c) for cls, c in tables.bel.items()},
                }
            )
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArgumentError):
            load_channel_tables(path)


def reference_entry_loss_db(coeffs, f_c_ghz, elevation_deg, p):
    """Entry loss in the plain array formulation that building_entry_loss_db evaluates in place.

    Each dB term goes to linear units as exp(x * ln(10) / 10), the library's form of
    10 ** (x / 10); TestNdtri checks _ndtri against scipy on its own.
    """
    lf = math.log10(f_c_ghz)
    mu1 = coeffs.r + coeffs.s * lf + coeffs.t * lf * lf + _BEL_ELEVATION_SLOPE * abs(elevation_deg)
    mu2 = coeffs.w + coeffs.x * lf
    sigma1 = coeffs.u + coeffs.v * lf
    sigma2 = coeffs.y + coeffs.z * lf
    z = _ndtri(p)
    power = np.exp((mu1 + sigma1 * z) * _DB_TO_LN)
    power += np.exp((mu2 + sigma2 * z) * _DB_TO_LN)
    power += math.exp(_BEL_FLOOR_DB * _DB_TO_LN)
    return 10 * np.log10(power)


def reference_path_loss_db(params, tables, pop, use_shadow_fading=True, use_bel=True):
    """Path loss as plain sums and boolean-mask updates, where path_loss_db adds in place
    and updates through index arrays."""
    idx = tables.bucket_index(pop.elevation_deg)
    d = slant_range_km(params.haps_height_km, pop.elevation_deg)
    pl = np.full(len(pop), fspl_db(d, params.f_c_ghz))
    pl += np.where(pop.los, tables.clutter_los[idx], tables.clutter_nlos[idx])
    if use_shadow_fading:
        pl += pop.sf_draw * np.where(pop.los, tables.sf_sigma_los[idx], tables.sf_sigma_nlos[idx])
    if use_bel and np.any(pop.indoor):
        for cls, mask in (
            ("traditional", pop.indoor & pop.traditional),
            ("thermally_efficient", pop.indoor & ~pop.traditional),
        ):
            if np.any(mask):
                pl[mask] += reference_entry_loss_db(
                    tables.bel[cls], params.f_c_ghz, pop.elevation_deg, pop.bel_p[mask]
                )
    return pl


def drawn_population(rng, n, elevation_deg, indoor="mixed", traditional="mixed"):
    """A population whose indoor and traditional columns are all True, all False or mixed."""

    def flags(mode):
        return rng.random(n) < 0.5 if mode == "mixed" else np.full(n, mode == "all")

    return UEPopulation(
        elevation_deg=elevation_deg,
        los=rng.random(n) < 0.5,
        indoor=flags(indoor),
        traditional=flags(traditional),
        sf_draw=rng.standard_normal(n),
        bel_p=np.clip(rng.random(n), 1e-12, 1 - 1e-12),
    )


FLAG_MODES = st.sampled_from(["mixed", "all", "none"])


class TestInPlaceLinkBudget:
    """The in-place link budget must equal its plain formulation bit for bit."""

    @pytest.mark.parametrize(
        "n, indoor, traditional, use_sf, use_bel",
        [
            pytest.param(500, "none", "mixed", True, True, id="all-outdoor"),
            pytest.param(500, "all", "mixed", True, True, id="all-indoor"),
            pytest.param(500, "mixed", "all", True, True, id="no-thermally-efficient"),
            pytest.param(500, "mixed", "none", True, True, id="no-traditional"),
            pytest.param(500, "mixed", "mixed", False, True, id="no-shadow-fading"),
            pytest.param(500, "mixed", "mixed", True, False, id="no-entry-loss"),
            pytest.param(1, "all", "all", True, True, id="one-ue"),
            pytest.param(0, "mixed", "mixed", True, True, id="no-ue"),
        ],
    )
    def test_named_cases(self, tables, link, n, indoor, traditional, use_sf, use_bel):
        pop = drawn_population(np.random.default_rng(n), n, 60.0, indoor, traditional)
        got = path_loss_db(link, tables, pop, use_sf, use_bel)
        assert np.array_equal(got, reference_path_loss_db(link, tables, pop, use_sf, use_bel))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        elevation=st.floats(10.0, 90.0),
        f_c_ghz=st.floats(0.5, 40.0),
        p_tx_dbm=st.floats(0.0, 60.0),
        indoor=FLAG_MODES,
        traditional=FLAG_MODES,
        use_sf=st.booleans(),
        use_bel=st.booleans(),
    )
    def test_drawn_populations(
        self, tables, seed, n, elevation, f_c_ghz, p_tx_dbm, indoor, traditional, use_sf, use_bel
    ):
        link = LinkParams(f_c_ghz=f_c_ghz, p_tx_dbm=p_tx_dbm)
        pop = drawn_population(np.random.default_rng(seed), n, elevation, indoor, traditional)
        expected = reference_path_loss_db(link, tables, pop, use_sf, use_bel)
        assert np.array_equal(path_loss_db(link, tables, pop, use_sf, use_bel), expected)
        rates = ue_rates_mbps(link, tables, pop, use_sf, use_bel)
        assert np.array_equal(rates, ue_rate_bps(link, snr_db(link, expected)) / 1e6)

    def test_integer_table_entries(self, tables, link, tmp_path):
        # a table file's JSON ints stay ints in ChannelTables; the per-UE picks must still be
        # float arrays, which the in-place float terms can be added to
        ints, floats = table_doc(tables), table_doc(tables)
        for group in ("clutter", "sf_sigma"):
            for key, values in ints[group].items():
                ints[group][key] = [round(v) for v in values]
                floats[group][key] = [float(round(v)) for v in values]
        loaded = []
        for name, doc in (("ints", ints), ("floats", floats)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            loaded.append(load_channel_tables(path))
        assert type(loaded[0].clutter_nlos[0]) is int and type(loaded[0].sf_sigma_los[0]) is int
        pop = drawn_population(np.random.default_rng(3), 400, 60.0)
        got = path_loss_db(link, loaded[0], pop)
        assert np.array_equal(got, path_loss_db(link, loaded[1], pop))
        assert np.array_equal(got, reference_path_loss_db(link, loaded[1], pop))

    def test_broadcast_columns(self, tables, link):
        # read-only, zero-stride columns, as a population built by broadcasting has
        pop = ues(
            los=[True, False, False], indoor=[False, True, True], traditional=[True, False, True]
        )
        expected = reference_path_loss_db(link, tables, pop)
        assert np.array_equal(path_loss_db(link, tables, pop), expected)

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.lists(st.floats(1e-12, 1 - 1e-12), min_size=1, max_size=50),
        elevation=st.floats(-90.0, 90.0),
        f_c_ghz=st.floats(0.1, 100.0),
    )
    def test_entry_loss_arrays(self, tables, p, elevation, f_c_ghz):
        p = np.array(p)
        for coeffs in tables.bel.values():
            got = building_entry_loss_db(coeffs, f_c_ghz, elevation, p)
            assert np.array_equal(got, reference_entry_loss_db(coeffs, f_c_ghz, elevation, p))

    @pytest.mark.parametrize("p", [0.5, np.float64(0.25), np.array(0.75)])
    def test_entry_loss_of_a_scalar_is_a_float(self, tables, p):
        coeffs = tables.bel["traditional"]
        loss = building_entry_loss_db(coeffs, 2, 60, p)
        assert type(loss) is float
        assert loss == pytest.approx(float(reference_entry_loss_db(coeffs, 2, 60, p)))

    @pytest.mark.parametrize(
        "p", [0.0, 1.0, [0.5, 0.0], [1.0, 0.5], np.array(0.0), math.nan, [0.5, math.nan]]
    )
    def test_entry_loss_rejects_the_interval_ends(self, tables, p):
        with pytest.raises(InvalidArgumentError, match="open interval"):
            building_entry_loss_db(tables.bel["traditional"], 2, 60, p)

    @pytest.mark.parametrize(
        "f_c_ghz, elevation, match",
        [
            (math.inf, 60, "frequency"),
            (math.nan, 60, "frequency"),
            (2, math.nan, "elevation"),
            (2, -math.inf, "elevation"),
        ],
    )
    def test_entry_loss_rejects_non_finite_settings(self, tables, f_c_ghz, elevation, match):
        with pytest.raises(InvalidArgumentError, match=match):
            building_entry_loss_db(tables.bel["traditional"], f_c_ghz, elevation, [0.5])


def assert_matches_scipy(p):
    """_ndtri(p) equals scipy's ndtri bit for bit on the central branch, and within
    8 ULP on the tails, where np.log and the C library's log may round apart;
    it raises no RuntimeWarning."""
    p = np.asarray(p, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _ndtri(p)
    want = ndtri(p)
    assert got.shape == p.shape
    central = (p > _EXP_M2) & (p <= 1 - _EXP_M2)
    assert np.array_equal(got[central], want[central])
    assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))


class TestNdtri:
    """The numpy port of Cephes ndtri against scipy.special.ndtri, the routine it replaces."""

    def test_seeded_uniform_draws(self):
        assert_matches_scipy(np.random.default_rng(0).random(200_000))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_open_interval(self, p):
        assert_matches_scipy(p)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-300.0, math.log10(_EXP_M2)), st.booleans())
    def test_log_uniform_tails(self, exponent, upper):
        p = 10.0**exponent
        if upper:
            p = 1 - p
            assume(p < 1)
        assert_matches_scipy(p)

    @pytest.mark.parametrize(
        "p",
        [
            np.nextafter(_EXP_M2, 0),
            _EXP_M2,
            np.nextafter(_EXP_M2, 1),
            np.nextafter(1 - _EXP_M2, 0),
            1 - _EXP_M2,
            np.nextafter(1 - _EXP_M2, 1),
            5e-324,
            np.nextafter(1, 0),
            1e-12,
            1 - 1e-12,
            1e-20,  # below exp(-32) = 1.27e-14, so sqrt(-2 log p) >= 8: the far-tail rational
            0.5,
        ],
    )
    def test_named_edges(self, p):
        assert_matches_scipy([p])
        assert_matches_scipy(p)  # 0-d in, 0-d out

    @pytest.mark.parametrize(
        "p",
        [
            np.linspace(0.2, 0.8, 7),
            [1e-3, 0.1, 0.9, 1 - 1e-3],
            [1e-20, 0.3, 1e-3, 5e-324, np.nextafter(1, 0)],  # sqrt(-2 log y) >= 8 for three
            [],
        ],
        ids=["central-only", "tails-only", "far-tails", "empty"],
    )
    def test_arrays_that_reach_some_branches(self, p):
        # a 0-d p of each branch is in test_named_edges
        assert_matches_scipy(p)
