import numpy as np
import pytest

from hapsran import (
    InvalidArgumentError,
    LinkParams,
    TrialConfig,
    aggregate_capacity,
    path_loss_db,
    sample_ue_population,
    snr_db,
    ue_rate_bps,
)
from hapsran.hapscapacity import UEPopulation, ue_rates_mbps


def make_cfg(**kw):
    defaults = dict(
        elevation_deg=90.0,
        indoor_frac=0.75,
        traditional_frac=0.5,
        rng_stream=1234,
        ue_density_per_km2=3000.0,
        area_km2=30.0,
        n_carriers=6,
    )
    defaults.update(kw)
    return TrialConfig(**defaults)


class TestSampling:
    def test_default_population_size(self, tables):
        pop = sample_ue_population(make_cfg(), tables)
        assert len(pop) == 90_000

    def test_deterministic(self, tables):
        a = sample_ue_population(make_cfg(), tables)
        b = sample_ue_population(make_cfg(), tables)
        np.testing.assert_array_equal(a.sf_draw, b.sf_draw)
        np.testing.assert_array_equal(a.los, b.los)

    def test_empirical_indoor_fraction(self, tables):
        cfg = make_cfg(indoor_frac=0.72)
        pop = sample_ue_population(cfg, tables)
        assert pop.indoor.mean() == pytest.approx(0.72, abs=0.01)

    def test_indoor_frac_zero_boundary(self, tables, link):
        cfg = make_cfg(indoor_frac=0.0, ue_density_per_km2=100.0)
        pop = sample_ue_population(cfg, tables)
        assert not pop.indoor.any()
        # with nobody indoors, the entry-loss switch has no effect
        with_bel = ue_rates_mbps(link, tables, pop, use_building_entry_loss=True)
        without = ue_rates_mbps(link, tables, pop, use_building_entry_loss=False)
        np.testing.assert_array_equal(with_bel, without)


class TestAggregation:
    def outdoor_population(self, n=100, elevation=90.0):
        return UEPopulation(
            elevation_deg=elevation,
            los=np.ones(n, dtype=bool),
            indoor=np.zeros(n, dtype=bool),
            traditional=np.zeros(n, dtype=bool),
            sf_draw=np.zeros(n),
            bel_p=np.full(n, 0.5),
        )

    def test_all_outdoor_los_golden(self, tables, link):
        cfg = make_cfg()
        pop = self.outdoor_population()
        c = aggregate_capacity(cfg, link, tables, pop)
        assert c == pytest.approx(6 * 222.5, rel=2e-3)

    def test_duplication_invariance(self, tables, link):
        cfg = make_cfg()
        pop = self.outdoor_population()
        doubled = UEPopulation(
            elevation_deg=pop.elevation_deg,
            los=np.concatenate([pop.los, pop.los]),
            indoor=np.concatenate([pop.indoor, pop.indoor]),
            traditional=np.concatenate([pop.traditional, pop.traditional]),
            sf_draw=np.concatenate([pop.sf_draw, pop.sf_draw]),
            bel_p=np.concatenate([pop.bel_p, pop.bel_p]),
        )
        assert aggregate_capacity(cfg, link, tables, doubled) == pytest.approx(
            aggregate_capacity(cfg, link, tables, pop), rel=1e-12
        )

    def test_permutation_invariance(self, tables, link):
        cfg = make_cfg(ue_density_per_km2=50.0)
        pop = sample_ue_population(cfg, tables)
        perm = np.random.default_rng(0).permutation(len(pop))
        shuffled = UEPopulation(
            elevation_deg=pop.elevation_deg,
            los=pop.los[perm],
            indoor=pop.indoor[perm],
            traditional=pop.traditional[perm],
            sf_draw=pop.sf_draw[perm],
            bel_p=pop.bel_p[perm],
        )
        assert aggregate_capacity(cfg, link, tables, shuffled) == pytest.approx(
            aggregate_capacity(cfg, link, tables, pop), rel=1e-9
        )

    def test_strictly_increasing_in_elevation(self, tables, link):
        # common draws, SF and entry loss disabled
        caps = []
        for elevation in (60.0, 70.0, 80.0, 90.0):
            cfg = make_cfg(elevation_deg=elevation, rng_stream=77)
            pop = sample_ue_population(cfg, tables)
            caps.append(
                aggregate_capacity(
                    cfg, link, tables, pop,
                    use_shadow_fading=False, use_building_entry_loss=False,
                )
            )
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_nonincreasing_in_indoor_fraction(self, tables, link):
        caps = []
        for indoor in (0.6, 0.7, 0.8, 0.9):
            cfg = make_cfg(indoor_frac=indoor, rng_stream=42)
            pop = sample_ue_population(cfg, tables)
            caps.append(
                aggregate_capacity(cfg, link, tables, pop, use_shadow_fading=False)
            )
        assert all(b <= a for a, b in zip(caps, caps[1:]))

    def test_aggregation_modes(self, tables, link):
        cfg = make_cfg(ue_density_per_km2=50.0)
        pop = sample_ue_population(cfg, tables)
        mean_c = aggregate_capacity(cfg, link, tables, pop, aggregation="mean")
        median_c = aggregate_capacity(cfg, link, tables, pop, aggregation="median")
        p5_c = aggregate_capacity(cfg, link, tables, pop, aggregation="p5")
        assert p5_c <= median_c
        assert mean_c > 0
        with pytest.raises(InvalidArgumentError):
            aggregate_capacity(cfg, link, tables, pop, aggregation="max")

    @pytest.mark.parametrize(
        "setting, aggregation",
        [
            ({"p_tx_dbm": 1e5}, "mean"),
            ({"p_tx_dbm": 1e5}, "median"),
            ({"p_tx_dbm": 1e5}, "p5"),
            ({"bandwidth_hz": 1e308}, "mean"),
        ],
    )
    def test_overflowing_link_rejected(self, tables, setting, aggregation):
        # finite settings under which the aggregate overflows: no warning, and no inf c_haps
        cfg = make_cfg(ue_density_per_km2=50.0)
        pop = sample_ue_population(cfg, tables)
        with pytest.raises(InvalidArgumentError, match=r"c_haps is (inf|nan) Mbps: the \[link\]"):
            aggregate_capacity(cfg, LinkParams(**setting), tables, pop, aggregation=aggregation)

    @pytest.mark.parametrize("aggregation", ["median", "p5"])
    def test_quantile_of_partly_overflowing_rates_rejected(self, tables, aggregation):
        # only the best UEs' rates overflow, so the quantile, and c_haps, would be finite
        cfg = make_cfg(ue_density_per_km2=50.0)
        pop = sample_ue_population(cfg, tables)
        with pytest.raises(InvalidArgumentError, match=r"a UE's rate is inf Mbps: the \[link\]"):
            aggregate_capacity(cfg, LinkParams(bandwidth_hz=1e308), tables, pop, aggregation=aggregation)

    def test_empty_population_rejected(self, tables, link):
        with pytest.raises(InvalidArgumentError):
            aggregate_capacity(make_cfg(), link, tables, [])


class TestConfigValidation:
    def test_bad_fraction(self):
        with pytest.raises(InvalidArgumentError):
            make_cfg(indoor_frac=1.2)

    def test_bad_carriers(self):
        with pytest.raises(InvalidArgumentError):
            make_cfg(n_carriers=0)


# make_cfg's c_haps (90 000 UEs) at each default elevation, to the bit, as computed when
# snr_db, ue_rate_bps and ue_rates_mbps each held their own copy of the arithmetic
C_HAPS_BITS = {
    60.0: "0x1.54e4c8c6a2379p+8",
    70.0: "0x1.7f1f788d0a34fp+8",
    80.0: "0x1.8ebf9bb4ac60ep+8",
    90.0: "0x1.b1cddcb4ea968p+8",
}


class TestOneRateImplementation:
    @pytest.mark.parametrize("elevation", sorted(C_HAPS_BITS))
    def test_ue_rates_are_the_public_formula(self, tables, link, elevation):
        cfg = make_cfg(elevation_deg=elevation)
        pop = sample_ue_population(cfg, tables)
        expected = ue_rate_bps(link, snr_db(link, path_loss_db(link, tables, pop))) / 1e6
        assert np.array_equal(ue_rates_mbps(link, tables, pop), expected)
        assert aggregate_capacity(cfg, link, tables, pop) == float.fromhex(C_HAPS_BITS[elevation])

    def test_public_functions_leave_their_input_alone(self, link):
        pl = np.array([110.0, 124.49, 140.0])
        snr = snr_db(link, pl)
        np.testing.assert_array_equal(pl, [110.0, 124.49, 140.0])
        copy = snr.copy()
        ue_rate_bps(link, snr)
        np.testing.assert_array_equal(snr, copy)
