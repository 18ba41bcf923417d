"""UE population sampling and aggregation into the scalar HAPS capacity.

Each trial deploys a dense UE population, evaluates every UE's downlink rate
through the link budget, and condenses the result into one capacity figure:
carriers times the aggregate per-UE rate.  Indoor/traditional/LOS flags are
assigned by thresholding shared uniform draws so that parameter sweeps under
common random numbers are monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .linkbudget import (
    ChannelTables,
    LinkParams,
    _rate_bps_into,
    _snr_db_into,
    building_entry_loss_db,
    fspl_db,
    los_probability,
    slant_range_km,
)

AGGREGATIONS = ("mean", "median", "p5")  # the first is the default
# both impairments are modelled unless a debugging run switches them off
SHADOW_FADING = True
BUILDING_ENTRY_LOSS = True

SeedLike = int | tuple[int, ...]


@dataclass(frozen=True)
class TrialConfig:
    """Sampled parameters of one Monte Carlo trial."""

    elevation_deg: float
    indoor_frac: float
    traditional_frac: float
    rng_stream: SeedLike
    ue_density_per_km2: float
    area_km2: float
    n_carriers: int

    def __post_init__(self):
        if not 0 <= self.indoor_frac <= 1 or not 0 <= self.traditional_frac <= 1:
            raise InvalidArgumentError("fractions must be in [0,1]")
        if self.n_carriers < 1:
            raise InvalidArgumentError("n_carriers must be >= 1")
        if self.ue_density_per_km2 <= 0 or self.area_km2 <= 0:
            raise InvalidArgumentError("density and area must be positive")


@dataclass(frozen=True)
class UEPopulation:
    """Column-wise random features of one trial's UEs, all at one elevation."""

    elevation_deg: float
    los: np.ndarray
    indoor: np.ndarray
    traditional: np.ndarray
    sf_draw: np.ndarray
    bel_p: np.ndarray

    def __len__(self) -> int:
        return len(self.los)


def _seed_sequence(stream: SeedLike) -> np.random.SeedSequence:
    entropy = list(stream) if isinstance(stream, tuple) else [stream]
    return np.random.SeedSequence(entropy)


def sample_ue_population(cfg: TrialConfig, tables: ChannelTables) -> UEPopulation:
    """Draw the trial's UE features, deterministic per rng_stream.

    Separate sub-streams feed the categorical thresholds, the shadow-fading
    draws and the entry-loss probabilities, so paired experiments can hold
    individual noise sources fixed.
    """
    n = math.ceil(cfg.ue_density_per_km2 * cfg.area_km2)
    pop_ss, sf_ss, bel_ss = _seed_sequence(cfg.rng_stream).spawn(3)
    rng = np.random.default_rng(pop_ss)
    # each uniform is thresholded as soon as it is drawn, so only its flags stay alive
    los = rng.random(n) < los_probability(tables, cfg.elevation_deg)
    indoor = rng.random(n) < cfg.indoor_frac
    traditional = rng.random(n) < cfg.traditional_frac
    sf = np.random.default_rng(sf_ss).standard_normal(n)
    bel_p = np.random.default_rng(bel_ss).random(n)
    np.clip(bel_p, 1e-12, 1 - 1e-12, out=bel_p)  # keep draws in the open interval
    return UEPopulation(
        elevation_deg=cfg.elevation_deg,
        los=los,
        indoor=indoor,
        traditional=traditional,
        sf_draw=sf,
        bel_p=bel_p,
    )


def path_loss_db(
    params: LinkParams,
    tables: ChannelTables,
    pop: UEPopulation,
    use_shadow_fading: bool = SHADOW_FADING,
    use_building_entry_loss: bool = BUILDING_ENTRY_LOSS,
) -> np.ndarray:
    """Per-UE total path loss in dB: FSPL over the slant range, the elevation
    bucket's clutter and shadow fading per LOS state, and entry loss indoors."""
    idx = tables.bucket_index(pop.elevation_deg)
    d = slant_range_km(params.haps_height_km, pop.elevation_deg)
    los = np.asarray(pop.los, dtype=bool).view(np.uint8)

    def per_ue(nlos_table, los_table) -> np.ndarray:
        """Each UE's entry of the bucket for its LOS state: a 2-entry take on 0/1 flags."""
        # the flags are in range, so clip only skips take's per-index bounds check
        return np.take(np.array([nlos_table[idx], los_table[idx]], dtype=float), los, mode="clip")

    # each term is added in place, as in fspl + clutter + sigma * draw + entry loss
    pl = per_ue(tables.clutter_nlos, tables.clutter_los)
    pl += fspl_db(d, params.f_c_ghz)
    if use_shadow_fading:
        sigma = per_ue(tables.sf_sigma_nlos, tables.sf_sigma_los)
        sigma *= pop.sf_draw
        pl += sigma
    if use_building_entry_loss:
        for cls, in_class in (
            ("traditional", pop.indoor & pop.traditional),
            ("thermally_efficient", pop.indoor & ~pop.traditional),
        ):
            ues = np.flatnonzero(in_class)  # one index array serves the gather and the scatter
            if ues.size:
                pl[ues] += building_entry_loss_db(
                    tables.bel[cls], params.f_c_ghz, pop.elevation_deg, pop.bel_p[ues]
                )
    return pl


def ue_rates_mbps(
    params: LinkParams,
    tables: ChannelTables,
    pop: UEPopulation,
    use_shadow_fading: bool = SHADOW_FADING,
    use_building_entry_loss: bool = BUILDING_ENTRY_LOSS,
) -> np.ndarray:
    """Vectorized per-UE achievable rate in Mbps: ue_rate_bps(params, snr_db(params, pl)) / 1e6."""
    pl = path_loss_db(params, tables, pop, use_shadow_fading, use_building_entry_loss)
    rate = _rate_bps_into(params, _snr_db_into(params, pl))  # in pl's buffer
    rate /= 1e6
    return rate


def aggregate_capacity(
    cfg: TrialConfig,
    params: LinkParams,
    tables: ChannelTables,
    pop: UEPopulation,
    use_shadow_fading: bool = SHADOW_FADING,
    use_building_entry_loss: bool = BUILDING_ENTRY_LOSS,
    aggregation: str = AGGREGATIONS[0],
) -> float:
    """Condense per-UE rates into the HAPS capacity in Mbps.

    The default rule is carriers times the population-mean rate, modeling
    round-robin sharing of each carrier; "median" and "p5" (cell-edge style)
    are available as alternatives.
    """
    if len(pop) == 0:
        raise InvalidArgumentError("UE population is empty")
    if aggregation not in AGGREGATIONS:
        raise InvalidArgumentError(f"aggregation must be one of {AGGREGATIONS}")
    # finite but extreme [link] settings can overflow a UE's rate; the result is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        rates = ue_rates_mbps(params, tables, pop, use_shadow_fading, use_building_entry_loss)
        if aggregation == "mean":
            per_carrier = float(rates.mean())
        elif aggregation == "median":
            per_carrier = float(np.median(rates))
        else:
            per_carrier = float(np.percentile(rates, 5))
    c_haps = cfg.n_carriers * per_carrier
    if not math.isfinite(c_haps):
        raise InvalidArgumentError(
            f"c_haps is {c_haps} Mbps: the [link] settings overflow the link budget ({params})"
        )
    # a quantile stays finite when only the best UEs' rates overflow; the mean would not
    if aggregation != "mean" and not (top := rates.max()) < math.inf:
        raise InvalidArgumentError(
            f"a UE's rate is {top} Mbps: the [link] settings overflow the link budget ({params})"
        )
    return c_haps
