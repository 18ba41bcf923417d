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
# a trial's peak bytes per UE, in its population and aggregate_capacity's temporaries:
# tracemalloc read 94.3-94.7 at 30k-300k UEs all indoors in one building class, the worst
BYTES_PER_UE = 96

SeedLike = int | tuple[int, ...]


@dataclass(frozen=True)
class TrialConfig:
    """The draw of one Monte Carlo trial; every other input is a setting of its study."""

    elevation_deg: float
    indoor_frac: float
    traditional_frac: float
    rng_stream: SeedLike

    def __post_init__(self):
        if not 0 <= self.indoor_frac <= 1 or not 0 <= self.traditional_frac <= 1:
            raise InvalidArgumentError("fractions must be in [0,1]")


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


def sample_ue_population(cfg: TrialConfig, tables: ChannelTables, n_ues: int) -> UEPopulation:
    """Draw the features of the trial's n_ues UEs, deterministic per rng_stream.

    Separate sub-streams feed the categorical thresholds, the shadow-fading
    draws and the entry-loss probabilities, so paired experiments can hold
    individual noise sources fixed.
    """
    if n_ues < 1:
        raise InvalidArgumentError(f"n_ues must be >= 1, got {n_ues}")
    pop_ss, sf_ss, bel_ss = np.random.SeedSequence(cfg.rng_stream).spawn(3)
    rng = np.random.default_rng(pop_ss)
    # each uniform is thresholded as soon as it is drawn, so only its flags stay alive
    los = rng.random(n_ues) < los_probability(tables, cfg.elevation_deg)
    indoor = rng.random(n_ues) < cfg.indoor_frac
    traditional = rng.random(n_ues) < cfg.traditional_frac
    sf = np.random.default_rng(sf_ss).standard_normal(n_ues)
    bel_p = np.random.default_rng(bel_ss).random(n_ues)
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
    # each term is added in place, as in fspl + clutter + sigma * draw + entry loss; the
    # float() keeps a table's JSON ints from making an int array that cannot take them
    pl = np.where(pop.los, float(tables.clutter_los[idx]), float(tables.clutter_nlos[idx]))
    pl += fspl_db(d, params.f_c_ghz)
    if use_shadow_fading:
        sigma = np.where(pop.los, float(tables.sf_sigma_los[idx]), float(tables.sf_sigma_nlos[idx]))
        sigma *= pop.sf_draw
        pl += sigma
    if use_building_entry_loss:
        for cls, in_class in (
            ("traditional", pop.indoor & pop.traditional),
            ("thermally_efficient", pop.indoor & ~pop.traditional),
        ):
            ues = np.flatnonzero(in_class)  # one index array serves the gather and the scatter
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
    params: LinkParams,
    tables: ChannelTables,
    pop: UEPopulation,
    n_carriers: int,
    use_shadow_fading: bool = SHADOW_FADING,
    use_building_entry_loss: bool = BUILDING_ENTRY_LOSS,
    aggregation: str = AGGREGATIONS[0],
) -> float:
    """Condense per-UE rates into the HAPS capacity in Mbps.

    The default rule is carriers times the population-mean rate, modeling
    round-robin sharing of each carrier; "median" and "p5" (cell-edge style)
    are available as alternatives.
    """
    if n_carriers < 1:
        raise InvalidArgumentError(f"n_carriers must be >= 1, got {n_carriers}")
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
    c_haps = n_carriers * per_carrier
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
