"""The parametric Monte Carlo study: many trials over one fixed scenario.

Every trial draws an elevation angle, an indoor-UE fraction and a
traditional-building share, samples a fresh UE population, computes the
HAPS capacity and solves the weekly offloading problem.  Per-trial RNG
streams are derived from (master_seed, trial index), so trials are
independent, order-insensitive and safe to run in parallel.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._numeric import require_finite, require_integer, require_memory
from .energymodel import EnergyParams
from .errors import InvalidArgumentError
from .hapscapacity import (
    AGGREGATIONS,
    BUILDING_ENTRY_LOSS,
    BYTES_PER_UE,
    SHADOW_FADING,
    TrialConfig,
    aggregate_capacity,
    sample_ue_population,
)
from .linkbudget import ChannelTables, LinkParams
from .offload import OffloadConstraints, baseline_energy_per_hour, offload_week
from .traffic import HOURS_PER_WEEK, TrafficScenario

# stream tags keeping config draws and trial draws disjoint
_CONFIG_STREAM = 1
_TRIAL_STREAM = 2
# the bytes of each TrialResult that run_study keeps until the writers run: tracemalloc
# read 9,065-9,091 at 50-1000 trials on 1 and 2 workers
BYTES_PER_RESULT = 9728


@dataclass(frozen=True)
class StudyConfig:
    scenario: TrafficScenario
    tables: ChannelTables
    link: LinkParams = field(default_factory=LinkParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    n_trials: int = 1000
    master_seed: int = 0
    min_active_frac: float = OffloadConstraints.min_active_frac
    elevation_set: tuple[float, ...] = (60.0, 70.0, 80.0, 90.0)
    indoor_range: tuple[float, float] = (0.6, 0.9)
    traditional_range: tuple[float, float] = (0.3, 0.7)
    ue_density_per_km2: float = 3000.0
    n_carriers: int = 6
    use_shadow_fading: bool = SHADOW_FADING
    use_building_entry_loss: bool = BUILDING_ENTRY_LOSS
    aggregation: str = AGGREGATIONS[0]
    n_workers: int = 1

    def __post_init__(self):
        require_finite(self)
        for key in ("n_trials", "master_seed", "n_carriers", "n_workers"):
            require_integer(key, getattr(self, key))
        if self.n_trials < 1:
            raise InvalidArgumentError("n_trials must be >= 1")
        for lo, hi in (self.indoor_range, self.traditional_range):
            if not 0 <= lo <= hi <= 1:
                raise InvalidArgumentError("ranges must be well-ordered within [0,1]")
        if not self.elevation_set:
            raise InvalidArgumentError("elevation_set must be non-empty")
        # each setting a trial reads is checked here, before --out is made or any trial
        # runs, and not only by the first trial that draws it
        lo, hi = self.tables.angles_deg[0], self.tables.angles_deg[-1]
        for section, key, ok, need in (
            ("study", "elevation_set",
             all(lo <= e <= hi and 0 < e <= 90 for e in self.elevation_set),
             f"within the channel tables' [{lo}, {hi}] degrees and (0, 90]"),
            ("study", "master_seed", self.master_seed >= 0, ">= 0"),
            ("study", "n_carriers", self.n_carriers >= 1, ">= 1"),
            ("study", "ue_density_per_km2", self.ue_density_per_km2 > 0, "positive"),
            ("study", "aggregation", self.aggregation in AGGREGATIONS, f"one of {AGGREGATIONS}"),
            ("offload", "min_active_frac", 0 <= self.min_active_frac <= 1, "in [0, 1]"),
        ):
            if not ok:
                got = getattr(self, key)
                raise InvalidArgumentError(f"[{section}] {key} must be {need}, got {got!r}")
        if self.n_workers < 1:
            raise InvalidArgumentError(f"n_workers must be >= 1, got {self.n_workers}")
        # `workers` trials hold their UEs at once, beside every trial's result; a product
        # of Python floats overflows to an inf need, so n_ues's math.ceil never sees inf
        density, area, workers = self.ue_density_per_km2, self.scenario.area_km2, self.workers
        ue_need = float(density) * float(area) * BYTES_PER_UE * workers
        require_memory(
            ue_need,
            f"[study] ue_density_per_km2 over the scenario's area_km2 of {area}, got "
            f"{density!r}: {workers} running trial(s) at {BYTES_PER_UE} bytes per UE",
        )
        require_memory(
            ue_need + self.n_trials * BYTES_PER_RESULT,
            f"[study] trials (or --trials): the results of {self.n_trials} trials at "
            f"{BYTES_PER_RESULT} bytes each, beside the UEs of {workers} running trial(s)",
        )
        # No load exceeds 1, so an all-on hour costs at most n_bs * (static + dynamic) and
        # no trial's energy reaches twice the full-load week: the factor 2 leaves room for
        # LOAD_TOLERANCE and for rounding, and the check needs no hour order.
        e, n = self.energy, self.scenario.n_bs
        if not math.isfinite(2 * HOURS_PER_WEEK * n * (e.static_energy + e.full_load_dynamic)):
            raise InvalidArgumentError(
                f"a full-load week of {n} BSs overflows: the [energy] settings are too large ({e})"
            )

    @property
    def n_ues(self) -> int:
        """How many UEs each trial samples: the density times the scenario's area, rounded up."""
        return math.ceil(self.ue_density_per_km2 * self.scenario.area_km2)

    @property
    def workers(self) -> int:
        """How many trials run at once: n_workers, capped by n_trials and by the machine's
        CPU count.  No result depends on it."""
        return min(self.n_workers, self.n_trials, os.cpu_count() or 1)


@dataclass(frozen=True)
class TrialResult:
    trial_idx: int
    elevation_deg: float
    indoor_frac: float
    traditional_frac: float
    c_haps_mbps: float
    total_energy: float
    baseline_energy: float
    energy_per_hour: np.ndarray
    baseline_energy_per_hour: np.ndarray
    offloaded_rate_per_hour: np.ndarray
    offloaded_count_per_hour: np.ndarray
    active_count_per_hour: np.ndarray
    active_capacity_per_hour: np.ndarray
    never_active_bs_count: int

    def __post_init__(self):
        # with e0 = 0, a week in which every BS sleeps costs exactly 0
        if not self.baseline_energy >= self.total_energy >= 0:
            raise InvalidArgumentError("expected baseline_energy >= total_energy >= 0")


def sample_trial_config(study: StudyConfig, trial_idx: int) -> TrialConfig:
    """Draw one trial's parameters; deterministic in (master_seed, trial_idx)."""
    if not 0 <= trial_idx < study.n_trials:
        raise InvalidArgumentError(f"trial_idx {trial_idx} outside [0, {study.n_trials})")
    rng = np.random.default_rng(
        np.random.SeedSequence([study.master_seed, trial_idx, _CONFIG_STREAM])
    )
    elevation = study.elevation_set[rng.integers(len(study.elevation_set))]
    indoor = rng.uniform(*study.indoor_range)
    traditional = rng.uniform(*study.traditional_range)
    return TrialConfig(
        elevation_deg=float(elevation),
        indoor_frac=float(indoor),
        traditional_frac=float(traditional),
        rng_stream=(study.master_seed, trial_idx, _TRIAL_STREAM),
    )


def run_trial(study: StudyConfig, cfg: TrialConfig, trial_idx: int = 0) -> TrialResult:
    """Sample the UE population, compute c_haps, solve the week, collect metrics."""
    pop = sample_ue_population(cfg, study.tables, study.n_ues)
    c_haps = aggregate_capacity(
        study.link,
        study.tables,
        pop,
        study.n_carriers,
        use_shadow_fading=study.use_shadow_fading,
        use_building_entry_loss=study.use_building_entry_loss,
        aggregation=study.aggregation,
    )
    cons = OffloadConstraints(min_active_frac=study.min_active_frac, c_haps=c_haps)
    schedule = offload_week(study.scenario, study.energy, cons)
    baseline_ph = baseline_energy_per_hour(study.scenario, study.energy)
    return TrialResult(
        trial_idx=trial_idx,
        elevation_deg=cfg.elevation_deg,
        indoor_frac=cfg.indoor_frac,
        traditional_frac=cfg.traditional_frac,
        c_haps_mbps=c_haps,
        total_energy=schedule.total_energy,
        baseline_energy=float(baseline_ph.sum()),
        energy_per_hour=schedule.energy_per_hour,
        baseline_energy_per_hour=baseline_ph,
        offloaded_rate_per_hour=schedule.offloaded_rate,
        offloaded_count_per_hour=schedule.offloaded_count,
        active_count_per_hour=study.scenario.n_bs - schedule.offloaded_count,
        active_capacity_per_hour=schedule.active_capacity,
        never_active_bs_count=schedule.never_active_count,
    )


def run_study(study: StudyConfig) -> list[TrialResult]:
    """Execute all trials; results are identical for any worker count.

    With study.workers at 1 the trials run inline; otherwise they share a thread pool of
    that size.
    """

    def one(idx: int) -> TrialResult:
        return run_trial(study, sample_trial_config(study, idx), idx)

    workers = study.workers
    if workers == 1:
        return [one(idx) for idx in range(study.n_trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # One worker builds the hour order before any trial starts: from Python 3.12 on,
        # cached_property takes no lock, so every worker that read a fresh scenario's hour
        # order first could sort the hours again.  Built in the main thread instead, its
        # temporaries raised a 2-worker study's peak RSS by about 3.5 MiB.
        pool.submit(getattr, study.scenario, "hour_order").result()
        return list(pool.map(one, range(study.n_trials)))
