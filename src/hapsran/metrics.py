"""Post-processing of trial results into the reported study metrics.

Savings are reported per time mask (whole week, nights, weekdays, weekend),
alongside the hourly offloaded-traffic fraction, the utilization of the
combined HAPS-plus-active-BS capacity, and never-active BS counts.  All CSV
emitters use a stable column order so outputs are byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidArgumentError, UndefinedMetricError
from .montecarlo import StudyConfig, TrialResult
from .traffic import HOURS_PER_DAY, HOURS_PER_WEEK, WEEKDAYS, TrafficScenario
from .traffic import write_csv_grid, write_csv_rows


@dataclass(frozen=True)
class PeriodMask:
    name: str
    hours: tuple[int, ...]

    def __post_init__(self):
        hours = tuple(sorted(set(self.hours)))
        if not hours:
            raise InvalidArgumentError("mask must contain at least one hour")
        if hours[0] < 0 or hours[-1] >= HOURS_PER_WEEK:
            raise InvalidArgumentError("mask hours must lie within 0..167")
        object.__setattr__(self, "hours", hours)

    @property
    def index(self) -> np.ndarray:
        return np.array(self.hours)


WEEK_MASK = PeriodMask("week", tuple(range(HOURS_PER_WEEK)))
# "night" covers 0-5 AM inclusive on each of the seven days
NIGHT_MASK = PeriodMask("night", tuple(h for h in range(HOURS_PER_WEEK) if h % HOURS_PER_DAY <= 5))
WEEKDAY_MASK = PeriodMask("weekday", tuple(range(WEEKDAYS * HOURS_PER_DAY)))
WEEKEND_MASK = PeriodMask("weekend", tuple(range(WEEKDAYS * HOURS_PER_DAY, HOURS_PER_WEEK)))
DEFAULT_MASKS = (WEEK_MASK, NIGHT_MASK, WEEKDAY_MASK, WEEKEND_MASK)


def energy_saving(result: TrialResult, mask: PeriodMask) -> float:
    """Fractional energy reduction over the masked hours."""
    idx = mask.index
    base = float(result.baseline_energy_per_hour[idx].sum())
    if base <= 0:
        raise UndefinedMetricError(f"zero baseline energy over mask {mask.name!r}")
    return 1.0 - float(result.schedule.energy_per_hour[idx].sum()) / base


def sorted_saving_curves(results: list[TrialResult]) -> dict[str, np.ndarray]:
    """Each DEFAULT_MASKS mask's per-trial savings, sorted ascending independently per mask."""
    if not results:
        raise InvalidArgumentError("no trial results")
    return {
        mask.name: np.sort([energy_saving(r, mask) for r in results]) for mask in DEFAULT_MASKS
    }


# the leading columns shared by the per-trial CSVs
_TRIAL_COLUMNS = (
    ("trial", int), ("elevation", float), ("indoor_frac", float), ("traditional_frac", float)
)


def _trial_cells(r: TrialResult) -> list:
    return [r.trial_idx, r.draw.elevation_deg, r.draw.indoor_frac, r.draw.traditional_frac]


def write_figure2_csv(path: str | Path, results: list[TrialResult]) -> None:
    curves = sorted_saving_curves(results)
    rows = ([rank] + [c[rank] for c in curves.values()] for rank in range(len(results)))
    write_csv_rows(path, [("rank", int), *((name, float) for name in curves)], rows)


def write_figure3_csv(path: str | Path, results: list[TrialResult]) -> None:
    rows = (_trial_cells(r) + [energy_saving(r, WEEK_MASK)] for r in results)
    write_csv_rows(path, [*_TRIAL_COLUMNS, ("saving", float)], rows)


def write_figure45_csv(
    path: str | Path, results: list[TrialResult], scenario: TrafficScenario
) -> None:
    """Each trial's hourly offloaded fraction (offloaded rate / demand) and capacity
    utilization (demand / (c_haps + the active BSs' capacity)).

    Demand is the last column of the running sum whose column k is the offloaded rate,
    so the fraction is at most 1, and exactly 1 when every BS sleeps.  Both ratios are
    taken for a whole trial at once, and its 168 rows written as one block.
    """
    demand = scenario.hour_order.cum_rate[:, -1]
    zero = np.flatnonzero(demand <= 0)
    if zero.size:
        raise UndefinedMetricError(f"zero traffic demand at hour {zero[0]}")

    def blocks():
        for r in results:
            capacity = r.c_haps_mbps + r.schedule.active_capacity
            zero = np.flatnonzero(capacity <= 0)
            if zero.size:
                raise UndefinedMetricError(f"zero available capacity at hour {zero[0]}")
            yield r.trial_idx, (r.schedule.offloaded_rate / demand, demand / capacity)

    columns = [("trial", int), ("hour", int), ("offloaded_frac", float), ("utilization", float)]
    write_csv_grid(path, columns, blocks())


def write_trials_csv(path: str | Path, results: list[TrialResult]) -> None:
    floats = ["c_haps_mbps", "total_energy", "baseline_energy", "week_saving", "night_saving"]
    columns = [*_TRIAL_COLUMNS, *((name, float) for name in floats), ("never_active_bs", int)]
    rows = (
        _trial_cells(r)
        + [r.c_haps_mbps, r.schedule.total_energy, float(r.baseline_energy_per_hour.sum()),
           energy_saving(r, WEEK_MASK), energy_saving(r, NIGHT_MASK),
           r.schedule.never_active_count]
        for r in results
    )
    write_csv_rows(path, columns, rows)


def study_config_digest(study: StudyConfig) -> str:
    """Stable hash of every study input: settings, channel tables and the full scenario.

    Every StudyConfig field is hashed by name, so a new setting cannot be left out;
    the scenario is hashed through the entries below, and the worker count cannot
    change a result.
    """
    skip = ("scenario", "n_workers")
    doc = {f.name: getattr(study, f.name) for f in fields(study) if f.name not in skip}
    doc.update(
        scenario_rates_sha256=hashlib.sha256(study.scenario.rate_matrix.tobytes()).hexdigest(),
        scenario_stats=repr(study.scenario.stats),
        scenario_area_km2=repr(study.scenario.area_km2),
    )
    blob = json.dumps(doc, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def write_manifest(path: str | Path, study: StudyConfig, wall_clock_s: float, created_utc: str) -> None:
    doc = {
        "artifact": "hapsran",
        "version": __version__,
        "master_seed": study.master_seed,
        "n_trials": study.n_trials,
        "n_workers": study.n_workers,
        "config_sha256": study_config_digest(study),
        "wall_clock_s": wall_clock_s,
        "created_utc": created_utc,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
