"""Command-line front end: scenario generation, full studies and single trials.

Exit codes: 0 success, 2 configuration/validation problem, 3 I/O failure,
4 unexpected runtime failure.  All defaults reproduce the reference setup,
so a bare ``hapsran run`` after ``hapsran scenario`` runs the default study.
Settings come from an INI-style config file and can be overridden per key
with environment variables of the form HAPSRAN_<SECTION>_<KEY>.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import metrics, montecarlo, traffic
from .energymodel import EnergyParams, bs_energy, sleep_energy
from .errors import HapsRanError, InvalidArgumentError
from .hapscapacity import TrialConfig
from .linkbudget import LinkParams, load_channel_tables
from .metrics import DEFAULT_MASKS, energy_saving
from .montecarlo import StudyConfig, run_study, run_trial
from .offload import OffloadConstraints, offload_week

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUNTIME = 4

ENV_PREFIX = "HAPSRAN"

DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {
        "n_bases": "1419",
        "m_targets": "960",
        "seed": "42",
        "area_km2": "30",
    },
    "energy": {
        "e0": "0.2",
        "e_bb": "0.15",
        "e_tran": "0.15",
        "e_pa": "0.2",
        "eta": "0.3",
        "p_tx_w": "0.3",
        "dt_s": "1.0",
    },
    "link": {
        "p_tx_dbm": "43",
        "g_element_dbi": "8",
        "n_rows": "1",
        "m_cols": "4",
        "g_rx_dbi": "0",
        "f_c_ghz": "2",
        "haps_height_km": "20",
        "noise_dbm": "-100.96",
        "bandwidth_hz": "20e6",
    },
    "study": {
        "trials": "1000",
        "master_seed": "0",
        "elevation_set": "60,70,80,90",
        "indoor_min": "0.6",
        "indoor_max": "0.9",
        "traditional_min": "0.3",
        "traditional_max": "0.7",
        "ue_density_per_km2": "3000",
        "n_carriers": "6",
        "aggregation": "mean",
    },
    "offload": {
        "min_active_frac": "0.4",
    },
}


def load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULTS)
    if path is not None:
        if not Path(path).is_file():
            raise InvalidArgumentError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise InvalidArgumentError(f"malformed config file: {exc}") from exc
    for section in parser.sections():
        for key in parser[section]:
            env_key = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
            if env_key in os.environ:
                try:
                    parser[section][key] = os.environ[env_key]
                except ValueError as exc:  # configparser rejects a stray '%'
                    raise InvalidArgumentError(f"bad value in {env_key}: {exc}") from exc
    return parser


def _value(sec: configparser.SectionProxy, key: str, parse=float):
    """sec[key] parsed; a malformed value is a configuration error naming its key."""
    try:
        return parse(sec[key])
    except (ValueError, configparser.Error) as exc:
        env_key = f"{ENV_PREFIX}_{sec.name.upper()}_{key.upper()}"
        raise InvalidArgumentError(f"bad [{sec.name}] {key} (or {env_key}): {exc}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _params(cls, sec: configparser.SectionProxy):
    """A parameter dataclass read from its section, each field parsed as its default's type."""
    return cls(**{f.name: _value(sec, f.name, type(f.default)) for f in fields(cls)})


def _study_config(args) -> StudyConfig:
    cfg = load_config(args.config)
    sec = cfg["study"]
    return StudyConfig(
        scenario=_load_scenario(args.scenario),
        tables=load_channel_tables(args.channel_tables),
        link=_params(LinkParams, cfg["link"]),
        energy=_params(EnergyParams, cfg["energy"]),
        n_trials=args.trials if args.trials is not None else _value(sec, "trials", int),
        master_seed=args.seed if args.seed is not None else _value(sec, "master_seed", int),
        min_active_frac=_value(cfg["offload"], "min_active_frac"),
        elevation_set=_value(sec, "elevation_set", _float_list),
        indoor_range=(_value(sec, "indoor_min"), _value(sec, "indoor_max")),
        traditional_range=(_value(sec, "traditional_min"), _value(sec, "traditional_max")),
        ue_density_per_km2=_value(sec, "ue_density_per_km2"),
        n_carriers=_value(sec, "n_carriers", int),
        use_shadow_fading=not args.no_shadow_fading,
        use_building_entry_loss=not args.no_bel,
        aggregation=_value(sec, "aggregation", str),
        n_workers=getattr(args, "threads", 1),
    )


def cmd_scenario(args) -> int:
    cfg = load_config(args.config)
    sec = cfg["scenario"]
    scenario = traffic.build_scenario(
        n_bases=_value(sec, "n_bases", int),
        m_targets=_value(sec, "m_targets", int),
        seed=args.seed if args.seed is not None else _value(sec, "seed", int),
        area_km2=_value(sec, "area_km2"),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traffic.save_scenario(scenario, out / "scenario.csv", out / "scenario_stats.json")
    rates = scenario.rate_matrix
    loads = rates / scenario.capacities[:, None]
    q1, q2, q3 = np.percentile(loads.mean(axis=1), [25, 50, 75])
    print(f"scenario: {scenario.n_bs} BSs over {scenario.area_km2} km2")
    print(f"total weekly volume: {rates.sum():.1f} Mbps-hours")
    print(f"per-BS mean load quartiles: {q1:.4f} / {q2:.4f} / {q3:.4f}")
    print(f"written to {out / 'scenario.csv'} and {out / 'scenario_stats.json'}")
    return EXIT_OK


def _load_scenario(scenario_dir: str):
    base = Path(scenario_dir)
    csv_path = base / "scenario.csv"
    stats_path = base / "scenario_stats.json"
    if not csv_path.is_file() or not stats_path.is_file():
        raise InvalidArgumentError(f"scenario files not found under {base}")
    return traffic.load_scenario(csv_path, stats_path)


def cmd_run(args) -> int:
    study = _study_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    results = run_study(study)
    elapsed = time.perf_counter() - t0
    metrics.write_figure2_csv(out / "figure2.csv", results)
    metrics.write_figure3_csv(out / "figure3.csv", results)
    metrics.write_figure45_csv(out / "figure45.csv", results, study.scenario)
    metrics.write_trials_csv(out / "trials.csv", results)
    created = datetime.datetime.now(datetime.timezone.utc).isoformat()
    metrics.write_manifest(out / "manifest.json", study, elapsed, created)
    if args.export_schedule:
        _export_debug_schedule(out / "schedule.csv", study, results)
    savings = [energy_saving(r, metrics.WEEK_MASK) for r in results]
    print(f"{len(results)} trials in {elapsed:.1f}s")
    print(f"week saving: min {min(savings):.4f}, max {max(savings):.4f}")
    print(f"outputs in {out}")
    return EXIT_OK


def _export_debug_schedule(path: Path, study: StudyConfig, results) -> None:
    """Re-solve trial 0 and dump its hour-by-hour schedule with each BS's own energy."""
    cons = OffloadConstraints(
        min_active_frac=study.min_active_frac, c_haps=results[0].c_haps_mbps
    )
    schedule = offload_week(study.scenario, study.energy, cons)
    rates = study.scenario.rate_matrix.T  # (T, N)
    active_energy = bs_energy(study.energy, rates, study.scenario.capacities)
    energy = np.where(schedule.active, active_energy, sleep_energy(study.energy))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", "bs_id", "active", "energy"])
        for h in range(schedule.active.shape[0]):
            for i in range(schedule.active.shape[1]):
                writer.writerow([h, i, int(schedule.active[h, i]), repr(float(energy[h, i]))])


def cmd_trial(args) -> int:
    study = _study_config(args)
    if args.elevation not in study.elevation_set:
        raise InvalidArgumentError(
            f"elevation {args.elevation} not in configured set {study.elevation_set}"
        )
    lo, hi = study.indoor_range
    if not lo <= args.indoor <= hi:
        raise InvalidArgumentError(f"indoor fraction {args.indoor} outside ({lo}, {hi})")
    lo, hi = study.traditional_range
    if not lo <= args.traditional <= hi:
        raise InvalidArgumentError(f"traditional share {args.traditional} outside ({lo}, {hi})")
    trial_cfg = TrialConfig(
        elevation_deg=args.elevation,
        indoor_frac=args.indoor,
        traditional_frac=args.traditional,
        rng_stream=(study.master_seed, 0, montecarlo._TRIAL_STREAM),
        ue_density_per_km2=study.ue_density_per_km2,
        area_km2=study.scenario.area_km2,
        n_carriers=study.n_carriers,
    )
    result = run_trial(study, trial_cfg)
    print(f"c_haps: {result.c_haps_mbps:.2f} Mbps")
    for mask in DEFAULT_MASKS:
        print(f"saving[{mask.name}]: {energy_saving(result, mask):.4f}")
    print("hour offloaded_mbps offloaded_count active_count")
    for h in range(len(result.offloaded_rate_per_hour)):
        print(
            f"{h:4d} {result.offloaded_rate_per_hour[h]:14.3f} "
            f"{result.offloaded_count_per_hour[h]:15d} {result.active_count_per_hour[h]:12d}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapsran",
        description="HAPS-assisted RAN energy-saving simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file; defaults reproduce the reference setup")
    common.add_argument("--seed", type=int, help="override the configured seed")

    p_scen = sub.add_parser("scenario", parents=[common], help="generate and cache a traffic scenario")
    p_scen.add_argument("--out", required=True, help="output directory")
    p_scen.set_defaults(func=cmd_scenario)

    run_common = argparse.ArgumentParser(add_help=False, parents=[common])
    run_common.add_argument("--scenario", required=True, help="directory holding scenario files")
    run_common.add_argument("--channel-tables", help="custom channel table JSON")
    run_common.add_argument("--no-shadow-fading", action="store_true",
                            help="debugging mode: disable shadow fading")
    run_common.add_argument("--no-bel", action="store_true",
                            help="debugging mode: disable building entry loss")

    p_run = sub.add_parser("run", parents=[run_common], help="execute the Monte Carlo study")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--trials", type=int, help="override trial count")
    p_run.add_argument("--threads", type=int, default=1, help="worker pool size")
    p_run.add_argument("--export-schedule", action="store_true",
                       help="also dump trial 0's hour/BS schedule CSV")
    p_run.set_defaults(func=cmd_run)

    p_trial = sub.add_parser("trial", parents=[run_common], help="run one fully specified trial")
    p_trial.add_argument("--elevation", type=float, required=True)
    p_trial.add_argument("--indoor", type=float, required=True)
    p_trial.add_argument("--traditional", type=float, required=True)
    p_trial.add_argument("--trials", type=int, help=argparse.SUPPRESS)
    p_trial.set_defaults(func=cmd_trial, threads=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HapsRanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
