"""Command-line front end: scenario generation, full studies and single trials.

Exit codes: 0 success, 2 configuration/validation problem, 3 I/O failure,
4 unexpected runtime failure.  All defaults reproduce the reference setup,
so a bare ``hapsran run`` after ``hapsran scenario`` runs the default study.
Settings come from an INI-style config file and can be overridden per key
with environment variables of the form HAPSRAN_<SECTION>_<KEY>.  A setting
left unset keeps the default of the dataclass or function it feeds
(EnergyParams, LinkParams, StudyConfig, build_scenario); only the
[scenario] counts and seed are the CLI's own.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import metrics, traffic
from .energymodel import EnergyParams, bs_energy, sleep_energy
from .errors import HapsRanError, InvalidArgumentError
from .linkbudget import LinkParams, load_channel_tables
from .metrics import DEFAULT_MASKS, energy_saving
from .montecarlo import StudyConfig, run_study, run_trial, sample_trial_config
from .offload import OffloadConstraints, offload_week

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUNTIME = 4

ENV_PREFIX = "HAPSRAN"

# the CLI's own defaults; every other unset setting keeps the default of what it feeds
_SCENARIO_DEFAULTS = {"n_bases": 1419, "m_targets": 960, "seed": 42}


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# section -> key -> parser: every setting a config file or environment variable may set
SCHEMA: dict[str, dict] = {
    "scenario": {"n_bases": int, "m_targets": int, "seed": int, "area_km2": float},
    "energy": {f.name: type(f.default) for f in fields(EnergyParams)},
    "link": {f.name: type(f.default) for f in fields(LinkParams)},
    "study": {
        "trials": int,
        "master_seed": int,
        "elevation_set": _float_list,
        "indoor_min": float,
        "indoor_max": float,
        "traditional_min": float,
        "traditional_max": float,
        "ue_density_per_km2": float,
        "n_carriers": int,
        "aggregation": str,
    },
    "offload": {"min_active_frac": float},
}


def _env_key(section: str, key: str) -> str:
    return f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"


def load_config(path: str | None) -> dict[str, dict]:
    """The settings that the config file and environment set, parsed, per SCHEMA section.

    Unset keys are absent.  A section, key or HAPSRAN_* variable that SCHEMA does
    not name is a configuration error, so a misspelt setting cannot fall back to
    its default unnoticed.
    """
    parser = configparser.ConfigParser(interpolation=None)  # no %(key)s: a value is its text
    parser.read_dict({section: {} for section in SCHEMA})
    if path is not None:
        if not Path(path).is_file():
            raise InvalidArgumentError(f"config file not found: {path}")
        try:
            parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise InvalidArgumentError(f"malformed config file: {exc}") from exc
    if parser.defaults():
        raise InvalidArgumentError(f"unknown config key in [DEFAULT]: {', '.join(parser.defaults())}")
    for section in parser.sections():
        if section not in SCHEMA:
            raise InvalidArgumentError(f"unknown config section [{section}]")
        unknown = [key for key in parser[section] if key not in SCHEMA[section]]
        if unknown:
            raise InvalidArgumentError(f"unknown config key in [{section}]: {', '.join(unknown)}")
    env_keys = {_env_key(sec, key): (sec, key) for sec, keys in SCHEMA.items() for key in keys}
    for env_key in sorted(k for k in os.environ if k.startswith(ENV_PREFIX + "_")):
        if env_key not in env_keys:
            raise InvalidArgumentError(
                f"unknown environment variable {env_key}: it names no {ENV_PREFIX}_<SECTION>_<KEY>"
            )
        section, key = env_keys[env_key]
        parser[section][key] = os.environ[env_key]
    return {
        section: {
            key: _value(parser[section], key, parse)
            for key, parse in keys.items()
            if key in parser[section]
        }
        for section, keys in SCHEMA.items()
    }


def _value(sec: configparser.SectionProxy, key: str, parse):
    """sec[key] parsed; a malformed value is a configuration error naming its key."""
    try:
        return parse(sec[key])
    except ValueError as exc:
        raise InvalidArgumentError(
            f"bad [{sec.name}] {key} (or {_env_key(sec.name, key)}): {exc}"
        ) from exc


def _study_config(args) -> StudyConfig:
    cfg = load_config(args.config)
    # [study] and [offload] keys are StudyConfig field names, except that trials sets
    # n_trials and <name>_min / <name>_max set the two ends of <name>_range
    settings = {**cfg["study"], **cfg["offload"]}
    if "trials" in settings:
        settings["n_trials"] = settings.pop("trials")
    for name in ("indoor", "traditional"):
        lo, hi = getattr(StudyConfig, f"{name}_range")  # the field's default
        settings[f"{name}_range"] = (settings.pop(f"{name}_min", lo), settings.pop(f"{name}_max", hi))
    if args.trials is not None:
        settings["n_trials"] = args.trials
    if args.seed is not None:
        settings["master_seed"] = args.seed
    return StudyConfig(
        scenario=_load_scenario(args.scenario),
        tables=load_channel_tables(args.channel_tables),
        link=LinkParams(**cfg["link"]),
        energy=EnergyParams(**cfg["energy"]),
        use_shadow_fading=not args.no_shadow_fading,
        use_building_entry_loss=not args.no_bel,
        n_workers=args.threads,
        **settings,
    )


def cmd_scenario(args) -> int:
    settings = {**_SCENARIO_DEFAULTS, **load_config(args.config)["scenario"]}
    if args.seed is not None:
        settings["seed"] = args.seed
    scenario = traffic.build_scenario(**settings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traffic.save_scenario(scenario, out / "scenario.csv", out / "scenario_stats.json")
    rates = scenario.rate_matrix
    loads = rates / scenario.capacities[:, None]
    q1, q2, q3 = np.percentile(loads.mean(axis=1), [25, 50, 75])
    print(f"scenario: {scenario.n_bs} BSs over {scenario.area_km2} km2")
    print(f"total weekly volume: {rates.sum():.1f} Mbps-hours")
    print(f"per-BS mean load quartiles: {q1:.4f} / {q2:.4f} / {q3:.4f}")
    # the matcher fits peak and p5; a target mean beyond every base ratio is missed
    means = np.array([s.mean for s in scenario.stats])
    miss = np.abs(rates.mean(axis=1) - means) / means
    print(f"per-BS mean miss |trace - target| / target: p95 {np.percentile(miss, 95):.4f}, "
          f"max {miss.max():.4f}")
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
    awake = bs_energy(study.energy, study.scenario.rate_matrix.T, study.scenario.capacities)
    energy = np.where(schedule.active, awake, sleep_energy(study.energy))
    columns = [("hour", int), ("bs_id", int), ("active", int), ("energy", float)]
    traffic.write_csv_grid(path, columns, enumerate(zip(schedule.active, energy)))


def cmd_trial(args) -> int:
    study = _study_config(args)
    if args.elevation not in study.elevation_set:
        raise InvalidArgumentError(
            f"elevation {args.elevation} not in configured set {study.elevation_set}"
        )
    lo, hi = study.indoor_range
    if not lo <= args.indoor <= hi:
        raise InvalidArgumentError(f"indoor fraction {args.indoor} outside [{lo}, {hi}]")
    lo, hi = study.traditional_range
    if not lo <= args.traditional <= hi:
        raise InvalidArgumentError(f"traditional share {args.traditional} outside [{lo}, {hi}]")
    trial_cfg = replace(
        sample_trial_config(study, 0),
        elevation_deg=args.elevation,
        indoor_frac=args.indoor,
        traditional_frac=args.traditional,
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
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker pool size, capped at the CPU count; outputs do not depend on it")
    p_run.add_argument("--export-schedule", action="store_true",
                       help="also dump trial 0's hour/BS schedule CSV")
    p_run.set_defaults(func=cmd_run)

    p_trial = sub.add_parser("trial", parents=[run_common], help="run one fully specified trial")
    p_trial.add_argument("--elevation", type=float, required=True)
    p_trial.add_argument("--indoor", type=float, required=True)
    p_trial.add_argument("--traditional", type=float, required=True)
    # a trial is a study of one trial on one thread, whatever [study] trials says
    p_trial.set_defaults(func=cmd_trial, trials=1, threads=1)

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
