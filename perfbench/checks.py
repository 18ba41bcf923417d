"""Output checks and determinism digests for the benchmark's CLI calls.

Each check returns the number of failed work units (scenario builds,
trials or probes) together with the sha256 digests of the outputs, so
repeated calls, thread counts and traced runs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

from hapsran.traffic import load_scenario

HOURS = 168
# nearest-rank index of the 5th percentile over 168 hourly samples
P5_RANK = math.ceil(0.05 * HOURS) - 1


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_scenario(out: Path, m_targets: int) -> tuple[int, dict, list[str]]:
    """One scenario build: N*168 unique rows, peak/p5 match the stats, reload round-trips."""
    csv_path, stats_path = out / "scenario.csv", out / "scenario_stats.json"
    errors = []
    digests = {p.name: sha256_file(p) for p in (csv_path, stats_path)}
    rates = [[None] * HOURS for _ in range(m_targets)]
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["bs_id", "hour", "rate_mbps"]:
            errors.append("bad scenario.csv header")
        n_rows = 0
        for bs, hour, rate in reader:
            n_rows += 1
            bs, hour = int(bs), int(hour)
            if not (0 <= bs < m_targets and 0 <= hour < HOURS) or rates[bs][hour] is not None:
                errors.append(f"row out of range or duplicated: {bs},{hour}")
                break
            rates[bs][hour] = float(rate)
    if n_rows != m_targets * HOURS:
        errors.append(f"scenario.csv has {n_rows} rows, expected {m_targets * HOURS}")
    sidecar = json.loads(stats_path.read_text())
    if errors or len(sidecar["stats"]) != m_targets:
        return 1, digests, errors or ["stats sidecar has the wrong BS count"]
    for i, (row, st) in enumerate(zip(rates, sidecar["stats"])):
        if not _close(max(row), st["peak"]) or not _close(sorted(row)[P5_RANK], st["p5"]):
            errors.append(f"BS {i}: peak/p5 differ from its stats")
            break
    reloaded = load_scenario(csv_path, stats_path)
    if reloaded.rate_matrix.tolist() != rates:
        errors.append("reloaded rate matrix differs from the CSV")
    if [s.peak for s in reloaded.stats] != [s["peak"] for s in sidecar["stats"]]:
        errors.append("reloaded stats differ from the sidecar")
    return (1 if errors else 0), digests, errors


def check_study(out: Path, n_trials: int) -> tuple[int, dict, list[str]]:
    """One study: per-trial energies and savings, hourly offloaded fraction and utilization."""
    names = ("figure2.csv", "figure3.csv", "figure45.csv", "trials.csv")
    digests = {n: sha256_file(out / n) for n in names}
    bad, errors = set(), []
    with (out / "trials.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["trial"]) for r in rows] != list(range(n_trials)):
        return n_trials, digests, ["trials.csv does not list every trial once"]
    for r in rows:
        total, base = float(r["total_energy"]), float(r["baseline_energy"])
        savings = (float(r["week_saving"]), float(r["night_saving"]))
        if not (base >= total > 0 and all(0 <= s < 1 for s in savings)):
            bad.add(int(r["trial"]))
    n_rows = 0
    with (out / "figure45.csv").open(newline="") as fh:
        for r in csv.DictReader(fh):
            n_rows += 1
            frac, util = float(r["offloaded_frac"]), float(r["utilization"])
            if not (0 <= frac <= 1 and math.isfinite(util)):
                bad.add(int(r["trial"]))
    if n_rows != n_trials * HOURS:
        return n_trials, digests, [f"figure45.csv has {n_rows} rows, expected {n_trials * HOURS}"]
    if bad:
        errors.append(f"trials failing range checks: {sorted(bad)[:10]}")
    return len(bad), digests, errors


_C_HAPS = re.compile(r"^c_haps: (\S+) Mbps$", re.M)
_HOUR = re.compile(r"^\s*(\d+)\s+(\S+)\s+(\d+)\s+(\d+)$", re.M)


def check_probe(stdout: str, m_targets: int, min_active_frac: float) -> tuple[int, dict, list[str]]:
    """One probe: c_haps > 0, the active-count floor holds and offload fits c_haps.

    The CLI prints c_haps with 2 decimals and offloaded rates with 3, so the
    capacity comparison allows half a unit of the coarser rounding.
    """
    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    m = _C_HAPS.search(stdout)
    hours = _HOUR.findall(stdout)
    if m is None or len(hours) != HOURS:
        return 1, digests, ["probe output lacks c_haps or the 168 hour rows"]
    c_haps = float(m.group(1))
    floor = math.ceil(min_active_frac * m_targets - 1e-9)
    errors = []
    if not c_haps > 0:
        errors.append(f"c_haps {c_haps} is not positive")
    for _, offloaded, _, active in hours:
        if int(active) < floor or float(offloaded) > c_haps + 0.005:
            errors.append("an hour breaks the active floor or exceeds c_haps")
            break
    return (1 if errors else 0), digests, errors
