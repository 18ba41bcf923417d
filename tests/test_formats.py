"""Every CSV the package writes, byte for byte against csv.writer.

The reference formats each cell as the CSV format states it: an int column with str,
a float column with repr(float(x)), whatever the value's Python type, and csv.writer
writes the cells with its default dialect ("," between cells, "\\r\\n" after a row).
"""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from hapsran import StudyConfig, build_scenario, load_channel_tables, run_study, save_scenario
from hapsran import cli
from hapsran.energymodel import bs_energy, sleep_energy
from hapsran.metrics import (
    NIGHT_MASK,
    WEEK_MASK,
    energy_saving,
    sorted_saving_curves,
    write_figure2_csv,
    write_figure3_csv,
    write_figure45_csv,
    write_trials_csv,
)
from hapsran.offload import OffloadConstraints, offload_week


def reference_bytes(columns, rows) -> bytes:
    """csv.writer's bytes for the header and rows, each cell formatted by its column's kind."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow([name for name, _ in columns])
    for row in rows:
        writer.writerow([str(v) if kind is int else repr(float(v)) for (_, kind), v in zip(columns, row)])
    return fh.getvalue().encode()


@pytest.fixture(scope="module")
def study():
    scenario = build_scenario(30, 20, seed=9)
    return StudyConfig(
        scenario=scenario, tables=load_channel_tables(), n_trials=3, ue_density_per_km2=100
    )


@pytest.fixture(scope="module")
def results(study):
    """Three trials, and a fourth whose cells are not Python floats and ints."""
    study_results = run_study(study)
    first = study_results[0]
    odd = replace(
        first,
        trial_idx=np.int64(3),
        draw=replace(first.draw, elevation_deg=90, indoor_frac=np.float64(0.75)),
        c_haps_mbps=np.float64(40.0),
    )
    return [*study_results, odd]


TRIAL = [("trial", int), ("elevation", float), ("indoor_frac", float), ("traditional_frac", float)]


def trial_cells(r):
    return [r.trial_idx, r.draw.elevation_deg, r.draw.indoor_frac, r.draw.traditional_frac]


class TestEveryTableMatchesCsvWriter:
    def test_figure2(self, results, tmp_path):
        curves = sorted_saving_curves(results)
        names = ["week", "night", "weekday", "weekend"]
        columns = [("rank", int), *((n, float) for n in names)]
        rows = [[k] + [curves[n][k] for n in names] for k in range(len(results))]
        write_figure2_csv(tmp_path / "f.csv", results)
        assert (tmp_path / "f.csv").read_bytes() == reference_bytes(columns, rows)

    def test_figure3(self, results, tmp_path):
        columns = [*TRIAL, ("saving", float)]
        rows = [trial_cells(r) + [energy_saving(r, WEEK_MASK)] for r in results]
        write_figure3_csv(tmp_path / "f.csv", results)
        assert (tmp_path / "f.csv").read_bytes() == reference_bytes(columns, rows)

    def test_trials(self, results, tmp_path):
        floats = ["c_haps_mbps", "total_energy", "baseline_energy", "week_saving", "night_saving"]
        columns = [*TRIAL, *((n, float) for n in floats), ("never_active_bs", int)]
        rows = [
            trial_cells(r)
            + [r.c_haps_mbps, r.schedule.total_energy, r.baseline_energy_per_hour.sum(),
               energy_saving(r, WEEK_MASK), energy_saving(r, NIGHT_MASK), r.never_active_bs_count]
            for r in results
        ]
        write_trials_csv(tmp_path / "f.csv", results)
        written = (tmp_path / "f.csv").read_bytes()
        assert written == reference_bytes(columns, rows)
        # an int elevation and a numpy c_haps are float cells all the same
        assert written.splitlines()[-1].startswith(b"3,90.0,0.75,")
        assert b",40.0," in written.splitlines()[-1]

    def test_figure45(self, study, results, tmp_path):
        demand = study.scenario.hour_order.cum_rate[:, -1]
        columns = [("trial", int), ("hour", int), ("offloaded_frac", float), ("utilization", float)]
        rows = [
            [r.trial_idx, h, a, b]
            for r in results
            for h, (a, b) in enumerate(zip(
                r.offloaded_rate_per_hour / demand,
                demand / (r.c_haps_mbps + r.schedule.active_capacity),
            ))
        ]
        write_figure45_csv(tmp_path / "f.csv", results, study.scenario)
        assert (tmp_path / "f.csv").read_bytes() == reference_bytes(columns, rows)

    def test_schedule(self, study, results, tmp_path):
        scenario = study.scenario
        cons = OffloadConstraints(
            min_active_frac=study.min_active_frac, c_haps=results[0].c_haps_mbps
        )
        active = offload_week(scenario, study.energy, cons).active
        on_energy = bs_energy(study.energy, scenario.rate_matrix.T, scenario.capacities)
        energy = np.where(active, on_energy, sleep_energy(study.energy))
        columns = [("hour", int), ("bs_id", int), ("active", int), ("energy", float)]
        rows = [
            [h, i, int(active[h, i]), energy[h, i]]
            for h in range(active.shape[0])
            for i in range(active.shape[1])
        ]
        cli._export_debug_schedule(tmp_path / "f.csv", study, results)
        assert (tmp_path / "f.csv").read_bytes() == reference_bytes(columns, rows)

    def test_scenario(self, study, tmp_path):
        rates = study.scenario.rate_matrix
        columns = [("bs_id", int), ("hour", int), ("rate_mbps", float)]
        rows = [[i, h, rates[i, h]] for i in range(rates.shape[0]) for h in range(rates.shape[1])]
        save_scenario(study.scenario, tmp_path / "f.csv", tmp_path / "f.json")
        assert (tmp_path / "f.csv").read_bytes() == reference_bytes(columns, rows)
