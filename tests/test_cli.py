import csv
import json
import shutil
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from hapsran import (
    EnergyParams,
    OffloadConstraints,
    StudyConfig,
    load_channel_tables,
    load_scenario,
    metrics,
    offload_week,
    traffic,
)
from hapsran import offload
from hapsran.cli import main

SMALL_CONFIG = """\
[scenario]
n_bases = 30
m_targets = 20
seed = 9

[study]
trials = 3
ue_density_per_km2 = 100
"""


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory, config_file):
    out = tmp_path_factory.mktemp("scenario")
    assert main(["scenario", "--config", config_file, "--out", str(out)]) == 0
    return str(out)


class TestScenarioCommand:
    def test_outputs_exist(self, scenario_dir, tmp_path):
        from pathlib import Path

        base = Path(scenario_dir)
        assert (base / "scenario.csv").is_file()
        assert (base / "scenario_stats.json").is_file()
        sidecar = json.loads((base / "scenario_stats.json").read_text())
        assert sidecar["n_bs"] == 20

    def test_rerun_identical(self, config_file, scenario_dir, tmp_path):
        from pathlib import Path

        assert main(["scenario", "--config", config_file, "--out", str(tmp_path)]) == 0
        for name in ("scenario.csv", "scenario_stats.json"):
            assert (tmp_path / name).read_bytes() == (Path(scenario_dir) / name).read_bytes()

    def test_never_sorts_hours(self, config_file, tmp_path, monkeypatch):
        # the hour order serves the trials only; building a scenario must not pay for it
        def fail(rate_matrix):
            raise AssertionError("hapsran scenario sorted the hours")

        monkeypatch.setattr(traffic, "sort_hours", fail)
        assert main(["scenario", "--config", config_file, "--out", str(tmp_path)]) == 0

    def test_invalid_targets_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\nn_bases = 5\nm_targets = 0\n")
        assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["scenario", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 2


class TestRunCommand:
    def test_outputs(self, config_file, scenario_dir, tmp_path):
        code = main(
            ["run", "--config", config_file, "--scenario", scenario_dir, "--out", str(tmp_path)]
        )
        assert code == 0
        for name in ("figure2.csv", "figure3.csv", "figure45.csv", "trials.csv", "manifest.json"):
            assert (tmp_path / name).is_file()
        f3 = (tmp_path / "figure3.csv").read_text().splitlines()
        assert len(f3) == 1 + 3  # header + trials
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_trials"] == 3
        assert "config_sha256" in manifest

    def test_trials_flag_overrides(self, config_file, scenario_dir, tmp_path):
        code = main(
            [
                "run", "--config", config_file, "--scenario", scenario_dir,
                "--out", str(tmp_path), "--trials", "2",
            ]
        )
        assert code == 0
        assert len((tmp_path / "figure3.csv").read_text().splitlines()) == 3

    def test_missing_scenario_exit_2(self, config_file, tmp_path):
        code = main(
            ["run", "--config", config_file, "--scenario", str(tmp_path), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_export_schedule(self, config_file, scenario_dir, tmp_path):
        code = main(
            [
                "run", "--config", config_file, "--scenario", scenario_dir,
                "--out", str(tmp_path), "--trials", "1", "--export-schedule",
            ]
        )
        assert code == 0
        header = (tmp_path / "schedule.csv").read_text().splitlines()[0]
        assert header == "hour,bs_id,active,energy"

    def test_export_schedule_reuses_the_energy_tables(
        self, config_file, scenario_dir, tmp_path, monkeypatch
    ):
        calls = []
        real_bs_energy = offload.bs_energy
        # every module of the package that has bs_energy to call, other than its own
        for name, module in list(sys.modules.items()):
            if name.startswith("hapsran.") and name != "hapsran.energymodel":
                if getattr(module, "bs_energy", None) is real_bs_energy:
                    monkeypatch.setattr(
                        module, "bs_energy", lambda *a: calls.append(1) or real_bs_energy(*a)
                    )
        counts = []
        for extra in ([], ["--export-schedule"]):
            calls.clear()
            argv = ["run", "--config", config_file, "--scenario", scenario_dir,
                    "--out", str(tmp_path / str(len(extra))), "--trials", "2", *extra]
            assert main(argv) == 0
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_export_schedule_energy_is_per_bs(self, config_file, scenario_dir, tmp_path):
        argv = ["run", "--config", config_file, "--scenario", scenario_dir,
                "--out", str(tmp_path), "--trials", "1", "--export-schedule"]
        assert main(argv) == 0
        with (tmp_path / "trials.csv").open(newline="") as fh:
            c_haps = float(next(csv.DictReader(fh))["c_haps_mbps"])
        scenario = load_scenario(Path(scenario_dir) / "scenario.csv",
                                 Path(scenario_dir) / "scenario_stats.json")
        params = EnergyParams()
        schedule = offload_week(scenario, params, OffloadConstraints(0.4, c_haps))
        per_hour = np.zeros(len(schedule.energy_per_hour))
        with (tmp_path / "schedule.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                per_hour[int(row["hour"])] += float(row["energy"])
                if row["active"] == "0":
                    assert float(row["energy"]) == params.e0
        np.testing.assert_allclose(per_hour, schedule.energy_per_hour, rtol=1e-12)

    def test_malformed_scenario_csv_exit_2(self, config_file, scenario_dir, tmp_path):
        broken = tmp_path / "scenario"
        shutil.copytree(scenario_dir, broken)
        lines = (broken / "scenario.csv").read_text().splitlines(keepends=True)
        (broken / "scenario.csv").write_text("".join(lines[:-1]))  # drop the last (bs, hour) row
        argv = ["run", "--config", config_file, "--scenario", str(broken),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2

    def test_channel_tables_change_config_digest(self, config_file, scenario_dir, tmp_path):
        tables = load_channel_tables()
        doc = {
            "environment": tables.environment,
            "band": tables.band,
            "angles_deg": list(tables.angles_deg),
            "los_prob": list(tables.los_prob),
            "sf_sigma": {"los": list(tables.sf_sigma_los), "nlos": list(tables.sf_sigma_nlos)},
            "clutter": {"los": list(tables.clutter_los), "nlos": list(tables.clutter_nlos)},
            "bel": {cls: vars(c) for cls, c in tables.bel.items()},
        }
        doc["clutter"]["nlos"][-1] += 1.0  # the 90-degree bucket
        custom = tmp_path / "tables.json"
        custom.write_text(json.dumps(doc))
        digests = []
        for extra in ([], ["--channel-tables", str(custom)]):
            out = tmp_path / f"o{len(extra)}"
            argv = ["run", "--config", config_file, "--scenario", scenario_dir,
                    "--out", str(out), "--trials", "1", *extra]
            assert main(argv) == 0
            digests.append(json.loads((out / "manifest.json").read_text())["config_sha256"])
        assert digests[0] != digests[1]


class TestTrialCommand:
    def test_valid_trial(self, config_file, scenario_dir, capsys):
        code = main(
            [
                "trial", "--config", config_file, "--scenario", scenario_dir,
                "--elevation", "90", "--indoor", "0.7", "--traditional", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "c_haps:" in out
        assert "saving[week]" in out

    def test_out_of_set_elevation_exit_2(self, config_file, scenario_dir):
        code = main(
            [
                "trial", "--config", config_file, "--scenario", scenario_dir,
                "--elevation", "45", "--indoor", "0.7", "--traditional", "0.5",
            ]
        )
        assert code == 2

    def test_repeatable_dump(self, config_file, scenario_dir, capsys):
        argv = [
            "trial", "--config", config_file, "--scenario", scenario_dir,
            "--elevation", "60", "--indoor", "0.8", "--traditional", "0.4",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestEnvOverrides:
    def test_env_var_overrides_config(self, config_file, monkeypatch, tmp_path):
        monkeypatch.setenv("HAPSRAN_SCENARIO_M_TARGETS", "7")
        out = tmp_path / "s"
        assert main(["scenario", "--config", config_file, "--out", str(out)]) == 0
        sidecar = json.loads((out / "scenario_stats.json").read_text())
        assert sidecar["n_bs"] == 7


class TestDefaults:
    def test_unset_settings_take_library_defaults(self, scenario_dir, tmp_path):
        cfg = tmp_path / "bare.ini"
        cfg.write_text("[scenario]\nn_bases = 30\nm_targets = 20\nseed = 9\n\n[study]\ntrials = 2\n")
        argv = ["run", "--config", str(cfg), "--scenario", scenario_dir,
                "--out", str(tmp_path / "o"), "--seed", "3"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        base = Path(scenario_dir)
        scenario = load_scenario(base / "scenario.csv", base / "scenario_stats.json")
        study = StudyConfig(scenario, load_channel_tables(), n_trials=2, master_seed=3)
        assert manifest["config_sha256"] == metrics.study_config_digest(study)


class TestMalformedInputsExit2:
    def run(self, config_file, scenario_dir, tmp_path, *extra):
        argv = ["run", "--config", config_file, "--scenario", scenario_dir,
                "--out", str(tmp_path / "o"), "--trials", "1", *extra]
        return main(argv)

    @pytest.mark.parametrize("key", ["bel", "los_prob"])
    def test_channel_tables(self, config_file, scenario_dir, tmp_path, capsys, key):
        bundled = resources.files("hapsran.data") / "channel_tables_s_band_dense_urban.json"
        doc = json.loads(bundled.read_text())
        if key == "bel":
            del doc["bel"]  # a missing key
        else:
            doc["los_prob"][0] = "0.3"  # a non-numeric entry
        custom = tmp_path / "tables.json"
        custom.write_text(json.dumps(doc))
        assert self.run(config_file, scenario_dir, tmp_path, "--channel-tables", str(custom)) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_env_value(self, config_file, scenario_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HAPSRAN_ENERGY_ETA", "abc")
        assert self.run(config_file, scenario_dir, tmp_path) == 2
        assert "HAPSRAN_ENERGY_ETA" in capsys.readouterr().err

    def test_env_stray_percent(self, config_file, scenario_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("HAPSRAN_ENERGY_ETA", "5%")
        assert self.run(config_file, scenario_dir, tmp_path) == 2

    @pytest.mark.parametrize(
        "extra, env_key, names",
        [
            ("[offload]\nmin_active_fracton = 0.9\n", None, ["[offload]", "min_active_fracton"]),
            ("[ofload]\nmin_active_frac = 0.9\n", None, ["[ofload]"]),
            ("[DEFAULT]\nmin_active_frac = 0.9\n", None, ["[DEFAULT]", "min_active_frac"]),
            ("", "HAPSRAN_OFFLOAD_MIN_ACTIVE_FRACTON", ["HAPSRAN_OFFLOAD_MIN_ACTIVE_FRACTON"]),
        ],
        ids=["key", "section", "default-section", "env"],
    )
    def test_unknown_setting(self, scenario_dir, tmp_path, capsys, monkeypatch, extra, env_key, names):
        cfg = tmp_path / "typo.ini"
        cfg.write_text(SMALL_CONFIG + extra)
        if env_key is not None:
            monkeypatch.setenv(env_key, "0.9")
        assert self.run(str(cfg), scenario_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err

    def test_config_list_entry(self, scenario_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(SMALL_CONFIG + "elevation_set = 60,x\n")
        assert self.run(str(cfg), scenario_dir, tmp_path) == 2
        assert "elevation_set" in capsys.readouterr().err

    def test_scenario_area_not_finite(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(SMALL_CONFIG.replace("seed = 9\n", "seed = 9\narea_km2 = nan\n"))
        assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "area_km2" in capsys.readouterr().err
        assert not (tmp_path / "o" / "scenario_stats.json").exists()

    def test_sidecar_area_not_a_number(self, config_file, scenario_dir, tmp_path, capsys):
        broken = tmp_path / "scenario"
        shutil.copytree(scenario_dir, broken)
        sidecar = json.loads((broken / "scenario_stats.json").read_text())
        sidecar["area_km2"] = "abc"
        (broken / "scenario_stats.json").write_text(json.dumps(sidecar))
        assert self.run(config_file, str(broken), tmp_path) == 2
        assert "area_km2" in capsys.readouterr().err

    def test_sidecar_stat_is_boolean(self, config_file, scenario_dir, tmp_path, capsys):
        # JSON true is a Python bool, which is an int: it must not load as max_load 1.0
        broken = tmp_path / "scenario"
        shutil.copytree(scenario_dir, broken)
        sidecar = json.loads((broken / "scenario_stats.json").read_text())
        sidecar["stats"][0]["max_load"] = True
        (broken / "scenario_stats.json").write_text(json.dumps(sidecar))
        assert self.run(config_file, str(broken), tmp_path) == 2
        assert "max_load" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, config_file, scenario_dir, tmp_path, capsys, threads):
        assert self.run(config_file, scenario_dir, tmp_path, "--threads", threads) == 2
        assert "n_workers" in capsys.readouterr().err

    def test_config_without_section_header(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("n_bases = 30\n")
        assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
