import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import hapsran
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
from hapsran import montecarlo, offload
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


# the tiny scenario that CI builds
TINY_CONFIG = """\
[scenario]
n_bases = 60
m_targets = 40
seed = 11

[study]
ue_density_per_km2 = 100
"""


# appended to TINY_CONFIG: 1000 carriers carry every hour of the tiny scenario, and no BS
# must stay on
ASLEEP = "n_carriers = 1000\n\n[offload]\nmin_active_frac = 0\n"


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

    @pytest.mark.parametrize(
        "name, config",
        [("tiny", TINY_CONFIG)]
        + [(f"default-seed{seed}", f"[scenario]\nseed = {seed}\n") for seed in (42, 1, 3)],
    )
    def test_bytes_match_the_pinned_digests(self, tmp_path, name, config):
        # tests/data/scenario.sha256 holds each file's digest under <name>/scenario/, in
        # sha256sum's format, and this test checks every entry.  Seeds 1 and 3 put the
        # most targets above the largest base ratio, at the end of its order
        cfg = tmp_path / "config.ini"
        cfg.write_text(config)
        out = tmp_path / name / "scenario"
        assert main(["scenario", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (Path(__file__).parent / "data" / "scenario.sha256").read_text().splitlines()
        pinned = {path: digest for digest, path in (line.split("  ", 1) for line in lines)}
        for file in ("scenario.csv", "scenario_stats.json"):
            digest = hashlib.sha256((out / file).read_bytes()).hexdigest()
            assert digest == pinned[f"{name}/scenario/{file}"], file

    def test_reports_the_mean_miss(self, config_file, tmp_path, capsys):
        # recomputed from the written files: each trace's mean against its sidecar mean
        assert main(["scenario", "--config", config_file, "--out", str(tmp_path)]) == 0
        rates = np.loadtxt(tmp_path / "scenario.csv", delimiter=",", skiprows=1)[:, 2]
        sidecar = json.loads((tmp_path / "scenario_stats.json").read_text())
        means = np.array([s["mean"] for s in sidecar["stats"]])
        miss = np.abs(rates.reshape(len(means), -1).mean(axis=1) - means) / means
        p95, worst = np.percentile(miss, 95), miss.max()
        assert 0 < p95 <= worst
        line = f"per-BS mean miss |trace - target| / target: p95 {p95:.4f}, max {worst:.4f}"
        assert line in capsys.readouterr().out.splitlines()

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

    def test_every_bs_asleep_offloads_exactly_all(self, tmp_path):
        cfg = tmp_path / "asleep.ini"
        cfg.write_text(TINY_CONFIG + ASLEEP)
        scenario, out = tmp_path / "scenario", tmp_path / "results"
        assert main(["scenario", "--config", str(cfg), "--out", str(scenario)]) == 0
        argv = ["run", "--config", str(cfg), "--scenario", str(scenario), "--out", str(out),
                "--trials", "2"]
        assert main(argv) == 0
        with (out / "figure45.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 168
        assert {row["offloaded_frac"] for row in rows} == {"1.0"}

    def test_a_week_may_cost_nothing(self, tmp_path, capsys):
        # every BS sleeps in every hour, and with e0 = 0 a sleeping BS costs nothing
        cfg = tmp_path / "free.ini"
        cfg.write_text(TINY_CONFIG + ASLEEP + "\n[energy]\ne0 = 0\n")
        scenario, out = tmp_path / "scenario", tmp_path / "results"
        assert main(["scenario", "--config", str(cfg), "--out", str(scenario)]) == 0
        argv = ["run", "--config", str(cfg), "--scenario", str(scenario), "--out", str(out),
                "--trials", "2"]
        assert main(argv) == 0
        with (out / "trials.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert (row["week_saving"], row["night_saving"]) == ("1.0", "1.0")
            assert row["total_energy"] == "0.0"
        capsys.readouterr()
        argv = ["trial", "--config", str(cfg), "--scenario", str(scenario), "--elevation", "70",
                "--indoor", "0.7", "--traditional", "0.5"]
        assert main(argv) == 0
        assert "saving[week]: 1.0000\n" in capsys.readouterr().out

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

    def test_only_the_schedule_export_calls_bs_energy(
        self, config_file, scenario_dir, tmp_path, monkeypatch
    ):
        # a study prices its hours from the scenario's load prefix sums; only the
        # debug export asks for each BS's own energy, in one call
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
        assert counts == [0, 1]

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

    def test_default_study_digest_is_pinned(self, tmp_path):
        # the digest hashes the settings and the pinned seed-42 scenario bytes only, so it
        # is the same on every machine; the study's CSVs are not pinned
        scenario = tmp_path / "scenario"
        assert main(["scenario", "--out", str(scenario)]) == 0
        argv = ["run", "--scenario", str(scenario), "--out", str(tmp_path / "o"), "--trials", "100"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config_sha256"] == (
            "b8ccd38d5bdd9f8e4556c4147e4f88090220123213ccdc8bf2c731161e9bc30c"
        )

    def test_threads_beyond_the_cpu_count(self, config_file, scenario_dir, tmp_path, monkeypatch):
        # the pool takes the CPU count, and the manifest records the request
        sizes = []
        real_pool = montecarlo.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", recording_pool)
        argv = ["run", "--config", config_file, "--scenario", scenario_dir,
                "--out", str(tmp_path), "--threads", str(10**6)]
        assert main(argv) == 0
        assert sizes == [2]
        assert json.loads((tmp_path / "manifest.json").read_text())["n_workers"] == 10**6

    def test_outputs_do_not_depend_on_the_thread_count(
        self, config_file, scenario_dir, tmp_path, monkeypatch
    ):
        # two CPUs, so that --threads 2 runs a pool on any machine; the manifest records the
        # thread count and the wall clock, so of it only the config digest must agree
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        outs = [tmp_path / "threads1", tmp_path / "threads2"]
        for threads, out in enumerate(outs, 1):
            argv = ["run", "--config", config_file, "--scenario", scenario_dir, "--out", str(out),
                    "--threads", str(threads), "--export-schedule"]
            assert main(argv) == 0
        for name in ("figure2.csv", "figure3.csv", "figure45.csv", "trials.csv", "schedule.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        serial, pooled = (json.loads((out / "manifest.json").read_text()) for out in outs)
        assert serial["config_sha256"] == pooled["config_sha256"]


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

    @pytest.mark.parametrize(
        "flag, value, code",
        [
            ("--indoor", "0.59", 2),
            ("--indoor", "0.6", 0),
            ("--indoor", "0.9", 0),
            ("--indoor", "0.91", 2),
            ("--traditional", "0.29", 2),
            ("--traditional", "0.3", 0),
            ("--traditional", "0.7", 0),
            ("--traditional", "0.71", 2),
        ],
    )
    def test_fractions_within_closed_interval(
        self, config_file, scenario_dir, capsys, flag, value, code
    ):
        # the configured ranges are indoor [0.6, 0.9] and traditional [0.3, 0.7], ends included
        fractions = {"--indoor": "0.7", "--traditional": "0.5", flag: value}
        argv = ["trial", "--config", config_file, "--scenario", scenario_dir, "--elevation", "90"]
        assert main(argv + [arg for pair in fractions.items() for arg in pair]) == code
        if code == 2:
            interval = "[0.6, 0.9]" if flag == "--indoor" else "[0.3, 0.7]"
            assert f"{value} outside {interval}" in capsys.readouterr().err

    def test_takes_no_trials_flag(self, config_file, scenario_dir, capsys):
        # the trial's stream is (master_seed, 0, 2) whatever the trial count
        argv = ["trial", "--config", config_file, "--scenario", scenario_dir, "--elevation", "90",
                "--indoor", "0.7", "--traditional", "0.5", "--trials", "3"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --trials 3" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", str(10**400)], ids=["zero", "401-digits"])
    def test_ignores_study_trials(self, scenario_dir, tmp_path, capsys, trials):
        # a trial is a study of one trial, whatever [study] trials says; a study is not
        stdout = []
        for extra in ("", f"trials = {trials}\n"):
            cfg = tmp_path / "trials.ini"
            cfg.write_text(SMALL_CONFIG.replace("trials = 3\n", extra))
            argv = ["trial", "--config", str(cfg), "--scenario", scenario_dir, "--elevation", "90",
                    "--indoor", "0.7", "--traditional", "0.5"]
            assert main(argv) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1]
        if trials == "0":
            out = tmp_path / "out"
            argv = ["run", "--config", str(cfg), "--scenario", scenario_dir, "--out", str(out)]
            assert main(argv) == 2
            assert "n_trials must be >= 1" in capsys.readouterr().err
            assert not out.exists()

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


class TestRuntimeDependencies:
    def test_cli_imports_no_scipy(self, config_file, scenario_dir, tmp_path):
        # scipy is a test dependency only; a fresh interpreter shows what the CLI itself imports
        script = (
            "import sys, hapsran.cli\n"
            "hapsran.cli.load_channel_tables()\n"
            "assert 'scipy' not in sys.modules, 'imported with hapsran.cli'\n"
            "assert hapsran.cli.main(sys.argv[1:]) == 0\n"
            "assert 'scipy' not in sys.modules, 'imported by hapsran run'\n"
        )
        argv = ["run", "--config", config_file, "--scenario", scenario_dir, "--out", str(tmp_path)]
        env = {**os.environ, "PYTHONPATH": str(Path(hapsran.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


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

    def test_config_value_is_its_text(self, scenario_dir, tmp_path, capsys):
        # no %(key)s interpolation: the text does not run as the trial count, 3
        cfg = tmp_path / "interpolated.ini"
        cfg.write_text(SMALL_CONFIG + "master_seed = %(trials)s\n")
        assert self.run(str(cfg), scenario_dir, tmp_path) == 2
        assert "[study] master_seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("link", "haps_height_km", "inf"),
            ("link", "bandwidth_hz", "inf"),
            ("link", "g_rx_dbi", "-inf"),
            ("link", "p_tx_dbm", "inf"),
            ("link", "f_c_ghz", "nan"),
            ("link", "noise_dbm", "nan"),
            ("energy", "p_tx_w", "inf"),
            ("energy", "e0", "inf"),
            ("study", "ue_density_per_km2", "inf"),
        ],
    )
    def test_env_value_not_finite(
        self, config_file, scenario_dir, tmp_path, capsys, monkeypatch, section, key, value
    ):
        # parsed as a float, each would run on to a plausible wrong number or a late failure
        monkeypatch.setenv(f"HAPSRAN_{section.upper()}_{key.upper()}", value)
        assert self.run(config_file, scenario_dir, tmp_path) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "trial"])
    @pytest.mark.parametrize("key, value", [("p_tx_dbm", "1e5"), ("bandwidth_hz", "1e308")])
    def test_link_overflow(
        self, config_file, scenario_dir, tmp_path, capsys, monkeypatch, command, key, value
    ):
        # each setting is finite, but every UE's rate overflows: c_haps would be inf
        monkeypatch.setenv(f"HAPSRAN_LINK_{key.upper()}", value)
        if command == "run":
            code = self.run(config_file, scenario_dir, tmp_path)
        else:
            code = main(["trial", "--config", config_file, "--scenario", scenario_dir,
                         "--elevation", "70", "--indoor", "0.7", "--traditional", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "c_haps is inf" in err and "[link]" in err and f"{key}={float(value)!r}" in err
        assert not (tmp_path / "o" / "trials.csv").exists()

    @pytest.mark.parametrize("command", ["run", "trial"])
    @pytest.mark.parametrize("aggregation", ["median", "p5"])
    def test_link_overflow_under_a_quantile(
        self, config_file, scenario_dir, tmp_path, capsys, monkeypatch, command, aggregation
    ):
        # only the best UEs' rates overflow, so the quantile, and c_haps, would stay finite
        monkeypatch.setenv("HAPSRAN_STUDY_AGGREGATION", aggregation)
        monkeypatch.setenv("HAPSRAN_LINK_BANDWIDTH_HZ", "1e308")
        if command == "run":
            code = self.run(config_file, scenario_dir, tmp_path)
        else:
            code = main(["trial", "--config", config_file, "--scenario", scenario_dir,
                         "--elevation", "70", "--indoor", "0.7", "--traditional", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "a UE's rate is inf" in captured.err and "[link]" in captured.err
        assert "bandwidth_hz=1e+308" in captured.err
        assert "c_haps" not in captured.out
        assert not (tmp_path / "o" / "trials.csv").exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [("p_tx_w", "1e308", "p_tx_w * dt_s / eta"), ("e_bb", "1e306", "e_bb=1e+306")],
    )
    def test_energy_overflow(
        self, config_file, scenario_dir, tmp_path, capsys, monkeypatch, key, value, named
    ):
        # each setting is finite, but a BS's dynamic term or the all-on week is not
        monkeypatch.setenv(f"HAPSRAN_ENERGY_{key.upper()}", value)
        assert self.run(config_file, scenario_dir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "[energy]" in err and named in err

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


class TestStudySettingsCheckedWhereTheyEnter:
    """A bad [study] or [offload] setting exits 2 naming its key, before --out is made."""

    def run(self, config_file, scenario_dir, tmp_path, *extra):
        argv = ["run", "--config", config_file, "--scenario", scenario_dir,
                "--out", str(tmp_path / "o"), "--trials", "1", *extra]
        return main(argv)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("study", "n_carriers", "0"),
            ("study", "ue_density_per_km2", "0"),
            ("study", "aggregation", "meen"),
            ("offload", "min_active_frac", "1.5"),
        ],
    )
    def test_bad_setting(
        self, config_file, scenario_dir, tmp_path, capsys, monkeypatch, section, key, value
    ):
        monkeypatch.setenv(f"HAPSRAN_{section.upper()}_{key.upper()}", value)
        assert self.run(config_file, scenario_dir, tmp_path) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_elevation_outside_the_channel_tables(
        self, config_file, scenario_dir, tmp_path, capsys, monkeypatch, seed
    ):
        # whether the one trial draws 95 degrees depends on the seed; the check does not
        monkeypatch.setenv("HAPSRAN_STUDY_ELEVATION_SET", "60.0,95.0")
        assert self.run(config_file, scenario_dir, tmp_path, "--seed", str(seed)) == 2
        err = capsys.readouterr().err
        assert "[study] elevation_set" in err and "95.0" in err
        assert not (tmp_path / "o").exists()
