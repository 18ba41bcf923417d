"""Malformed inputs at the boundaries: a channel-table file, a scenario sidecar, the rows
of a scenario CSV and the HAPSRAN_* variables; then scenario counts and UE populations
beyond the machine's memory, and extreme [link] settings.

Each mutation changes one thing in a valid input.  It must raise InvalidArgumentError in
the library and, through main, exit 2 (3 for JSON that does not parse, is not UTF-8 or
nests too deeply) before any trial runs or any output directory is made.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import fields
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapsran import (
    InvalidArgumentError,
    build_scenario,
    load_channel_tables,
    load_scenario,
    save_scenario,
)
from hapsran import LinkParams, _numeric, cli, montecarlo
from hapsran.cli import SCHEMA, main
from hapsran.hapscapacity import AGGREGATIONS, TrialConfig, aggregate_capacity, sample_ue_population

BUNDLED_TABLES = json.loads(
    (resources.files("hapsran.data") / "channel_tables_s_band_dense_urban.json").read_text()
)

SMALL_CONFIG = """\
[scenario]
n_bases = 30
m_targets = 20
seed = 9

[study]
trials = 2
ue_density_per_km2 = 100
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A config, the scenario it builds, and a one-BS and a three-BS scenario."""
    base = tmp_path_factory.mktemp("boundaries")
    (base / "small.ini").write_text(SMALL_CONFIG)
    assert main(["scenario", "--config", str(base / "small.ini"), "--out", str(base / "scenario")]) == 0
    for n in (1, 3):
        out = base / f"bs{n}"
        out.mkdir()
        save_scenario(build_scenario(8, n, seed=5), out / "scenario.csv", out / "scenario_stats.json")
    return base


def run_main(argv: list[str]) -> tuple[int, int, str]:
    """main(argv)'s exit code, the trials it ran and its stderr."""
    trials = []
    real = montecarlo.run_trial

    def counting(*args, **kwargs):
        trials.append(args)
        return real(*args, **kwargs)

    err = io.StringIO()
    with mock.patch.object(montecarlo, "run_trial", counting), contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, len(trials), err.getvalue()


def fresh_out(workdir: Path) -> Path:
    """An output path that no earlier call has made, so one escape fails one example only."""
    return Path(tempfile.mkdtemp(dir=workdir)) / "out"


def run_argv(workdir: Path, out: Path, *extra: str, scenario: Path | None = None) -> list[str]:
    scenario = scenario or workdir / "scenario"
    return ["run", "--config", str(workdir / "small.ini"), "--scenario", str(scenario),
            "--out", str(out), *extra]


def assert_rejected(argv: list[str], out: Path, code: int = 2) -> None:
    exit_code, trials, err = run_main(argv)
    assert (exit_code, trials) == (code, 0), err
    assert not out.exists()


# replacements of a JSON value by another type, by a non-finite number or by a negative one
_NULL_BOOL = st.one_of(st.none(), st.booleans())
_STRING = st.text(max_size=4)
_LIST = st.lists(st.integers(0, 9), max_size=2)
_DICT = st.dictionaries(st.sampled_from("ab"), st.integers(0, 9), max_size=2)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NEGATIVE = st.one_of(st.integers(max_value=-1), st.floats(min_value=-1e308, max_value=-1e-300))
_HUGE_INT = st.just(10**400)  # finite as a JSON int, but too large for a float

# JSON that does not parse as such: a byte that is not UTF-8, nesting deeper than the
# parser's recursion, and an int with more digits than Python converts
_UNPARSABLE_JSON = {
    "not UTF-8": lambda raw: raw.replace(b'"', b'"\xff', 1),
    "deep": lambda raw: b"[" * 100_000,
    "digits": lambda raw: b"1" * 5000,
}


def _leaves(doc, path=()):
    """The path of every scalar in a JSON document, list entries included."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


TABLE_LEAVES = list(_leaves(BUNDLED_TABLES))
TABLE_LISTS = [path for path in {leaf[:-1] for leaf in TABLE_LEAVES}
               if isinstance(_at(BUNDLED_TABLES, path), list)]
TABLE_DICTS = [(), ("sf_sigma",), ("clutter",), ("bel",),
               *(("bel", cls) for cls in BUNDLED_TABLES["bel"])]


@st.composite
def table_mutation(draw):
    """(what changed, the bundled tables with one leaf replaced or removed, the angles
    permuted, a list shortened, or a key added beside the others of a dict)."""
    doc = json.loads(json.dumps(BUNDLED_TABLES))
    kind = draw(st.sampled_from(["replace", "remove", "permute", "shorten", "add"]))
    if kind == "add":  # a copy of a sibling's value under a key that no reader knows
        path = draw(st.sampled_from(TABLE_DICTS))
        parent = _at(doc, path)
        key = draw(st.text(min_size=1, max_size=12).filter(lambda k: k not in parent))
        parent[key] = json.loads(json.dumps(parent[draw(st.sampled_from(sorted(parent)))]))
        return f"{path + (key,)} added", doc
    if kind == "permute":
        angles = doc["angles_deg"]
        doc["angles_deg"] = draw(st.permutations(angles).filter(lambda p: p != angles))
        return "angles_deg permuted", doc
    if kind == "shorten":
        path = draw(st.sampled_from(sorted(TABLE_LISTS)))
        values = _at(doc, path)
        del values[draw(st.integers(0, len(values) - 1)):]
        return f"{path} cut to {len(values)}", doc
    path = draw(st.sampled_from(TABLE_LEAVES))
    parent, key = _at(doc, path[:-1]), path[-1]
    if kind == "remove":
        del parent[key]  # from a list, this shortens it
        return f"{path} removed", doc
    if isinstance(parent[key], str):
        value = draw(st.one_of(_NULL_BOOL, _LIST, _DICT, _NON_FINITE, _NEGATIVE, _HUGE_INT))
    else:
        kinds = [_NULL_BOOL, _STRING, _LIST, _DICT, _NON_FINITE, _HUGE_INT]
        if path[0] != "bel":  # entry-loss coefficients may be negative
            kinds.append(_NEGATIVE)
        value = draw(st.one_of(kinds))
    parent[key] = value
    return f"{path} = {value!r}", doc


class TestChannelTables:
    @given(mutation=table_mutation())
    @settings(max_examples=200, deadline=None)
    def test_mutated_tables_are_rejected(self, workdir, mutation):
        what, doc = mutation
        path = workdir / "tables.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArgumentError):
            load_channel_tables(path)
        out = fresh_out(workdir)
        assert_rejected(run_argv(workdir, out, "--channel-tables", str(path)), out)

    def test_unparsable_tables_exit_3(self, workdir, tmp_path):
        path = tmp_path / "tables.json"
        path.write_text(json.dumps(BUNDLED_TABLES)[:-1])
        out = tmp_path / "out"
        assert_rejected(run_argv(workdir, out, "--channel-tables", str(path)), out, code=3)

    @pytest.mark.parametrize("defect", sorted(_UNPARSABLE_JSON))
    def test_json_that_cannot_be_read_exits_3(self, workdir, tmp_path, defect):
        path = tmp_path / "tables.json"
        path.write_bytes(_UNPARSABLE_JSON[defect](json.dumps(BUNDLED_TABLES).encode()))
        with pytest.raises(json.JSONDecodeError):
            load_channel_tables(path)
        out = tmp_path / "out"
        assert_rejected(run_argv(workdir, out, "--channel-tables", str(path)), out, code=3)


_STAT_FIELDS = ("peak", "p5", "mean", "capacity", "max_load")
_SIDECAR_KEYS = ("area_km2", "n_bs", "stats")


@st.composite
def sidecar_mutation(draw, n_bs: int):
    """(a path into a sidecar of n_bs stats, its replacement or ... to remove it):
    one top-level key or one stat field, or a top-level key that no reader knows."""
    values = [_NULL_BOOL, _STRING, _LIST, _DICT, _NON_FINITE, _NEGATIVE, _HUGE_INT]
    if draw(st.booleans()):  # such as a misspelt "areakm2"
        key = draw(st.text(min_size=1, max_size=12).filter(lambda k: k not in _SIDECAR_KEYS))
        return (key,), draw(st.one_of(st.just(1.0), *values))
    path = draw(st.one_of(
        st.tuples(st.sampled_from(_SIDECAR_KEYS)),
        st.tuples(st.just("stats"), st.integers(0, n_bs - 1), st.sampled_from(_STAT_FIELDS)),
    ))
    return path, draw(st.one_of(*values, st.just(...)))


def _mutated_sidecar(workdir: Path, n_bs: int, path, value) -> Path:
    """A copy of the n_bs scenario whose sidecar has path set to value (... removes it)."""
    source = workdir / f"bs{n_bs}"
    sidecar = json.loads((source / "scenario_stats.json").read_text())
    parent = _at(sidecar, path[:-1])
    if value is ...:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    out = workdir / f"mutated{n_bs}"
    out.mkdir(exist_ok=True)
    (out / "scenario.csv").write_bytes((source / "scenario.csv").read_bytes())
    (out / "scenario_stats.json").write_text(json.dumps(sidecar))
    return out


class TestScenarioSidecar:
    @pytest.mark.parametrize("n_bs", [1, 3])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_mutated_sidecar_is_rejected(self, workdir, n_bs, data):
        path, value = data.draw(sidecar_mutation(n_bs))
        scenario = _mutated_sidecar(workdir, n_bs, path, value)
        with pytest.raises(InvalidArgumentError):
            load_scenario(scenario / "scenario.csv", scenario / "scenario_stats.json")
        out = fresh_out(workdir)
        assert_rejected(run_argv(workdir, out, scenario=scenario), out)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_n_bs_must_be_an_int(self, workdir, value):
        # each equals 1, the count of one BS's stats
        scenario = _mutated_sidecar(workdir, 1, ("n_bs",), value)
        with pytest.raises(InvalidArgumentError, match="n_bs"):
            load_scenario(scenario / "scenario.csv", scenario / "scenario_stats.json")

    def test_unparsable_sidecar_exits_3(self, workdir, tmp_path):
        scenario = _mutated_sidecar(workdir, 3, ("n_bs",), 3)
        text = (scenario / "scenario_stats.json").read_text()
        (scenario / "scenario_stats.json").write_text(text[:-1])
        out = tmp_path / "out"
        assert_rejected(run_argv(workdir, out, scenario=scenario), out, code=3)

    @pytest.mark.parametrize("defect", sorted(_UNPARSABLE_JSON))
    def test_json_that_cannot_be_read_exits_3(self, workdir, tmp_path, defect):
        scenario = _mutated_sidecar(workdir, 3, ("n_bs",), 3)
        sidecar = scenario / "scenario_stats.json"
        sidecar.write_bytes(_UNPARSABLE_JSON[defect](sidecar.read_bytes()))
        with pytest.raises(json.JSONDecodeError):
            load_scenario(scenario / "scenario.csv", sidecar)
        out = tmp_path / "out"
        assert_rejected(run_argv(workdir, out, scenario=scenario), out, code=3)

    def test_unknown_key_is_named(self, workdir, tmp_path):
        scenario = _mutated_sidecar(workdir, 3, ("areakm2",), 30.0)
        out = tmp_path / "out"
        code, _, err = run_main(run_argv(workdir, out, scenario=scenario))
        assert code == 2 and "'areakm2'" in err, err


_ROW_MUTATIONS = ["swap", "duplicate", "delete", "bs_id", "hour", "rate", "cell", "blank"]
# rate cells that are no rate: NaN, infinite, negative or no number at all
_BAD_RATES = ["nan", "inf", "-inf", "-1", "-1.0", "abc", "", "1..0", "0x10"]


@st.composite
def scenario_rows_mutation(draw, lines: list[bytes], limits: list[float]):
    """(what changed, scenario.csv's lines with one row swapped with another, duplicated,
    deleted, given another bs_id or hour, given a rate that is no rate or above its BS's
    max_load * capacity, given one more cell, or preceded by a blank line)."""
    rows = lines[1:]
    k = draw(st.integers(0, len(rows) - 1), label="row")
    kind = draw(st.sampled_from(_ROW_MUTATIONS), label="kind")
    cells = rows[k].split(b",")
    if kind == "swap":
        j = draw(st.integers(0, len(rows) - 1).filter(lambda j: j != k), label="other")
        rows[j], rows[k] = rows[k], rows[j]
    elif kind == "duplicate":
        rows.insert(k, rows[k])
    elif kind == "delete":
        del rows[k]
    elif kind == "blank":
        rows.insert(draw(st.integers(1, len(rows) - 1), label="at"), b"")
    elif kind == "cell":
        rows[k] += b"," + draw(st.sampled_from([b"0", b"1.5", b""]))
    elif kind == "rate":
        limit = limits[int(cells[0])]
        above = repr(limit * draw(st.floats(1 + 1e-6, 1e6), label="times")).encode()
        cells[2] = draw(st.sampled_from([above, *(r.encode() for r in _BAD_RATES)]))
        rows[k] = b",".join(cells)
    else:  # another bs_id or hour, whether in range or not
        column = 0 if kind == "bs_id" else 1
        value = draw(st.integers(-2, 2**70).filter(lambda v: v != int(cells[column])))
        cells[column] = str(value).encode()
        rows[k] = b",".join(cells)
    return f"{kind} at row {k}", [lines[0], *rows]


def _with_trailing_zeros(cell: bytes) -> bytes:
    """The rate cell written with three more zeros in its mantissa: the same value."""
    mantissa, e, exponent = cell.partition(b"e")
    return mantissa + (b"" if b"." in mantissa else b".") + b"000" + e + exponent


class TestScenarioRows:
    @pytest.fixture(scope="class")
    def source(self, workdir):
        """The lines of the small scenario's CSV, and each BS's max_load * capacity."""
        scenario = workdir / "scenario"
        lines = (scenario / "scenario.csv").read_bytes().split(b"\r\n")
        assert lines.pop() == b""
        stats = json.loads((scenario / "scenario_stats.json").read_text())["stats"]
        return lines, [s["max_load"] * s["capacity"] for s in stats]

    def _write(self, workdir: Path, lines: list[bytes]) -> Path:
        out = Path(tempfile.mkdtemp(dir=workdir))
        (out / "scenario.csv").write_bytes(b"\r\n".join(lines) + b"\r\n")
        sidecar = workdir / "scenario" / "scenario_stats.json"
        (out / "scenario_stats.json").write_bytes(sidecar.read_bytes())
        return out

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_rows_are_rejected(self, workdir, source, data):
        lines, limits = source
        what, mutated = data.draw(scenario_rows_mutation(list(lines), limits))
        scenario = self._write(workdir, mutated)
        with pytest.raises(InvalidArgumentError):
            load_scenario(scenario / "scenario.csv", scenario / "scenario_stats.json")
        out = fresh_out(workdir)
        assert_rejected(run_argv(workdir, out, scenario=scenario), out)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rate_with_trailing_zeros_loads_the_same_matrix(self, workdir, source, data):
        lines, _ = source
        rewritten = list(lines)
        for k in data.draw(st.lists(st.integers(1, len(lines) - 1), min_size=1, max_size=20)):
            bs_id, hour, rate = rewritten[k].split(b",")
            rewritten[k] = b",".join([bs_id, hour, _with_trailing_zeros(rate)])
        original = workdir / "scenario"
        scenario = self._write(workdir, rewritten)
        expected = load_scenario(original / "scenario.csv", original / "scenario_stats.json")
        loaded = load_scenario(scenario / "scenario.csv", scenario / "scenario_stats.json")
        assert loaded.rate_matrix.tobytes() == expected.rate_matrix.tobytes()


# text that no SCHEMA parser reads: int, float and a comma-separated float list
_UNPARSABLE = ["", "abc", "0x1f", "1 2", "1;2"]
_NOT_FINITE = ["nan", "inf", "-inf", "1e309"]
# parsable values outside each setting's domain
_OUT_OF_DOMAIN = {
    "scenario": {"n_bases": ["0", "-1", str(10**26), str(2**60)],
                 "m_targets": ["0", "-1", str(10**26), str(2**60)], "seed": ["-1"],
                 "area_km2": ["0", "-1"]},
    "energy": {"e0": ["-1"], "e_bb": ["-1"], "e_tran": ["-1"], "e_pa": ["-1"],
               "eta": ["0", "1.5"], "p_tx_w": ["0", "-1"], "dt_s": ["0", "-1"]},
    "link": {"n_rows": ["0", "-1"], "m_cols": ["0", "-1"], "f_c_ghz": ["0", "-1"],
             "haps_height_km": ["0", "-1"], "bandwidth_hz": ["0", "-1"]},
    "study": {"master_seed": ["-1"],
              "elevation_set": ["0", "-10", "95", "60,95"],
              "indoor_min": ["-0.5", "1.5"], "indoor_max": ["-0.5", "1.5"],
              "traditional_min": ["-0.5", "1.5"], "traditional_max": ["-0.5", "1.5"],
              "trials": ["0", "-1", str(10**400)],
              "ue_density_per_km2": ["0", "-1", "1e300"], "n_carriers": ["0", "-1", str(10**400)],
              "aggregation": ["", "bogus", "MEAN"]},
    "offload": {"min_active_frac": ["-0.1", "1.5"]},
}
SETTINGS = [(section, key) for section, keys in SCHEMA.items() for key in keys]


def _malformed(section: str, key: str) -> list[str]:
    parse = SCHEMA[section][key]
    if parse is str:
        texts = []
    elif parse is int:
        texts = _UNPARSABLE + ["1.5", "1e3"]
    else:
        texts = _UNPARSABLE + _NOT_FINITE
    return texts + _OUT_OF_DOMAIN[section].get(key, [])


class TestEnvironment:
    def test_out_of_domain_values_name_settings(self):
        for section, keys in _OUT_OF_DOMAIN.items():
            assert set(keys) <= set(SCHEMA[section]), section

    @pytest.mark.parametrize("section, key", SETTINGS, ids=[f"{s}.{k}" for s, k in SETTINGS])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_malformed_variable_is_rejected(self, workdir, section, key, data):
        value = data.draw(st.sampled_from(_malformed(section, key)), label="value")
        out = fresh_out(workdir)
        if section == "scenario":
            argv = ["scenario", "--config", str(workdir / "small.ini"), "--out", str(out)]
        else:
            argv = run_argv(workdir, out)
        with mock.patch.dict(os.environ, {cli._env_key(section, key): value}):
            args = cli.build_parser().parse_args(argv)
            with pytest.raises(InvalidArgumentError):
                args.func(args)
            assert_rejected(argv, out)


    def test_undecodable_config_exits_2(self, workdir, tmp_path):
        config = tmp_path / "config.ini"
        config.write_bytes(b"# caf\xe9\n" + SMALL_CONFIG.encode())
        with pytest.raises(InvalidArgumentError, match="malformed config file"):
            cli.load_config(str(config))
        out = tmp_path / "out"
        argv = run_argv(workdir, out)
        argv[argv.index("--config") + 1] = str(config)
        assert_rejected(argv, out)


class TestScenarioMemory:
    def test_counts_beyond_physical_memory_exit_2(self, workdir, monkeypatch):
        # 1010 rows at 4400 bytes each are 4.4 MB: a small build even without the check
        monkeypatch.setattr(_numeric, "physical_memory_bytes", lambda: 1 << 20)
        monkeypatch.setenv("HAPSRAN_SCENARIO_N_BASES", "1000")
        monkeypatch.setenv("HAPSRAN_SCENARIO_M_TARGETS", "10")
        out = fresh_out(workdir)
        code, _, err = run_main(["scenario", "--config", str(workdir / "small.ini"), "--out", str(out)])
        assert code == 2, err
        assert "[scenario] n_bases" in err and "m_targets" in err
        assert not out.exists()

    @pytest.mark.parametrize("density, threads", [("700", "1"), ("300", "2")])
    def test_ue_population_beyond_physical_memory_exits_2(
        self, workdir, monkeypatch, density, threads
    ):
        # 21,000 UEs, or 9000 on each of two workers, at 96 bytes each exceed 1 MiB; two
        # CPUs let two workers run
        monkeypatch.setattr(_numeric, "physical_memory_bytes", lambda: 1 << 20)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HAPSRAN_STUDY_UE_DENSITY_PER_KM2", density)
        out = fresh_out(workdir)
        code, trials, err = run_main(run_argv(workdir, out, "--threads", threads))
        assert (code, trials) == (2, 0), err
        assert "[study] ue_density_per_km2" in err and "area_km2 of 30.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("area", [30.0, 1e300])
    def test_ue_count_numpy_cannot_allocate_exits_2(self, workdir, monkeypatch, area):
        # 1e300 UEs per km2 stop in StudyConfig, whatever the memory, over a sidecar area
        # whose product with the density is finite or is not
        scenario = Path(tempfile.mkdtemp(dir=workdir))
        original = workdir / "scenario"
        (scenario / "scenario.csv").write_bytes((original / "scenario.csv").read_bytes())
        sidecar = json.loads((original / "scenario_stats.json").read_text())
        sidecar["area_km2"] = area
        (scenario / "scenario_stats.json").write_text(json.dumps(sidecar))
        monkeypatch.setenv("HAPSRAN_STUDY_UE_DENSITY_PER_KM2", "1e300")
        out = fresh_out(workdir)
        code, trials, err = run_main(run_argv(workdir, out, scenario=scenario))
        assert (code, trials) == (2, 0), err
        assert "[study] ue_density_per_km2" in err and f"area_km2 of {area}" in err
        assert not out.exists()

    def test_results_beyond_physical_memory_exit_2(self, workdir, monkeypatch):
        # 3000 UEs fit in 1 MiB, but the results of 200 trials, 9.5 KiB each, do not
        monkeypatch.setattr(_numeric, "physical_memory_bytes", lambda: 1 << 20)
        out = fresh_out(workdir)
        code, trials, err = run_main(run_argv(workdir, out, "--trials", "200"))
        assert (code, trials) == (2, 0), err
        assert "[study] trials" in err and "--trials" in err and "200 trials" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "env, command",
        [({"HAPSRAN_STUDY_UE_DENSITY_PER_KM2": "1e16"}, "run"),
         ({"HAPSRAN_SCENARIO_N_BASES": str(2**60)}, "scenario")],
        ids=["ue_density", "n_bases"],
    )
    def test_unknown_memory_falls_back_to_numpy_limit(self, workdir, monkeypatch, env, command):
        # where os.sysconf cannot tell the memory, the limit is the largest array numpy indexes
        monkeypatch.setattr(_numeric, "physical_memory_bytes", lambda: None)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = fresh_out(workdir)
        if command == "run":
            argv = run_argv(workdir, out)
        else:
            argv = ["scenario", "--config", str(workdir / "small.ini"), "--out", str(out)]
        code, trials, err = run_main(argv)
        assert (code, trials) == (2, 0), err
        assert "numpy's largest array" in err
        assert not out.exists()

    def test_memory_is_unknown_without_sysconf(self, monkeypatch):
        assert _numeric.physical_memory_bytes() is None or _numeric.physical_memory_bytes() > 0
        monkeypatch.delattr(os, "sysconf", raising=False)
        assert _numeric.physical_memory_bytes() is None


_LINK_FIELDS = [f.name for f in fields(LinkParams)]
_LINK_EXTREMES = [1e308, -1e308, 1e-308, -1e-308, 5e-324, 0.0, 1e15, -1e15,
                  math.nan, math.inf, -math.inf]


@st.composite
def extreme_link_settings(draw) -> dict:
    """One to three LinkParams fields, each set to an extreme or a non-finite value."""
    names = draw(st.lists(st.sampled_from(_LINK_FIELDS), min_size=1, max_size=3, unique=True))
    return {name: draw(st.sampled_from(_LINK_EXTREMES)) for name in names}


@pytest.fixture(scope="module")
def population(tables):
    cfg = TrialConfig(elevation_deg=60.0, indoor_frac=0.75, traditional_frac=0.5, rng_stream=3)
    return sample_ue_population(cfg, tables, 300)  # 10 UEs per km2 over 30 km2


class TestExtremeLinkSettings:
    """LinkParams rejects a setting, or every aggregation gives a finite c_haps >= 0 or
    rejects it, without a RuntimeWarning; through main, such a setting exits 0 or 2."""

    @given(link=extreme_link_settings())
    @settings(max_examples=300, deadline=None)
    def test_library(self, tables, population, link):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                params = LinkParams(**link)
            except InvalidArgumentError:
                return
            for aggregation in AGGREGATIONS:
                try:
                    c_haps = aggregate_capacity(params, tables, population, 6, aggregation=aggregation)
                except InvalidArgumentError:
                    continue
                assert math.isfinite(c_haps) and c_haps >= 0, (aggregation, c_haps)

    @given(link=extreme_link_settings())
    @settings(max_examples=40, deadline=None)
    def test_cli(self, workdir, link):
        env = {cli._env_key("link", name): repr(value) for name, value in link.items()}
        with mock.patch.dict(os.environ, env):
            code, _, err = run_main(run_argv(workdir, fresh_out(workdir), "--trials", "1"))
        assert code in (0, 2), err
