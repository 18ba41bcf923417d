import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapsran import (
    BSStats,
    DegenerateTraceError,
    InvalidArgumentError,
    NoCandidateError,
    TrafficScenario,
    WeeklyTrace,
    build_scenario,
    generate_base_traces,
    generate_target_stats,
    load_scenario,
    match_trace,
    save_scenario,
    scale_trace,
)
from hapsran import traffic
from hapsran.traffic import HOURS_PER_WEEK, percentile_nearest_rank


def stats_for(trace, capacity=None, max_load=1.0):
    capacity = capacity if capacity is not None else trace.peak / max_load + 1.0
    return BSStats(
        peak=trace.peak, p5=trace.p5, mean=trace.mean, capacity=capacity, max_load=max_load
    )


def scan_reference(base_matrix, targets):
    """The exhaustive scan: per target, scale every usable base and keep the nearest mean."""
    peaks = base_matrix.max(axis=1)
    p5s = np.array([percentile_nearest_rank(row, 0.05) for row in base_matrix])
    usable = peaks > p5s
    rows = []
    for target in targets:
        a = (target.peak - target.p5) / np.where(usable, peaks - p5s, 1.0)
        b = target.p5 - a * p5s
        scaled = np.clip(a[:, None] * base_matrix + b[:, None], 0.0, None)
        dev = np.where(usable, np.abs(scaled.mean(axis=1) - target.mean), np.inf)
        rows.append(scaled[np.argmin(dev)])  # argmin keeps the lowest index on ties
    return np.array(rows)


def count_scans(monkeypatch):
    """Record the row that each call of the matcher's exhaustive-scan fallback picks."""
    picks = []
    scan = traffic._nearest_by_scan

    def counting(*args):
        picks.append(scan(*args))
        return picks[-1]

    monkeypatch.setattr(traffic, "_nearest_by_scan", counting)
    return picks


def assert_matches_scan(base_matrix, targets):
    """_matched_rows gives scan_reference's rows, bit for bit, and warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = traffic._matched_rows(base_matrix, targets)
    expected = scan_reference(base_matrix, targets)
    assert np.array_equal(rows, expected)
    return expected


class TestWeeklyTrace:
    def test_length_enforced(self):
        with pytest.raises(InvalidArgumentError):
            WeeklyTrace(np.ones(167))

    def test_negative_rejected(self):
        values = np.ones(HOURS_PER_WEEK)
        values[3] = -0.1
        with pytest.raises(InvalidArgumentError):
            WeeklyTrace(values)

    def test_p5_is_nearest_rank(self):
        values = np.arange(HOURS_PER_WEEK, dtype=float)
        trace = WeeklyTrace(values)
        # ceil(0.05*168) = 9th smallest value
        assert trace.p5 == 8.0
        assert trace.p5 == percentile_nearest_rank(values, 0.05)


class TestBSStats:
    @pytest.mark.parametrize("name", ["peak", "p5", "mean", "capacity", "max_load"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_field_rejected(self, name, value):
        valid = dict(peak=100.0, p5=20.0, mean=60.0, capacity=200.0, max_load=0.6)
        BSStats(**valid)
        with pytest.raises(InvalidArgumentError):
            BSStats(**{**valid, name: value})

    @pytest.mark.parametrize("name", ["peak", "p5", "mean", "capacity", "max_load"])
    @pytest.mark.parametrize("value", [True, False, "60.0", None, [1.0]])
    def test_bool_or_non_real_field_rejected(self, name, value):
        # a bool is an int, so without the type check max_load=True would pass as 1.0
        valid = dict(peak=100.0, p5=20.0, mean=60.0, capacity=200.0, max_load=0.6)
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be a real number"):
            BSStats(**{**valid, name: value})

    def test_ints_and_numpy_floats_accepted(self):
        BSStats(0, 0, 0, 10, 1)
        BSStats(*np.array([100.0, 20.0, 60.0, 200.0, 0.6]))


class TestGenerateBaseTraces:
    def test_count_and_length(self):
        traces = generate_base_traces(1419, seed=42)
        assert len(traces) == 1419
        assert all(t.values.shape == (HOURS_PER_WEEK,) for t in traces)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_night_trough_below_mean(self, seed):
        (trace,) = generate_base_traces(1, seed=seed)
        assert trace.values[:6].min() < trace.mean

    def test_deterministic(self):
        a = generate_base_traces(10, seed=7)
        b = generate_base_traces(10, seed=7)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.values, tb.values)

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_base_traces(0, seed=1)


class TestGenerateTargetStats:
    def test_count(self):
        assert len(generate_target_stats(960, seed=1)) == 960

    def test_invariants(self):
        for s in generate_target_stats(100, seed=3):
            assert 0 <= s.p5 <= s.mean <= s.peak
            assert s.peak <= s.max_load * s.capacity

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_target_stats(0, seed=1)


class TestScaleTrace:
    def test_two_point_fit(self):
        base_values = np.linspace(2.0, 10.0, HOURS_PER_WEEK)
        base = WeeklyTrace(base_values)
        target = BSStats(peak=100.0, p5=20.0, mean=60.0, capacity=200.0, max_load=0.6)
        scaled = scale_trace(base, target)
        assert scaled.peak == pytest.approx(100.0, rel=1e-12)
        assert scaled.p5 == pytest.approx(20.0, rel=1e-12)

    def test_identity(self):
        (base,) = generate_base_traces(1, seed=5)
        scaled = scale_trace(base, stats_for(base))
        np.testing.assert_allclose(scaled.values, base.values, rtol=1e-12)

    def test_degenerate_rejected(self):
        base = WeeklyTrace(np.full(HOURS_PER_WEEK, 3.0))
        with pytest.raises(DegenerateTraceError):
            scale_trace(base, stats_for(WeeklyTrace(np.linspace(1, 2, HOURS_PER_WEEK))))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_statistics_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        base = WeeklyTrace(rng.uniform(1.0, 10.0, HOURS_PER_WEEK))
        (target,) = generate_target_stats(1, seed=seed)
        scaled = scale_trace(base, target)
        assert scaled.peak == pytest.approx(target.peak, rel=1e-9)
        assert scaled.p5 == pytest.approx(target.p5, rel=1e-9)

    def test_correlation_preserved_without_clipping(self):
        rng = np.random.default_rng(2)
        base = WeeklyTrace(rng.uniform(5.0, 10.0, HOURS_PER_WEEK))
        target = BSStats(peak=100.0, p5=60.0, mean=80.0, capacity=200.0, max_load=0.6)
        scaled = scale_trace(base, target)
        assert scaled.values.min() > 0  # no clipping in this setup
        corr = np.corrcoef(base.values, scaled.values)[0, 1]
        assert corr == pytest.approx(1.0, abs=1e-12)


class TestMatchTrace:
    def test_nearest_mean_selected(self):
        # both bases already have peak 10 and p5 2, so scaling to the target
        # (peak 10, p5 2) is the identity and only the means differ
        low = np.full(HOURS_PER_WEEK, 2.0)
        low[-10:] = 10.0
        high = np.full(HOURS_PER_WEEK, 10.0)
        high[:9] = 2.0
        bases = [WeeklyTrace(low), WeeklyTrace(high)]
        assert bases[0].p5 == bases[1].p5 == 2.0
        target = BSStats(
            peak=10.0,
            p5=2.0,
            mean=bases[1].mean - 0.1,
            capacity=20.0,
            max_load=0.9,
        )
        chosen = match_trace(bases, target)
        np.testing.assert_allclose(chosen.values, high, rtol=1e-12)

    def test_singleton(self):
        (base,) = generate_base_traces(1, seed=3)
        chosen = match_trace([base], stats_for(base))
        np.testing.assert_allclose(chosen.values, base.values, rtol=1e-12)

    def test_empty_rejected(self):
        (target,) = generate_target_stats(1, seed=1)
        with pytest.raises(NoCandidateError):
            match_trace([], target)

    def test_exhaustive_scan_oracle(self):
        bases = generate_base_traces(100, seed=9)
        (target,) = generate_target_stats(1, seed=9)
        chosen = match_trace(bases, target)
        # independent oracle: scale every base individually and scan
        deviations = [abs(scale_trace(base, target).mean - target.mean) for base in bases]
        expected = scale_trace(bases[int(np.argmin(deviations))], target)
        assert np.array_equal(chosen.values, expected.values)

    def test_all_degenerate_rejected(self):
        (target,) = generate_target_stats(1, seed=1)
        bases = [WeeklyTrace(np.full(HOURS_PER_WEEK, level)) for level in (0.0, 2.0, 2.0)]
        with pytest.raises(NoCandidateError):
            match_trace(bases, target)

    @pytest.mark.parametrize(
        "target",
        [BSStats(5.0, 5.0, 5.0, 10.0, 1.0), BSStats(0, 0, 0, 10, 1)],
        ids=["peak_eq_p5", "all_zero"],
    )
    def test_flat_target(self, target):
        # a = 0: every value is kept, and every usable base scales to the constant p5
        bases = [WeeklyTrace(np.full(HOURS_PER_WEEK, 3.0)), *generate_base_traces(10, seed=1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chosen = match_trace(bases, target)
        expected = scan_reference(np.stack([b.values for b in bases]), [target])[0]
        assert np.array_equal(chosen.values, expected)
        assert np.array_equal(chosen.values, np.full(HOURS_PER_WEEK, float(target.p5)))


class TestBuildScenario:
    def test_shape(self):
        scenario = build_scenario(30, 20, seed=1)
        assert scenario.n_bs == 20
        assert scenario.rate_matrix.shape == (20, HOURS_PER_WEEK)

    def test_load_never_exceeds_cap(self, small_scenario):
        caps = np.array([s.max_load * s.capacity for s in small_scenario.stats])
        assert np.all(small_scenario.rate_matrix <= caps[:, None] * (1 + 1e-9))

    def test_deterministic(self):
        a = build_scenario(10, 5, seed=11)
        b = build_scenario(10, 5, seed=11)
        np.testing.assert_array_equal(a.rate_matrix, b.rate_matrix)
        assert a.stats == b.stats

    def test_traces_are_views_of_one_read_only_matrix(self, small_scenario):
        assert not small_scenario.rate_matrix.flags.writeable
        for trace in small_scenario.traces:
            assert np.shares_memory(trace.values, small_scenario.rate_matrix)

    def test_matches_per_target_oracle(self, small_scenario):
        # same inputs as the small_scenario fixture: build_scenario(60, 40, seed=11)
        base_matrix = np.stack([t.values for t in generate_base_traces(60, seed=11)])
        expected = scan_reference(base_matrix, generate_target_stats(40, seed=11))
        np.testing.assert_array_equal(small_scenario.rate_matrix, expected)

    def test_rows_are_scale_trace_outputs(self, small_scenario):
        # build_scenario and scale_trace share one scaling kernel, bit for bit
        bases = generate_base_traces(60, seed=11)
        usable = [b for b in bases if b.peak > b.p5]
        for row, target in zip(small_scenario.rate_matrix, generate_target_stats(40, seed=11)):
            assert any(np.array_equal(row, scale_trace(b, target).values) for b in usable)

    @pytest.mark.parametrize(
        "stats_kwargs",
        [dict(p5_ratio_range=(1.0, 1.0)), dict(peak_load_range=(0.0, 0.0))],
        ids=["peak_eq_p5", "all_zero"],
    )
    def test_flat_targets(self, stats_kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario = build_scenario(30, 5, seed=2, **stats_kwargs)
        targets = generate_target_stats(5, seed=2, **stats_kwargs)
        assert all(t.peak == t.p5 for t in targets)
        base_matrix = np.stack([t.values for t in generate_base_traces(30, seed=2)])
        np.testing.assert_array_equal(scenario.rate_matrix, scan_reference(base_matrix, targets))


def _target(peak, p5_frac, mean_frac):
    p5 = peak * p5_frac
    mean = min(p5 + (peak - p5) * mean_frac, peak)
    return BSStats(peak=peak, p5=p5, mean=mean, capacity=2 * peak + 1, max_load=1.0)


_targets = st.one_of(
    st.builds(
        _target,
        peak=st.floats(1e-3, 1e3),
        # p5 0 clips heavily; p5 == peak is a flat target
        p5_frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        mean_frac=st.floats(0.0, 1.0),
    ),
    st.just(BSStats(0, 0, 0, 1, 1)),
)


@st.composite
def _matcher_cases(draw):
    """Diurnal and random base rows among duplicated, constant and near-degenerate ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["diurnal", "random", "duplicate", "constant", "near_degenerate", "huge"]
    rows = [generate_base_traces(1, seed=int(rng.integers(1 << 30)))[0].values]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=7)):
        if kind == "diurnal":
            rows.append(generate_base_traces(1, seed=int(rng.integers(1 << 30)))[0].values)
        elif kind == "random":
            rows.append(rng.uniform(0.0, 1.0, HOURS_PER_WEEK) ** rng.uniform(0.2, 5.0) * 10.0)
        elif kind == "duplicate":
            rows.append(rows[rng.integers(len(rows))])
        elif kind == "constant":
            rows.append(np.full(HOURS_PER_WEEK, rng.uniform(0.0, 10.0)))
        elif kind == "huge":  # its sum overflows: the scan must decide, without a warning
            rows.append(rng.uniform(0.0, 1.0, HOURS_PER_WEEK) * 1e308)
        else:  # a span of about 1e-9 of the level
            level = rng.uniform(1.0, 1e3)
            rows.append(level * (1.0 + 1e-9 * rng.uniform(0.0, 1.0, HOURS_PER_WEEK)))
    return np.array(rows), draw(st.lists(_targets, min_size=1, max_size=6))


class TestMatcherEqualsScan:
    """_matched_rows returns the exhaustive scan's rows, bit for bit."""

    @given(_matcher_cases())
    @settings(max_examples=80, deadline=None)
    def test_drawn_cases(self, case):
        assert_matches_scan(*case)

    def test_clear_picks_skip_the_scan(self, monkeypatch):
        picks = count_scans(monkeypatch)
        base_matrix = np.stack([t.values for t in generate_base_traces(60, seed=11)])
        targets = generate_target_stats(40, seed=11)
        assert_matches_scan(base_matrix, targets)
        assert picks == []

    def test_duplicate_rows_tie_to_the_lower_index(self, monkeypatch):
        picks = count_scans(monkeypatch)
        base_matrix = np.stack([t.values for t in generate_base_traces(5, seed=3)])
        base_matrix = np.vstack([base_matrix, base_matrix])  # row i + 5 equals row i
        targets = generate_target_stats(20, seed=3)
        assert_matches_scan(base_matrix, targets)
        # an exact tie cannot be certified, and the scan keeps the lower row
        assert len(picks) == len(targets) and max(picks) < 5

    def test_constant_rows_and_clipping_targets(self):
        bases = np.stack([t.values for t in generate_base_traces(20, seed=5)])
        base_matrix = np.insert(bases, [0, 7, 20], np.full(HOURS_PER_WEEK, 1.5), axis=0)
        targets = generate_target_stats(30, seed=5, p5_ratio_range=(0.0, 0.0))
        assert all(t.p5 == 0 for t in targets)
        expected = assert_matches_scan(base_matrix, targets)
        assert np.all(expected.min(axis=1) == 0.0)  # p5 = 0: the low hours are clipped

    def test_near_degenerate_base_takes_the_scan(self, monkeypatch):
        # shape and level * (1 + 1e-9 * shape/max) scale to the same trace in exact
        # arithmetic; in floating point the second one's scaling cancels about 9 digits
        picks = count_scans(monkeypatch)
        shape = generate_base_traces(1, seed=4)[0].values
        base_matrix = np.stack([shape, 100.0 * (1.0 + 1e-9 * shape / shape.max())])
        targets = generate_target_stats(5, seed=4)
        assert_matches_scan(base_matrix, targets)
        assert len(picks) == len(targets)

    def test_near_tie_takes_the_scan(self, monkeypatch):
        # two rows whose scaled means differ by about 6e-14 of their size: too close to
        # certify, but far enough apart that the scan picks the higher mean every time
        picks = count_scans(monkeypatch)
        shape = generate_base_traces(1, seed=6)[0].values
        bumped = shape.copy()
        k = np.argsort(shape)[HOURS_PER_WEEK // 2]  # neither the peak nor the 5th percentile
        bumped[k] *= 1.0 + 1e-11
        base_matrix = np.stack([shape, bumped])
        targets = [_target(peak, 0.2, 0.9) for peak in (1.0, 30.0, 500.0)]
        assert all(t.mean > scale_trace(WeeklyTrace(bumped), t).mean for t in targets)
        assert_matches_scan(base_matrix, targets)
        assert picks == [1] * len(targets)


class TestTrafficScenario:
    @pytest.mark.parametrize("defect", ["rows", "hours", "nan", "negative", "over_cap"])
    def test_bad_matrix_rejected(self, small_scenario, defect):
        rates = np.array(small_scenario.rate_matrix)
        stats = small_scenario.stats
        if defect == "rows":
            rates = rates[:-1]
        elif defect == "hours":
            rates = rates[:, :-1]
        elif defect == "nan":
            rates[3, 7] = np.nan
        elif defect == "negative":
            rates[3, 7] = -1e-6
        else:
            rates[3, 7] = stats[3].max_load * stats[3].capacity * 1.01
        with pytest.raises(InvalidArgumentError):
            TrafficScenario(rate_matrix=rates, stats=stats)


class TestScenarioIO:
    def test_round_trip(self, small_scenario, tmp_path):
        csv_path = tmp_path / "scenario.csv"
        stats_path = tmp_path / "stats.json"
        save_scenario(small_scenario, csv_path, stats_path)
        loaded = load_scenario(csv_path, stats_path)
        np.testing.assert_array_equal(loaded.rate_matrix, small_scenario.rate_matrix)
        assert loaded.stats == small_scenario.stats
        assert loaded.area_km2 == small_scenario.area_km2

    def test_rewrite_is_byte_identical(self, small_scenario, tmp_path):
        paths = [(tmp_path / f"s{i}.csv", tmp_path / f"s{i}.json") for i in (0, 1)]
        for csv_path, stats_path in paths:
            save_scenario(small_scenario, csv_path, stats_path)
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_csv_is_repr_rendering_of_matrix(self, small_scenario, tmp_path):
        csv_path = tmp_path / "scenario.csv"
        save_scenario(small_scenario, csv_path, tmp_path / "stats.json")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["bs_id", "hour", "rate_mbps"])
        for i in range(small_scenario.n_bs):
            for h in range(HOURS_PER_WEEK):
                writer.writerow([i, h, repr(float(small_scenario.rate_matrix[i, h]))])
        assert csv_path.read_bytes() == expected.getvalue().encode()

    @given(data=st.data(), n=st.integers(1, 3), cap=st.floats(1e-300, 1e300))
    @settings(max_examples=40, deadline=None)
    def test_reload_parses_every_repr_exactly(self, data, n, cap):
        # zero, subnormals and values at or next to the BSs' shared cap, among arbitrary floats
        near_cap = st.sampled_from([0.0, 5e-324, 2.2e-308, cap, float(np.nextafter(cap, 0))])
        value = st.one_of(near_cap, st.floats(0.0, cap))
        rates = np.resize(data.draw(st.lists(value, min_size=1, max_size=60)), (n, HOURS_PER_WEEK))
        stats = tuple(
            BSStats(peak=row.max(), p5=row.min(), mean=row.min(), capacity=cap, max_load=1.0)
            for row in rates
        )
        scenario = TrafficScenario(rate_matrix=rates, stats=stats)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, stats_path = Path(tmp) / "s.csv", Path(tmp) / "s.json"
            save_scenario(scenario, csv_path, stats_path)
            loaded = load_scenario(csv_path, stats_path)
        assert np.array_equal(loaded.rate_matrix, rates)
        assert loaded.stats == stats


@pytest.fixture(scope="module")
def tiny_scenario_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    save_scenario(build_scenario(8, 3, seed=5), out / "scenario.csv", out / "stats.json")
    lines = (out / "scenario.csv").read_text().splitlines(keepends=True)
    return lines, (out / "stats.json").read_text()


def _load_text(csv_text: str, stats_text: str):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, stats_path = Path(tmp) / "s.csv", Path(tmp) / "s.json"
        csv_path.write_text(csv_text)
        stats_path.write_text(stats_text)
        return load_scenario(csv_path, stats_path)


class TestLoadScenarioRejects:
    @given(
        rows=st.lists(st.integers(0, 3 * HOURS_PER_WEEK - 1), min_size=1, max_size=5, unique=True),
        duplicate=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_dropped_or_duplicated_rows(self, tiny_scenario_files, rows, duplicate):
        lines, stats_text = tiny_scenario_files
        header, body = lines[0], lines[1:]
        if duplicate:
            body = body + [body[r] for r in rows]
        else:
            body = [line for r, line in enumerate(body) if r not in rows]
        with pytest.raises(InvalidArgumentError):
            _load_text(header + "".join(body), stats_text)

    @pytest.mark.parametrize(
        "bad_row",
        [
            "3,0,1.0\n",
            "0,168,1.0\n",
            "-1,0,1.0\n",
            "0,0,abc\n",
            "0,x,1.0\n",
            "0,0\n",
            "0,0,1.0,5\n",
            "1.0,1,1.0\n",
            "0,0,1.0\r0,1,1.0\n",
            "\n",
            "swapped",
            "extra row",
            "trailing blank line",
            "header only",
        ],
    )
    def test_bad_row(self, tiny_scenario_files, bad_row, capsys, recwarn, monkeypatch):
        lines, stats_text = tiny_scenario_files
        end = len(lines) + 1  # the line after the last row
        cases = {
            "extra row": [("".join(lines) + "3,0,1.0\n", end)],
            "trailing blank line": [("".join(lines) + "\n", end)],
            "header only": [(lines[0], 2)],
        }.get(bad_row, [])
        # otherwise replace the row for (0, 0) on line 2, then the row for (1, 1) on line
        # 171 (or swap it with the next row), so only the bad row is wrong
        for line in [] if cases else [2, 171]:
            row, rest = lines[line - 1], lines[line:]
            body = [rest[0], row, *rest[1:]] if bad_row == "swapped" else [bad_row, *rest]
            cases.append(("".join(lines[: line - 1] + body), line))
        for text, line in cases:
            # in one block, and in blocks of one line each
            for block_bytes in (traffic._BLOCK_BYTES, 1):
                monkeypatch.setattr(traffic, "_BLOCK_BYTES", block_bytes)
                with pytest.raises(InvalidArgumentError, match=f"s.csv:{line}: ") as excinfo:
                    _load_text(text, stats_text)
                assert "np." not in str(excinfo.value)
        assert capsys.readouterr().err == "" and not recwarn.list

    @pytest.mark.parametrize(
        "defect",
        [
            "n_bs",
            "missing_key",
            "unparsable_stat",
            'area_km2="abc"',
            "area_km2=NaN",
            "area_km2=Infinity",
            "area_km2=true",
            "area_km2=-5",
            "capacity=Infinity",
            "capacity=NaN",
            "peak=true",
            "p5=true",
            "mean=true",
            "capacity=true",
            "max_load=true",
        ],
    )
    def test_bad_sidecar(self, tiny_scenario_files, defect):
        lines, stats_text = tiny_scenario_files
        sidecar = json.loads(stats_text)
        key, _, value = defect.partition("=")
        if defect == "n_bs":
            sidecar["n_bs"] = 4
        elif defect == "missing_key":
            del sidecar["area_km2"]
        elif defect == "unparsable_stat":
            sidecar["stats"][1]["peak"] = "high"
        elif key == "area_km2":
            sidecar["area_km2"] = json.loads(value)
        else:
            sidecar["stats"][1][key] = json.loads(value)
        with pytest.raises(InvalidArgumentError, match=key if value else None):
            _load_text("".join(lines), json.dumps(sidecar))

    def test_unchanged_files_load(self, tiny_scenario_files):
        lines, stats_text = tiny_scenario_files
        assert _load_text("".join(lines), stats_text).n_bs == 3
