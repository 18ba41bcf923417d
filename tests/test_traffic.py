import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    save_scenario,
    scale_trace,
)
from hapsran import traffic
from hapsran.traffic import HOURS_PER_WEEK


def percentile_nearest_rank(values, fraction):
    """Nearest-rank percentile: the ceil(fraction*n)-th smallest sample."""
    v = np.sort(np.asarray(values, dtype=float))
    rank = max(1, math.ceil(fraction * v.size))
    return float(v[rank - 1])


def match_trace(bases, target):
    """Pick the base trace whose ratio (mean - p5)/span is nearest the target's, scaled
    onto the target: build_scenario's matcher for one target."""
    if not bases:
        raise NoCandidateError("no base traces supplied")
    return WeeklyTrace(traffic._matched_rows(np.stack([t.values for t in bases]), [target])[0])


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


def _diurnal_profile(rng: np.random.Generator) -> np.ndarray:
    """One week of a double-peaked day shape with a deep night trough."""
    hod = np.arange(traffic.HOURS_PER_DAY, dtype=float)
    jitter = rng.uniform(-2.0, 2.0)  # per-trace phase shift, at most 2 h
    morning = np.exp(-0.5 * ((hod - (9.5 + jitter)) / 2.2) ** 2)
    evening = np.exp(-0.5 * ((hod - (20.0 + jitter)) / 2.8) ** 2)
    w_m = rng.uniform(0.5, 0.9)
    day = 0.06 + w_m * morning + evening
    week = np.tile(day, traffic.DAYS_PER_WEEK)
    weekend_scale = rng.uniform(0.7, 0.9)
    week[5 * traffic.HOURS_PER_DAY:] *= weekend_scale
    return week


def base_traces_reference(n: int, seed: int) -> list[WeeklyTrace]:
    """generate_base_traces one trace at a time, with a scalar draw per parameter."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7AFF]))
    traces = []
    for _ in range(n):
        shape = _diurnal_profile(rng)
        amplitude = rng.uniform(0.5, 2.0)
        noise = rng.lognormal(mean=0.0, sigma=0.08, size=HOURS_PER_WEEK)
        traces.append(WeeklyTrace(amplitude * shape * noise))
    return traces


def target_stats_reference(
    m: int,
    seed: int,
    capacity_range: tuple[float, float] = (100.0, 400.0),
    p5_ratio_range: tuple[float, float] = (0.05, 0.4),
    max_load_range: tuple[float, float] = (0.5, 0.9),
    peak_load_range: tuple[float, float] = (0.08, 0.35),
) -> list[BSStats]:
    """generate_target_stats one target at a time, with five scalar draws each."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57A7]))
    out = []
    for _ in range(m):
        capacity = rng.uniform(*capacity_range)
        max_load = rng.uniform(*max_load_range)
        peak = capacity * max_load * rng.uniform(*peak_load_range)
        p5 = peak * rng.uniform(*p5_ratio_range)
        mean = p5 + (peak - p5) * rng.uniform(0.25, 0.5)
        out.append(BSStats(peak=peak, p5=p5, mean=mean, capacity=capacity, max_load=max_load))
    return out


def _ratios(base_matrix):
    """Each row's (mean - p5) / span, by _matched_rows's float expressions; while nothing
    clips, a target's scaled mean lies this fraction of the way from its p5 to its peak.
    A row whose sum overflows has ratio inf, and a constant row's ratio is meaningless."""
    peaks = base_matrix.max(axis=1)
    p5s = np.array([percentile_nearest_rank(row, 0.05) for row in base_matrix])
    with np.errstate(over="ignore"):
        return (base_matrix.sum(axis=1) / HOURS_PER_WEEK - p5s) / np.where(peaks > p5s, peaks - p5s, 1.0)


def two_point_fit(row, target):
    """row mapped affinely onto target's p5 and peak, as scan_reference maps it."""
    p5 = percentile_nearest_rank(row, 0.05)
    a = (target.peak - target.p5) / (row.max() - p5)
    return a * row + (target.p5 - a * p5)


def scaled(row, target):
    """row's two-point fit to target, clipped at 0."""
    return np.clip(two_point_fit(row, target), 0.0, None)


def nearest_ratio_rows(base_matrix, targets):
    """By brute force, per target, the usable row with the least (|r - rho|, r, index)."""
    ratios = _ratios(base_matrix)
    p5s = [percentile_nearest_rank(row, 0.05) for row in base_matrix]
    usable = np.flatnonzero(base_matrix.max(axis=1) > p5s)
    picks = []
    for t in targets:
        width = t.peak - t.p5
        rho = (t.mean - t.p5) / width if width > 0 else 0.0
        picks.append(min((abs(ratios[i] - rho), ratios[i], i) for i in usable)[2])
    return picks


def ratio_reference(base_matrix, targets):
    """Each target's nearest-ratio row, scaled onto it."""
    picks = nearest_ratio_rows(base_matrix, targets)
    return np.array([scaled(base_matrix[k], t) for k, t in zip(picks, targets)])


def assert_matches(reference, base_matrix, targets):
    """_matched_rows gives the reference's rows, bit for bit, and warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = traffic._matched_rows(base_matrix, targets)
    expected = reference(base_matrix, targets)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        values = np.ones(HOURS_PER_WEEK)
        values[100] = bad
        with pytest.raises(InvalidArgumentError, match="finite and >= 0"):
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

    @pytest.mark.parametrize("n", [1, 2, 60, 1419])
    @pytest.mark.parametrize("seed", [0, 11, 42, 2079656827])
    def test_equals_per_trace_reference(self, n, seed):
        traces = generate_base_traces(n, seed)
        expected = base_traces_reference(n, seed)
        assert len(traces) == n
        assert np.array_equal(np.stack([t.values for t in traces]), np.stack([t.values for t in expected]))


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

    @pytest.mark.parametrize("m", [1, 2, 60, 1419])
    @pytest.mark.parametrize("seed", [0, 11, 42, 2079656827])
    def test_equals_scalar_draw_reference(self, m, seed):
        stats = generate_target_stats(m, seed)
        assert stats == target_stats_reference(m, seed)
        assert all(type(v) is float for s in stats for v in vars(s).values())

    @given(
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_ranges_equal_scalar_draw_reference(self, m, seed):
        # the one prior's ranges, each passed to the reference under its own name
        capacity, max_load, peak_load, p5_ratio, mean_ratio = traffic._TARGET_PRIOR
        assert mean_ratio == (0.25, 0.5)  # the reference's own mean range
        ranges = dict(
            capacity_range=capacity,
            p5_ratio_range=p5_ratio,
            max_load_range=max_load,
            peak_load_range=peak_load,
        )
        assert generate_target_stats(m, seed) == target_stats_reference(m, seed, **ranges)


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
        # build_scenario's steps, with targets drawn from another prior
        targets = target_stats_reference(5, seed=2, **stats_kwargs)
        base_matrix = np.stack([t.values for t in generate_base_traces(30, seed=2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario = TrafficScenario(traffic._matched_rows(base_matrix, targets), tuple(targets))
        assert all(t.peak == t.p5 for t in targets)
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
        elif kind == "huge":  # its sum overflows: ratio inf, and no warning
            rows.append(rng.uniform(0.0, 1.0, HOURS_PER_WEEK) * 1e308)
        else:  # a span of about 1e-9 of the level
            level = rng.uniform(1.0, 1e3)
            rows.append(level * (1.0 + 1e-9 * rng.uniform(0.0, 1.0, HOURS_PER_WEEK)))
    return np.array(rows), draw(st.lists(_targets, min_size=1, max_size=6))


def _bases(n, seed):
    return np.stack([t.values for t in generate_base_traces(n, seed=seed)])


def _unit_target(rho):
    """A target whose ratio is rho itself: p5 0 and peak 1 make (mean - p5)/(peak - p5) = mean."""
    return BSStats(peak=1.0, p5=0.0, mean=rho, capacity=2.0, max_load=1.0)


def assert_clipped_fit(row, base, target, ratio):
    """row, base scaled onto target, has clipped values: its peak and p5 are those of the
    unclipped two-point fit, and only its mean rose above p5 + (peak - p5) * ratio."""
    fit = two_point_fit(base, target)
    assert fit.min() < 0 and row.min() == 0
    assert row.max() == fit.max() == pytest.approx(target.peak, rel=1e-12)
    p5_row = percentile_nearest_rank(row, 0.05)
    assert p5_row == percentile_nearest_rank(fit, 0.05) == pytest.approx(target.p5, rel=1e-12)
    assert row.mean() > target.p5 + (target.peak - target.p5) * ratio


class TestMatcherEqualsScan:
    """On these inputs no clipping reorders the scaled means and no two ratios lie within
    rounding of each other, so the nearest ratio is also the exhaustive scan's pick, and
    scan_reference stays the oracle."""

    def test_duplicate_rows_tie_to_the_lower_index(self):
        # equal rows scale to equal traces, so which one is picked does not show here;
        # TestMatcherIsNearestRatio's reordered rows show it
        base_matrix = np.stack([t.values for t in generate_base_traces(5, seed=3)])
        base_matrix = np.vstack([base_matrix, base_matrix])  # row i + 5 equals row i
        targets = generate_target_stats(20, seed=3)
        assert_matches(scan_reference, base_matrix, targets)

    def test_constant_rows_and_clipping_targets(self):
        bases = np.stack([t.values for t in generate_base_traces(20, seed=5)])
        base_matrix = np.insert(bases, [0, 7, 20], np.full(HOURS_PER_WEEK, 1.5), axis=0)
        targets = target_stats_reference(30, seed=5, p5_ratio_range=(0.0, 0.0))
        assert all(t.p5 == 0 for t in targets)
        expected = assert_matches(scan_reference, base_matrix, targets)
        assert np.all(expected.min(axis=1) == 0.0)  # p5 = 0: the low hours are clipped

    def test_ratios_beyond_the_bases_take_no_scan(self):
        # at either end of the ratio order both neighbours are the end row
        base_matrix = _bases(50, seed=8)
        ratios = _ratios(base_matrix)
        fracs = (0.0, 0.001, 0.999, 1.0)
        targets = [_target(peak, 0.3, frac) for peak in (2.0, 40.0, 300.0) for frac in fracs]
        assert max(fracs[:2]) < ratios.min() and ratios.max() < min(fracs[2:])
        rows = assert_matches(scan_reference, base_matrix, targets)
        ends = [np.argmin(ratios)] * 2 + [np.argmax(ratios)] * 2
        for row, target, end in zip(rows, targets, ends * 3):
            assert np.array_equal(row, scaled(base_matrix[end], target))

    def test_flat_and_zero_p5_targets_among_others(self):
        base_matrix = _bases(40, seed=12)
        ordinary = generate_target_stats(12, seed=12)
        flat = [_target(0.5, 1.0, 0.5), BSStats(0, 0, 0, 1, 1), _target(20.0, 1.0, 0.5)]
        zero_p5 = [_target(3.0, 0.0, 0.2), _target(50.0, 0.0, 0.45)]
        targets = ordinary[:4] + flat[:2] + ordinary[4:8] + zero_p5 + flat[2:] + ordinary[8:]
        assert_matches(scan_reference, base_matrix, targets)

    # the last is the default scenario's scale and seed
    @pytest.mark.parametrize(
        "n, m, seed",
        [(300, 200, 0), (300, 200, 1), (300, 200, 2), (1419, 960, 42)],
        ids=["0", "1", "2", "1419-960-42"],
    )
    def test_moderate_scale_takes_no_scan(self, n, m, seed):
        assert_matches(scan_reference, _bases(n, seed), generate_target_stats(m, seed))


class TestMatcherIsNearestRatio:
    """_matched_rows picks, per target, the usable row whose ratio (mean - p5)/span is
    nearest the target's (mean - p5)/(peak - p5): an exact tie of distance goes to the
    lower ratio, and equal ratios go to the lower row."""

    @given(_matcher_cases())
    @settings(max_examples=80, deadline=None)
    def test_drawn_cases(self, case):
        assert_matches(ratio_reference, *case)

    def test_equal_ratios_go_to_the_lowest_row(self):
        # Rows 3, 6 and 8 hold the same whole numbers in different hour orders: every sum
        # is exact, so their ratios are equal to the bit, while their scaled traces differ
        # and show which row is picked.  A target at the shared ratio or just below it
        # takes the neighbour above; one just above it takes the neighbour below, the last
        # of the three in ratio order.
        rng = np.random.default_rng(16)
        values = np.round(1000.0 * _bases(1, seed=16)[0])
        base_matrix = _bases(10, seed=16)
        for k in (3, 6, 8):
            base_matrix[k] = rng.permutation(values)
        ratios = _ratios(base_matrix)
        tied = ratios[3]
        assert np.flatnonzero(ratios == tied).tolist() == [3, 6, 8]
        targets = [_unit_target(rho) for rho in (np.nextafter(tied, 0), tied, np.nextafter(tied, 1))]
        rows = assert_matches(ratio_reference, base_matrix, targets)
        for row, target in zip(rows, targets):
            assert np.array_equal(row, scaled(base_matrix[3], target))
            assert not any(np.array_equal(row, scaled(base_matrix[k], target)) for k in (6, 8))

    def test_an_exact_midpoint_goes_to_the_lower_ratio(self):
        # the first neighbours in ratio order whose float midpoint is exact: a target
        # there is as far from either, and takes the lower ratio
        base_matrix = _bases(100, seed=17)
        ratios = _ratios(base_matrix)
        order = np.argsort(ratios)
        pairs = [(lo, hi, (ratios[lo] + ratios[hi]) / 2) for lo, hi in zip(order, order[1:])]
        lo, hi, mid = next(p for p in pairs if p[2] - ratios[p[0]] == ratios[p[1]] - p[2])
        target = _unit_target(mid)
        rho = (target.mean - target.p5) / (target.peak - target.p5)
        assert ratios[lo] < rho < ratios[hi] and rho - ratios[lo] == ratios[hi] - rho
        (row,) = assert_matches(ratio_reference, base_matrix, [target])
        assert np.array_equal(row, scaled(base_matrix[lo], target))
        assert not np.array_equal(row, scaled(base_matrix[hi], target))

    def test_near_tie_goes_to_the_nearer_ratio(self):
        # two rows whose ratios differ by about 2.6e-14, both below every target's: the
        # higher, nearer one is picked every time
        shape = generate_base_traces(1, seed=6)[0].values
        bumped = shape.copy()
        k = np.argsort(shape)[HOURS_PER_WEEK // 2]  # neither the peak nor the 5th percentile
        bumped[k] *= 1.0 + 1e-11
        base_matrix = np.stack([shape, bumped])
        ratios = _ratios(base_matrix)
        targets = [_target(peak, 0.2, 0.9) for peak in (1.0, 30.0, 500.0)]
        assert ratios[0] < ratios[1] < min((t.mean - t.p5) / (t.peak - t.p5) for t in targets)
        rows = assert_matches(ratio_reference, base_matrix, targets)
        for row, target in zip(rows, targets):
            assert np.array_equal(row, scaled(bumped, target))

    def test_cluster_is_decided_by_float_ratios(self):
        # One shape at twelve levels: in exact arithmetic their ratios are equal, in
        # floats they spread over a few units of 1e-16.  The pick among them is the nearest
        # float ratio and then the lowest row, where the scan's, decided by rounding in the
        # scaled means, is another row for most of these targets.
        shape = generate_base_traces(1, seed=9)[0].values
        cluster = np.random.default_rng(9).uniform(0.5, 2.0, 12)[:, None] * shape
        assert np.ptp(_ratios(cluster)) < 1e-14
        base_matrix = np.vstack([_bases(30, seed=9), cluster])
        r = _ratios(shape[None])[0]
        fracs = (0.999 * r, r, 1.001 * r)
        targets = [_target(peak, 0.3, frac) for peak in (1.0, 7.0, 90.0) for frac in fracs]
        expected = assert_matches(ratio_reference, base_matrix, targets)
        picks = nearest_ratio_rows(base_matrix, targets)
        # base 0 is the shape itself, with ratio r; those below r take the cluster's lowest
        # ratio, those above its highest
        ratios = _ratios(base_matrix)
        assert {ratios[k] for k in picks[::3]} == {ratios[30:].min()}
        assert {ratios[k] for k in picks[2::3]} == {ratios[30:].max()}
        assert not np.array_equal(expected, scan_reference(base_matrix, targets))

    def test_near_degenerate_base_is_picked_by_its_float_ratio(self):
        # shape and level * (1 + 1e-9 * shape/max) have one ratio in exact arithmetic; in
        # floats the second one's cancels about 9 digits.  Its float ratio decides, which
        # for some targets is not the scan's pick.
        shape = generate_base_traces(1, seed=4)[0].values
        base_matrix = np.stack([shape, 100.0 * (1.0 + 1e-9 * shape / shape.max())])
        targets = generate_target_stats(5, seed=4)
        expected = assert_matches(ratio_reference, base_matrix, targets)
        assert set(nearest_ratio_rows(base_matrix, targets)) == {0, 1}
        assert not np.array_equal(expected, scan_reference(base_matrix, targets))

    def test_a_clipping_row_is_picked_by_its_ratio(self):
        # The row nearest the target's ratio clips under it, which lifts its scaled mean
        # past the target's: the scan would take the nearest row on the other side, but
        # the pick is the nearest ratio, whose scaled peak and p5 clipping leaves as they are.
        rows = _bases(40, seed=15)
        ratios = _ratios(rows)
        order = np.argsort(ratios)
        pick = order[10]
        shape = rows[order[np.searchsorted(ratios[order], ratios[pick] + 0.05)]]
        # A floor leaves a row's ratio as it is.  Zeroing the row's P5_RANK lowest values
        # then lowers it by their sum / (168 * span): here to 0.01 below the pick's.
        span, lowest = np.ptp(shape), np.sort(shape)[: traffic._P5_RANK]
        drop = _ratios(shape[None])[0] - ratios[pick] + 0.01
        clipper = shape + (drop * HOURS_PER_WEEK * span / traffic._P5_RANK - lowest.mean())
        clipper[np.argsort(clipper)[: traffic._P5_RANK]] = 0.0
        base_matrix = np.vstack([rows[np.abs(ratios - ratios[pick]) > 0.03], clipper, rows[pick]])
        rho = ratios[pick] - 0.006
        r_clipper = _ratios(clipper[None])[0]
        assert rho - r_clipper < ratios[pick] - rho  # the clipper is nearer
        target = _target(50.0, 1 / 6, rho)  # target.p5 = (target.peak - target.p5) / 5
        (row,) = assert_matches(ratio_reference, base_matrix, [target])
        assert np.array_equal(row, scaled(clipper, target))
        assert np.array_equal(scan_reference(base_matrix, [target])[0], scaled(rows[pick], target))
        assert_clipped_fit(row, clipper, target, r_clipper)

    def test_rows_clip_under_some_targets_only(self):
        # raised floors with a trough of zeros below the 5th percentile: a row clips
        # under the targets whose p5 / (peak - p5) lies below its (p5 - min) / span, and
        # the pick is still the nearest ratio
        rng = np.random.default_rng(10)
        base_matrix = _bases(40, seed=10)
        floors = rng.uniform(0.0, 1.5, (20, 1)) * np.ptp(base_matrix[::2], axis=1, keepdims=True)
        base_matrix[::2] += floors
        trough = np.argsort(base_matrix[::2], axis=1)[:, : traffic._P5_RANK]
        np.put_along_axis(base_matrix[::2], trough, 0.0, axis=1)
        targets = generate_target_stats(40, seed=10)
        p5 = np.array([percentile_nearest_rank(row, 0.05) for row in base_matrix])
        clip_slope = (p5 - base_matrix.min(axis=1)) / (base_matrix.max(axis=1) - p5)
        cut_slope = np.array([t.p5 / (t.peak - t.p5) for t in targets])
        assert np.any((cut_slope.min() < clip_slope) & (clip_slope < cut_slope.max()))
        expected = assert_matches(ratio_reference, base_matrix, targets)
        clipped = np.flatnonzero(expected.min(axis=1) == 0)
        assert 0 < len(clipped) < len(targets)
        ratios = _ratios(base_matrix)
        picks = nearest_ratio_rows(base_matrix, targets)
        for i in clipped:
            assert_clipped_fit(expected[i], base_matrix[picks[i]], targets[i], ratios[picks[i]])

    def test_huge_row(self):
        # its sum overflows, so its ratio is inf and it is never picked, although under
        # one of these targets its scaled mean is the nearest
        huge = np.random.default_rng(13).uniform(0.0, 1.0, HOURS_PER_WEEK) * 1e308
        base_matrix = np.insert(_bases(30, seed=13), 11, huge, axis=0)
        targets = generate_target_stats(20, seed=13)
        assert_matches(ratio_reference, base_matrix, targets)
        assert 11 not in nearest_ratio_rows(base_matrix, targets)
        scan = scan_reference(base_matrix, targets)
        assert any(np.array_equal(row, scaled(huge, t)) for row, t in zip(scan, targets))


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


    def test_built_and_loaded_matrices_are_held_without_a_copy(self, monkeypatch, tmp_path):
        made = []

        def keeping(function):
            def wrapper(*args):
                made.append(function(*args))
                return made[-1]

            return wrapper

        monkeypatch.setattr(traffic, "_matched_rows", keeping(traffic._matched_rows))
        monkeypatch.setattr(traffic, "_read_rates", keeping(traffic._read_rates))
        built = build_scenario(8, 3, seed=5)
        save_scenario(built, tmp_path / "s.csv", tmp_path / "s.json")
        loaded = load_scenario(tmp_path / "s.csv", tmp_path / "s.json")
        assert np.shares_memory(made[0], built.rate_matrix)
        assert np.shares_memory(made[1], loaded.rate_matrix)
        assert not built.rate_matrix.flags.writeable and not loaded.rate_matrix.flags.writeable

    def test_a_callers_matrix_stays_its_own(self, small_scenario):
        rates = np.array(small_scenario.rate_matrix)
        scenario = TrafficScenario(rate_matrix=rates, stats=small_scenario.stats)
        assert rates.flags.writeable
        assert not np.shares_memory(rates, scenario.rate_matrix)
        assert not scenario.rate_matrix.flags.writeable


# numbers as a sidecar may hold them: ints as json.loads reads them, numpy floats, zero,
# the least subnormal, 17-digit floats and values near the float limit
_sidecar_number = st.one_of(
    st.integers(0, 2**60),
    st.sampled_from([0.0, 5e-324, 0.30000000000000004, 1.2345678901234567e-7, 1.79e308]),
    st.floats(0.0, 1.79e308),
    st.floats(0.0, 1e6).map(np.float64),
)


@st.composite
def _sidecar_stats(draw):
    p5, mean, peak = sorted(draw(st.lists(_sidecar_number, min_size=3, max_size=3)))
    max_load = draw(st.sampled_from([1, 1.0, 0.5, 0.30000000000000004]))
    capacity = draw(_sidecar_number)
    if capacity * max_load < max(peak, 1e-300):  # the least capacity that carries the peak
        capacity = max(peak / max_load, 1e-300)
    assume(capacity <= 1.79e308)
    return BSStats(peak=peak, p5=p5, mean=mean, capacity=capacity, max_load=max_load)


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


    @given(
        stats=st.lists(_sidecar_stats(), min_size=1, max_size=4),
        area=st.sampled_from([30, 30.0, 2.5e-3, 1.79e308]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sidecar_is_json_dumps_with_indent_2(self, stats, area):
        scenario = TrafficScenario(
            rate_matrix=np.zeros((len(stats), HOURS_PER_WEEK)), stats=tuple(stats), area_km2=area
        )
        sidecar = {"area_km2": area, "n_bs": len(stats), "stats": [vars(s) for s in stats]}
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, stats_path = Path(tmp) / "s.csv", Path(tmp) / "s.json"
            save_scenario(scenario, csv_path, stats_path)
            assert stats_path.read_bytes() == (json.dumps(sidecar, indent=2) + "\n").encode()
            loaded = load_scenario(csv_path, stats_path)
        assert loaded.stats == tuple(stats)
        assert loaded.area_km2 == area


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
