"""Synthetic weekly traffic traces and the scale-and-match pipeline.

A scenario consists of M per-BS hourly rate traces covering one typical week
(hour 0 = Monday 00:00) plus per-BS capacity/load metadata.  Base traces are
generated with a parametric diurnal shape, then affinely rescaled so that each
BS trace reproduces a target peak and 5th-percentile hourly volume.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTraceError, InvalidArgumentError, NoCandidateError

HOURS_PER_WEEK = 168
HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7

# nearest-rank index of the 5th percentile over 168 hourly samples
_P5_RANK = math.ceil(0.05 * HOURS_PER_WEEK) - 1

# scenario.csv's columns, in order, with the type each holds
_CSV_ROW = np.dtype([("bs_id", np.int64), ("hour", np.int64), ("rate_mbps", np.float64)])
# scenario.csv is read in blocks of whole lines of about this size, so that the loader's
# buffers stay small next to the rate matrix: freeing a larger one raises glibc's mmap
# threshold, and with it the resident memory of every trial that follows
_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class WeeklyTrace:
    """Hourly traffic rates (Mbps) for one typical week."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (HOURS_PER_WEEK,):
            raise InvalidArgumentError(
                f"weekly trace must have {HOURS_PER_WEEK} hourly values, got {v.shape}"
            )
        if not 0 <= v.min() <= v.max() < math.inf:  # a NaN fails every comparison
            raise InvalidArgumentError("trace values must be finite and >= 0")
        object.__setattr__(self, "values", v)

    @property
    def peak(self) -> float:
        return float(self.values.max())

    @property
    def p5(self) -> float:
        return float(np.partition(self.values, _P5_RANK)[_P5_RANK])

    @property
    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class BSStats:
    """Target per-BS statistics: traffic quantiles plus capacity and load cap."""

    peak: float
    p5: float
    mean: float
    capacity: float
    max_load: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is float:  # the usual case, without the ABC check's 1 us
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")
        if not (0 <= self.p5 <= self.mean <= self.peak):
            raise InvalidArgumentError(
                f"need 0 <= p5 <= mean <= peak, got {self.p5}, {self.mean}, {self.peak}"
            )
        if not (0 < self.max_load <= 1):
            raise InvalidArgumentError(f"max_load must be in (0,1], got {self.max_load}")
        # with a finite capacity, the checks around this one bound every other field too
        if not 0 < self.capacity < math.inf:
            raise InvalidArgumentError(f"capacity must be finite and positive, got {self.capacity}")
        if self.peak > self.max_load * self.capacity * (1 + 1e-9):
            raise InvalidArgumentError("peak exceeds max_load * capacity")


class HourOrder(NamedTuple):
    """Each hour's stable ascending rate order: a (T, N) rank and three (T, N + 1) prefix sums.

    Column k of a prefix sum adds up the k lowest-rate BSs of the hour, so column 0 is
    0 and the last column is the whole hour.  Every array is read-only.
    """

    rank: np.ndarray  # int32: rank[h, i] is BS i's position in hour h's order
    cum_rate: np.ndarray  # the summed rates
    cum_load: np.ndarray  # the summed rate / capacity
    cum_cap: np.ndarray  # the summed capacities


def _prefix_sums(sorted_values: np.ndarray) -> np.ndarray:
    """(T, N + 1) read-only running sums of each row of a (T, N) array, after a 0 column."""
    out = np.zeros((sorted_values.shape[0], sorted_values.shape[1] + 1))
    np.cumsum(sorted_values, axis=1, out=out[:, 1:])  # adds in index order
    out.flags.writeable = False
    return out


def sort_hours(rate_matrix: np.ndarray, capacities: np.ndarray) -> HourOrder:
    """Rank the BSs of every hour of an (N, T) rate matrix (ties go to the lower index)."""
    by_hour = rate_matrix.T
    order = np.argsort(by_hour, axis=1, kind="stable")
    sorted_caps = capacities[order]
    sorted_rates = np.take_along_axis(by_hour, order, axis=1)
    cum_rate = _prefix_sums(sorted_rates)
    loads = np.divide(sorted_rates, sorted_caps, out=sorted_rates)  # the division bs_energy does
    rank = np.empty(order.shape, dtype=np.int32)
    np.put_along_axis(rank, order, np.arange(order.shape[1], dtype=np.int32), axis=1)
    rank.flags.writeable = False
    return HourOrder(rank, cum_rate, _prefix_sums(loads), _prefix_sums(sorted_caps))


@dataclass(frozen=True, eq=False)
class TrafficScenario:
    """N matched weekly traces as one read-only (N, 168) rate matrix, with per-BS stats."""

    rate_matrix: np.ndarray
    stats: tuple[BSStats, ...]
    area_km2: float = 30.0
    capacities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        area = self.area_km2
        if isinstance(area, bool) or not isinstance(area, numbers.Real) or not 0 < area < math.inf:
            raise InvalidArgumentError(f"area_km2 must be a finite positive number, got {area!r}")
        rates = np.array(self.rate_matrix, dtype=float)
        stats = tuple(self.stats)
        if rates.shape != (len(stats), HOURS_PER_WEEK) or not stats:
            raise InvalidArgumentError(f"rate matrix {rates.shape} is not (n_bs={len(stats)}, 168)")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise InvalidArgumentError("trace values must be finite and >= 0")
        caps = np.array([s.max_load * s.capacity for s in stats])
        if np.any(rates > caps[:, None] * (1 + 1e-9)):
            raise InvalidArgumentError("a trace exceeds max_load * capacity for its BS")
        capacities = np.array([s.capacity for s in stats])
        rates.flags.writeable = False
        capacities.flags.writeable = False
        object.__setattr__(self, "rate_matrix", rates)
        object.__setattr__(self, "stats", stats)
        object.__setattr__(self, "capacities", capacities)

    @property
    def n_bs(self) -> int:
        return len(self.stats)

    @property
    def traces(self) -> tuple[WeeklyTrace, ...]:
        """One WeeklyTrace per BS, each a view of its rate_matrix row."""
        return tuple(WeeklyTrace(row) for row in self.rate_matrix)

    @cached_property
    def hour_order(self) -> HourOrder:
        """The trial-independent sort of every hour, built on first use."""
        return sort_hours(self.rate_matrix, self.capacities)

    @cached_property
    def hourly_demand(self) -> np.ndarray:
        """(168,) summed rate of each hour.

        Each is its own column's sum: rate_matrix.sum(axis=0) adds in another order
        and can round differently.
        """
        demand = np.array([column.sum() for column in self.rate_matrix.T])
        demand.flags.writeable = False
        return demand


def generate_base_traces(n: int, seed: int) -> list[WeeklyTrace]:
    """Generate n synthetic weekly base traces, deterministic per seed.

    Each trace is a double-peaked day shape with a deep night trough, repeated over the
    week with a damped weekend, times an amplitude and hourly lognormal noise.  Its draws
    come in this order: four uniforms (phase jitter of at most 2 h, morning weight,
    weekend scale, amplitude), then 168 noise factors.  lo + (hi - lo) * u is
    rng.uniform(lo, hi) to the bit, and the shapes are evaluated for all traces at once.
    """
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7AFF]))
    u = np.empty((n, 4))
    traces = np.empty((n, HOURS_PER_WEEK))  # each row its noise, then times amplitude * shape
    for k in range(n):
        rng.random(out=u[k])
        traces[k] = rng.lognormal(mean=0.0, sigma=0.08, size=HOURS_PER_WEEK)
    lo, hi = np.array([(-2.0, 2.0), (0.5, 0.9), (0.7, 0.9), (0.5, 2.0)]).T
    jitter, w_m, weekend_scale, amplitude = (lo + (hi - lo) * u).T
    hod = np.arange(HOURS_PER_DAY, dtype=float)
    morning = np.exp(-0.5 * ((hod - (9.5 + jitter)[:, None]) / 2.2) ** 2)
    evening = np.exp(-0.5 * ((hod - (20.0 + jitter)[:, None]) / 2.8) ** 2)
    day = 0.06 + w_m[:, None] * morning + evening
    weekday = amplitude[:, None] * day
    weekend = amplitude[:, None] * (day * weekend_scale[:, None])
    days = traces.reshape(n, DAYS_PER_WEEK, HOURS_PER_DAY)  # hour 0 is Monday 00:00
    days[:, :5] *= weekday[:, None]
    days[:, 5:] *= weekend[:, None]
    return [WeeklyTrace(row) for row in traces]


def generate_target_stats(
    m: int,
    seed: int,
    capacity_range: tuple[float, float] = (100.0, 400.0),
    p5_ratio_range: tuple[float, float] = (0.05, 0.4),
    max_load_range: tuple[float, float] = (0.5, 0.9),
    peak_load_range: tuple[float, float] = (0.08, 0.35),
) -> list[BSStats]:
    """Draw m per-BS target statistics satisfying all BSStats invariants.

    The peak is placed at a random fraction of the admissible ceiling
    max_load * capacity, the 5th percentile at a random fraction of the peak,
    and the mean strictly between the two.  A target's five uniforms are
    consecutive in the stream, so one (m, 5) draw takes them all.
    """
    if m < 1:
        raise InvalidArgumentError(f"need m >= 1, got {m}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57A7]))
    lows, highs = zip(capacity_range, max_load_range, peak_load_range, p5_ratio_range, (0.25, 0.5))
    capacity, max_load, peak_frac, p5_frac, mean_frac = rng.uniform(lows, highs, size=(m, 5)).T
    peak = capacity * max_load * peak_frac
    p5 = peak * p5_frac
    mean = p5 + (peak - p5) * mean_frac
    # Python floats, as the scalar draws gave: the sidecar's JSON bytes stay the same
    return [BSStats(*fields) for fields in np.stack([peak, p5, mean, capacity, max_load], axis=1).tolist()]


def scale_trace(base: WeeklyTrace, target: BSStats) -> WeeklyTrace:
    """Affinely rescale a base trace to hit the target peak and 5th percentile.

    The two-point fit v -> a*v + b maps (base.p5, base.peak) onto
    (target.p5, target.peak); negative outputs are clipped to zero.  Clipping
    can only touch values strictly below the target 5th percentile, so both
    matched statistics are exact.
    """
    rows = base.values[None, :]
    p5, span = np.array([base.p5]), np.array([base.peak - base.p5])
    if span[0] <= 0:
        raise DegenerateTraceError("base trace is constant; cannot fit peak and p5")
    return WeeklyTrace(_scale_rows(rows, p5, span, target.peak, target.p5, np.empty_like(rows))[0])


def _scale_rows(
    rows: np.ndarray,
    p5s: np.ndarray,
    spans: np.ndarray,
    peak: float | np.ndarray,
    p5: float | np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Map each row's (p5, p5 + span) affinely onto (p5, peak), clip at 0, into out.

    peak and p5 are one target's, or per-row arrays of them.
    """
    a = (peak - p5) / spans
    b = p5 - a * p5s
    np.multiply(a[:, None], rows, out=out)
    out += b[:, None]
    return np.clip(out, 0.0, None, out=out)


def _nearest_by_scan(
    base_matrix: np.ndarray,
    p5s: np.ndarray,
    spans: np.ndarray,
    usable: np.ndarray,
    peak: float,
    p5: float,
    mean: float,
) -> int:
    """The usable row whose scaled mean is nearest mean, found by scaling every row."""
    scaled = _scale_rows(base_matrix, p5s, spans, peak, p5, np.empty_like(base_matrix))
    dev = np.abs(scaled.mean(axis=1) - mean)
    dev[~usable] = np.inf
    return int(np.argmin(dev))  # argmin keeps the lowest index on ties


# Both ways of taking 168 times a clipped mean, _nearest_by_scan's and _matched_rows's,
# err by less than about 700 units of 2**-53 of a*sum(v) + 168*target.mean: the 168 terms
# a*v + b are each rounded and then summed (up to 167 roundings of their total), and
# |b| <= a*p5(v) + target.p5, where p5(v) <= mean(v) * 168/160 and target.p5 <= target.mean.
# A pick stands if it beats every other row by both rows' bounds, taken six times over.
_PICK_MARGIN = 2048 * np.finfo(float).eps


def _matched_rows(base_matrix: np.ndarray, targets: list[BSStats]) -> np.ndarray:
    """Per target, the scaled base trace whose mean is nearest the target mean.

    Take a base row with 5th percentile p5 and span peak - p5, and a = (target.peak -
    target.p5)/span >= 0.  A value v adds a*v + b to the clipped sum only if v > -b/a,
    which is p5 - span * target.p5/(target.peak - target.p5).  With the row sorted and S
    its suffix sums, 168 times the clipped mean is a*S[n] + b*(168 - n), where n counts
    the values at or below that cut: for each base row, one search and one lookup serve
    all targets at once.  That sum rounds differently from _nearest_by_scan's mean, so a
    pick stands only where its deviation plus its rounding bound is below every other
    row's deviation minus that row's bound.  _nearest_by_scan decides the rest, exact
    ties included, so every pick is the scan's.
    """
    peaks = base_matrix.max(axis=1)
    p5s = np.partition(base_matrix, _P5_RANK, axis=1)[:, _P5_RANK]
    usable = peaks > p5s
    if not np.any(usable):
        raise NoCandidateError("all candidate base traces are degenerate")
    spans = np.where(usable, peaks - p5s, 1.0)  # degenerate rows are never picked
    t_peak, t_p5, t_mean = np.array([(t.peak, t.p5, t.mean) for t in targets], dtype=float).T
    m = len(targets)
    pick = np.zeros(m, dtype=np.intp)
    pick_dev = np.full(m, np.inf)  # 168 times |mean - target mean| of the pick
    low1, low2 = np.full(m, np.inf), np.full(m, np.inf)  # the two lowest dev - bound
    suffix = np.zeros(HOURS_PER_WEEK + 1)  # suffix[n]: sum of the row's values from rank n up
    # Magnitudes near the float limit can turn an estimate or a bound into inf or nan.
    # np.minimum carries that into pick_dev, low1 or low2, and the scan decides.
    with np.errstate(over="ignore", invalid="ignore"):
        row_bounds = _PICK_MARGIN * base_matrix.sum(axis=1)
        width = t_peak - t_p5
        t_sum = HOURS_PER_WEEK * t_mean
        t_bound = _PICK_MARGIN * t_sum
        # a flat target (peak == p5) keeps every value: its cut is -inf
        cut_slope = np.divide(t_p5, width, out=np.full(m, np.inf), where=width > 0)
        for i in np.flatnonzero(usable):
            sorted_row = np.sort(base_matrix[i])
            np.add.accumulate(sorted_row[::-1], out=suffix[-2::-1])
            a = width / spans[i]
            b = t_p5 - a * p5s[i]
            n = np.searchsorted(sorted_row, p5s[i] - spans[i] * cut_slope, side="right")
            dev = a * suffix[n]
            dev += b * (HOURS_PER_WEEK - n)
            dev -= t_sum
            np.abs(dev, out=dev)
            np.copyto(pick, i, where=dev < pick_dev)  # strict: ties keep the lower row
            np.minimum(pick_dev, dev, out=pick_dev)
            bound = a * row_bounds[i]
            bound += t_bound
            low = np.subtract(dev, bound, out=bound)
            np.minimum(low2, np.maximum(low1, low), out=low2)
            np.minimum(low1, low, out=low1)
        pick_bound = width / spans[pick] * row_bounds[pick] + t_bound  # the loop's, to the bit
        # the lowest dev - bound of the rows other than the pick
        others = np.where(pick_dev - pick_bound == low1, low2, low1)
        certain = pick_dev + pick_bound < others
    for k in np.flatnonzero(~certain):
        pick[k] = _nearest_by_scan(base_matrix, p5s, spans, usable, t_peak[k], t_p5[k], t_mean[k])
    rows = base_matrix[pick]
    return _scale_rows(rows, p5s[pick], spans[pick], t_peak, t_p5, out=rows)


def build_scenario(
    n_bases: int,
    m_targets: int,
    seed: int,
    area_km2: float = TrafficScenario.area_km2,
    **stats_kwargs,
) -> TrafficScenario:
    """Generate bases and targets, then match one scaled trace per target."""
    bases = generate_base_traces(n_bases, seed)
    stats = generate_target_stats(m_targets, seed, **stats_kwargs)
    rates = _matched_rows(np.stack([t.values for t in bases]), stats)
    return TrafficScenario(rate_matrix=rates, stats=tuple(stats), area_km2=area_km2)


def save_scenario(scenario: TrafficScenario, csv_path: str | Path, stats_path: str | Path) -> None:
    """Write the trace CSV (bs_id,hour,rate_mbps) and the JSON stats sidecar."""
    csv_path, stats_path = Path(csv_path), Path(stats_path)
    # the bytes csv.writer would write: \r\n line ends, and no field needs quoting.  One
    # BS's 168 lines are one %-template, its hours baked in and a %r per rate.
    row_template = "".join(f"{{i}},{h},%r\r\n" for h in range(HOURS_PER_WEEK))
    with csv_path.open("w", newline="") as fh:
        fh.write(",".join(_CSV_ROW.names) + "\r\n")
        for i, row in enumerate(scenario.rate_matrix):
            fh.write(row_template.replace("{i}", str(i)) % tuple(row.tolist()))
    sidecar = {
        "area_km2": scenario.area_km2,
        "n_bs": scenario.n_bs,
        "stats": [vars(s) for s in scenario.stats],
    }
    stats_path.write_text(json.dumps(sidecar, indent=2) + "\n")


def _rows(text: bytes) -> np.ndarray:
    """text's CSV lines as _CSV_ROW rows; np.loadtxt skips blank lines (and warns if all are)."""
    if not text or text.isspace():
        return np.empty(0, _CSV_ROW)
    return np.loadtxt(io.BytesIO(text), dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)


def _parse_block(block: bytes, csv_path, line: int) -> np.ndarray:
    """One _CSV_ROW row per line of block, whose first line is line `line` of csv_path."""
    with contextlib.suppress(ValueError):
        rows = _rows(block)
        if len(rows) == block.count(b"\n") + (not block.endswith(b"\n")):
            return rows
    # a line is blank or bad; np.loadtxt rejects a bad line on its own as well
    for k, text in enumerate(block.removesuffix(b"\n").split(b"\n")):
        with contextlib.suppress(ValueError):
            if len(_rows(text)) == 1:
                continue
        raise InvalidArgumentError(f"{csv_path}:{line + k}: bad row {text.strip().decode('latin-1')!r}")
    raise InvalidArgumentError(f"{csv_path}:{line}: unparsable rows")


def _read_rates(csv_path: str | Path, n_bs: int) -> np.ndarray:
    """The (n_bs, 168) rates of save_scenario's CSV, after checking every line of it."""
    n_rows = n_bs * HOURS_PER_WEEK
    rates = np.empty(n_rows)
    done = 0
    with Path(csv_path).open("rb") as fh:
        header = fh.readline().rstrip(b"\r\n")
        if header != ",".join(_CSV_ROW.names).encode():
            raise InvalidArgumentError(f"{csv_path}:1: unexpected header {header!r}")
        while block := fh.read(_BLOCK_BYTES) + fh.readline():
            rows = _parse_block(block, csv_path, line=done + 2)
            r = np.arange(done, done + len(rows))
            misplaced = (rows["bs_id"] != r // HOURS_PER_WEEK) | (rows["hour"] != r % HOURS_PER_WEEK)
            misplaced |= r >= n_rows
            if misplaced.any():
                done += int(misplaced.argmax())
                break
            rates[done : done + len(rows)] = rows["rate_mbps"]
            done += len(rows)
        else:  # every row in its place: the file must also hold all of them
            if done == n_rows:
                return rates.reshape(n_bs, HOURS_PER_WEEK)
    want = f"row {divmod(done, HOURS_PER_WEEK)}" if done < n_rows else "no more rows"
    raise InvalidArgumentError(f"{csv_path}:{done + 2}: expected {want} (rows run in bs_id, hour order)")


def load_scenario(csv_path: str | Path, stats_path: str | Path) -> TrafficScenario:
    """Read save_scenario's files: the n_bs * 168 rows in the (bs_id, hour) order it writes."""
    sidecar = json.loads(Path(stats_path).read_text())
    try:
        stats = tuple(BSStats(**entry) for entry in sidecar["stats"])
        n_bs, area_km2 = len(stats), sidecar["area_km2"]
        if sidecar["n_bs"] != n_bs:
            raise InvalidArgumentError(f"sidecar n_bs {sidecar['n_bs']!r} != {n_bs} stats")
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed scenario sidecar {stats_path}: {exc!r}") from exc
    return TrafficScenario(rate_matrix=_read_rates(csv_path, n_bs), stats=stats, area_km2=area_km2)
