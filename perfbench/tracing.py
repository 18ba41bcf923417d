"""Span tracing of hapsran's layers from outside the package.

Each public function is wrapped where its caller looks it up (for example
``montecarlo.offload_week`` as well as ``offload.offload_hour``), so the
program itself is unchanged.  Spans are kept in memory, recorded from any
thread, and written out once at the end of the run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None
    trial: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _retained_bytes(scenario) -> int:
    """Bytes held by the scenario's trace arrays, counting each viewed base once."""
    owners = {}
    for trace in scenario.traces:
        arr = trace.values
        while arr.base is not None and hasattr(arr.base, "nbytes"):
            arr = arr.base
        owners[id(arr)] = arr.nbytes
    return sum(owners.values())


def _build_attrs(args, kwargs, result) -> dict:
    n_bases = kwargs.get("n_bases", args[0] if args else 0)
    m_targets = kwargs.get("m_targets", args[1] if len(args) > 1 else 0)
    return {"elem_ops": n_bases * m_targets * 168, "retained_bytes": _retained_bytes(result)}


def _save_attrs(args, kwargs, result) -> dict:
    return {"scenario_csv_bytes": os.path.getsize(args[1])}


def _load_attrs(args, kwargs, result) -> dict:
    return {"scenario_csv_bytes": os.path.getsize(args[0]), "retained_bytes": _retained_bytes(result)}


def _csv_writer_attrs(args, kwargs, result) -> dict:
    return {"csv_bytes": os.path.getsize(args[0])}


def _study_attrs(args, kwargs, result) -> dict:
    return {"workers": max(1, args[0].n_workers)}


def _ue_attrs(args, kwargs, result) -> dict:
    return {"ue": len(result)}


def patch_sites() -> list[tuple]:
    """(module, attribute the caller looks up, span name, attribute hook)."""
    from hapsran import cli, hapscapacity, metrics, montecarlo, offload, traffic

    return [
        (traffic, "build_scenario", "traffic.build_scenario", _build_attrs),
        (traffic, "generate_base_traces", "traffic.generate_base_traces", None),
        (traffic, "generate_target_stats", "traffic.generate_target_stats", None),
        (traffic, "save_scenario", "traffic.save_scenario", _save_attrs),
        (traffic, "load_scenario", "traffic.load_scenario", _load_attrs),
        (cli, "load_channel_tables", "linkbudget.load_channel_tables", None),
        (cli, "run_study", "montecarlo.run_study", _study_attrs),
        (cli, "run_trial", "montecarlo.run_trial", None),
        (cli, "energy_saving", "metrics.energy_saving", None),
        (montecarlo, "run_trial", "montecarlo.run_trial", None),
        (montecarlo, "sample_trial_config", "montecarlo.sample_trial_config", None),
        (montecarlo, "sample_ue_population", "hapscapacity.sample_ue_population", _ue_attrs),
        (montecarlo, "aggregate_capacity", "hapscapacity.aggregate_capacity", None),
        (montecarlo, "offload_week", "offload.offload_week", None),
        (montecarlo, "baseline_energy_per_hour", "offload.baseline_energy_per_hour", None),
        (hapscapacity, "building_entry_loss_db", "linkbudget.building_entry_loss_db", None),
        (offload, "offload_hour", "offload.offload_hour", None),
        (offload, "bs_energy", "energymodel.bs_energy", None),
        (metrics, "write_figure2_csv", "metrics.write_figure2_csv", _csv_writer_attrs),
        (metrics, "write_figure3_csv", "metrics.write_figure3_csv", _csv_writer_attrs),
        (metrics, "write_figure45_csv", "metrics.write_figure45_csv", _csv_writer_attrs),
        (metrics, "write_trials_csv", "metrics.write_trials_csv", _csv_writer_attrs),
        (metrics, "write_manifest", "metrics.write_manifest", None),
    ]


class Tracer:
    """Thread-safe in-memory span recorder.

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with an empty stack takes the innermost open span of the
    thread that created the tracer as its parent, which is the
    ``run_study`` span while the thread pool runs.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._t0 = time.perf_counter()

    def _open(self, name: str, trial: int | None) -> Span:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            main_stack = self._stacks.get(self._main, [])
            outer = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            if trial is None and outer is not None:
                trial = outer.trial
            span = Span(self._next_id, name, 0.0, 0.0, outer.sid if outer else None,
                        ident, self.op, trial)
            self._next_id += 1
            stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name, None)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn, attrs_hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name, kwargs.get("trial_idx"))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if attrs_hook is not None:
                s.attrs = attrs_hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, sites: list[tuple]):
        """Install the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, name, hook in sites:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path: Path) -> None:
        threads: dict[int, int] = {}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "thread", "op", "trial"])
            for s in sorted(self.spans, key=lambda s: s.sid):
                tid = threads.setdefault(s.thread, len(threads))
                w.writerow([s.sid, s.name, f"{s.start - self._t0:.9f}", f"{s.end - self._t0:.9f}",
                            "" if s.parent is None else s.parent, tid,
                            "" if s.op is None else s.op, "" if s.trial is None else s.trial])


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.dur - covered
    return out


def _pct(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures: per-call totals are medians over traced calls,
    per-span latencies are percentiles pooled over every traced call."""
    selft = self_times(spans)
    by_op = defaultdict(list)
    pooled = defaultdict(list)
    pooled_self = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
        pooled[s.name].append(s.dur)
        pooled_self[s.name].append(selft[s.sid])

    per_call = defaultdict(list)
    for ss in by_op.values():
        tot, self_tot, cnt, attr = defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(float)
        for s in ss:
            tot[s.name] += s.dur
            self_tot[s.name] += selft[s.sid]
            cnt[s.name] += 1
            for k, v in s.attrs.items():
                attr[k] = max(attr[k], v) if k in ("retained_bytes", "workers") else attr[k] + v
        writers = sum(v for k, v in tot.items() if k.startswith("metrics.write_"))
        study_wall = tot["montecarlo.run_study"] * max(attr["workers"], 1)
        per_call["traffic.gen_bases_s"].append(tot["traffic.generate_base_traces"])
        per_call["traffic.gen_targets_s"].append(tot["traffic.generate_target_stats"])
        per_call["traffic.match_s"].append(self_tot["traffic.build_scenario"])
        per_call["traffic.save_s"].append(tot["traffic.save_scenario"])
        per_call["traffic.match_elem_ops"].append(attr["elem_ops"])
        per_call["traffic.retained_mb"].append(attr["retained_bytes"] / 2**20)
        per_call["traffic.load_s"].append(tot["traffic.load_scenario"])
        per_call["traffic.csv_bytes"].append(attr["scenario_csv_bytes"])
        per_call["hapscapacity.ue_count"].append(attr["ue"])
        per_call["linkbudget.bel_calls"].append(cnt["linkbudget.building_entry_loss_db"])
        per_call["offload.hour_calls"].append(cnt["offload.offload_hour"])
        per_call["offload.baseline_calls"].append(cnt["offload.baseline_energy_per_hour"])
        per_call["energymodel.bs_energy_calls"].append(cnt["energymodel.bs_energy"])
        per_call["energymodel.bs_energy_s"].append(tot["energymodel.bs_energy"])
        per_call["montecarlo.busy_frac"].append(
            tot["montecarlo.run_trial"] / study_wall if study_wall > 0 else 0.0
        )
        per_call["metrics.fig45_s"].append(tot["metrics.write_figure45_csv"])
        per_call["metrics.writers_s"].append(writers)
        per_call["metrics.csv_bytes"].append(attr["csv_bytes"])

    out = {name: statistics.median(vals) for name, vals in per_call.items()}
    out.update({
        "hapscapacity.sample_ms_p50": 1e3 * _pct(pooled["hapscapacity.sample_ue_population"], 0.5),
        "hapscapacity.aggregate_ms_p50": 1e3 * _pct(pooled_self["hapscapacity.aggregate_capacity"], 0.5),
        "linkbudget.bel_ms_p50": 1e3 * _pct(pooled["linkbudget.building_entry_loss_db"], 0.5),
        "offload.week_ms_p50": 1e3 * _pct(pooled["offload.offload_week"], 0.5),
        "offload.hour_us_p50": 1e6 * _pct(pooled["offload.offload_hour"], 0.5),
        "montecarlo.trial_ms_p50": 1e3 * _pct(pooled["montecarlo.run_trial"], 0.5),
        "montecarlo.trial_ms_p90": 1e3 * _pct(pooled["montecarlo.run_trial"], 0.9),
        "montecarlo.trial_self_ms_p50": 1e3 * _pct(pooled_self["montecarlo.run_trial"], 0.5),
        "cli.self_ms_p50": 1e3 * _pct(pooled_self["cli.main"], 0.5),
    })
    return out
