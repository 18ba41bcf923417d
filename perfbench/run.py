#!/usr/bin/env python3
"""hapsran benchmark: four workloads driven through ``hapsran.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0

Workloads (all at the default scale: 1419 base traces matched to 960 BSs
over 30 km2, 3000 UE/km2, i.e. 90 000 UEs per trial):

* ``scenario``  repeated ``hapsran scenario`` calls (trace matching, CSV/JSON writes)
* ``study``     repeated ``hapsran run --threads 1`` calls of 100 trials
* ``study_2t``  the same study with ``--threads 2``; outputs must equal ``study``'s
* ``probe``     repeated ``hapsran trial`` calls with seeded (elevation, indoor,
                traditional) triples; each reloads the scenario CSV

The scenario used by ``study``, ``study_2t`` and ``probe`` is built once per
seed in a separate process, outside every timed section, and cached under
``.perfbench_work/``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced calls and
reports the per-layer metrics from the spans (see ``perfbench/README.md``).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5
PROBE_TRIPLES = 8
SCENARIO_CACHE_KEEP = 32  # about 4.5 MB each
SUBPROCESS_TIMEOUT_S = 150


@dataclass(frozen=True)
class Scale:
    n_bases: int
    m_targets: int
    area_km2: float
    ue_density_per_km2: float
    trials: int
    min_active_frac: float = 0.4
    elevations: tuple[float, ...] = (60.0, 70.0, 80.0, 90.0)
    indoor_range: tuple[float, float] = (0.6, 0.9)
    traditional_range: tuple[float, float] = (0.3, 0.7)

    def config_text(self) -> str:
        return (
            f"[scenario]\nn_bases = {self.n_bases}\nm_targets = {self.m_targets}\n"
            f"area_km2 = {self.area_km2!r}\n\n"
            f"[study]\nue_density_per_km2 = {self.ue_density_per_km2!r}\n"
            f"elevation_set = {','.join(repr(e) for e in self.elevations)}\n"
            f"indoor_min = {self.indoor_range[0]!r}\nindoor_max = {self.indoor_range[1]!r}\n"
            f"traditional_min = {self.traditional_range[0]!r}\n"
            f"traditional_max = {self.traditional_range[1]!r}\n\n"
            f"[offload]\nmin_active_frac = {self.min_active_frac!r}\n"
        )


# "default" is the benchmark's scale; "tiny" only serves the smoke test.
SCALES = {
    "default": Scale(n_bases=1419, m_targets=960, area_km2=30.0, ue_density_per_km2=3000.0, trials=100),
    "tiny": Scale(n_bases=60, m_targets=40, area_km2=30.0, ue_density_per_km2=20.0, trials=4),
}


def derive_seed(seed: int, tag: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{tag}:{seed}".encode()).digest()[:4], "big")


def source_hash() -> str:
    """Fingerprint of the program's sources, keying the per-seed caches."""
    h = hashlib.sha256()
    for p in sorted((SRC / "hapsran").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(p.relative_to(SRC).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    git = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git_out(*args):
        try:
            r = subprocess.run(["git", *args], cwd=ROOT, env=git, capture_output=True,
                               text=True, timeout=30)
        except OSError:
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git_out("rev-parse", "HEAD")
    status = git_out("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_hash": source_hash(),
        "loadavg_start": list(os.getloadavg()),
    }


def subprocess_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAPSRAN_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


_SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import hapsran.cli, hapsran.linkbudget; "
    "hapsran.linkbudget.load_channel_tables(); print(repr(time.perf_counter() - t))"
)


def measure_setup_s() -> float:
    """Median time to import hapsran.cli and load the channel tables in a
    fresh interpreter, after one untimed warm-up interpreter."""
    values = []
    for rep in range(SETUP_REPS + 1):
        r = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET], cwd=ROOT, env=subprocess_env(),
                           capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)
        if rep:
            values.append(float(r.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


@dataclass
class Context:
    seed: int
    scale_name: str
    scale: Scale
    config: Path
    src_hash: str
    scenario_seed: int
    master_seed: int
    triples: list[tuple[float, float, float]]
    scenario_dir: Path | None = None


@dataclass
class Call:
    index: int
    seconds: float
    traced: bool
    units: int
    failed: int
    digests: dict
    errors: list


@dataclass(frozen=True)
class Workload:
    name: str
    min_calls: int
    threads: int = 1

    def argv(self, ctx: Context, i: int, out: Path) -> list[str]:
        cfg = ["--config", str(ctx.config)]
        if self.name == "scenario":
            return ["scenario", *cfg, "--seed", str(ctx.scenario_seed), "--out", str(out)]
        if self.name == "probe":
            e, ind, trad = ctx.triples[i % len(ctx.triples)]
            return ["trial", *cfg, "--scenario", str(ctx.scenario_dir), "--seed", str(ctx.master_seed),
                    "--elevation", repr(e), "--indoor", repr(ind), "--traditional", repr(trad)]
        return ["run", *cfg, "--scenario", str(ctx.scenario_dir), "--out", str(out),
                "--trials", str(ctx.scale.trials), "--seed", str(ctx.master_seed),
                "--threads", str(self.threads)]

    def units(self, ctx: Context) -> int:
        return ctx.scale.trials if self.name.startswith("study") else 1

    def key(self, i: int) -> int:
        """Calls with the same key must produce identical bytes."""
        return i % PROBE_TRIPLES if self.name == "probe" else 0

    def check(self, ctx: Context, out: Path, stdout: str):
        from checks import check_probe, check_scenario, check_study

        if self.name == "scenario":
            return check_scenario(out, ctx.scale.m_targets)
        if self.name == "probe":
            return check_probe(stdout, ctx.scale.m_targets, ctx.scale.min_active_frac)
        return check_study(out, ctx.scale.trials)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scenario", min_calls=3),
        Workload("study", min_calls=3, threads=1),
        Workload("study_2t", min_calls=3, threads=2),
        Workload("probe", min_calls=20),
    )
}


def ensure_scenario(ctx: Context) -> Path:
    """Build (once per seed and source version) the scenario the study and
    probe workloads read, in a separate process so its memory stays out of
    this process's peak RSS."""
    from checks import check_scenario

    root = WORK / "scenarios"
    d = root / f"{ctx.scale_name}-{ctx.src_hash}-{ctx.scenario_seed}"
    if not (d / "scenario_stats.json").is_file():
        tmp = d.with_name(d.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([sys.executable, "-m", "hapsran.cli", "scenario", "--config", str(ctx.config),
                        "--seed", str(ctx.scenario_seed), "--out", str(tmp)],
                       cwd=ROOT, env=subprocess_env(), capture_output=True,
                       timeout=SUBPROCESS_TIMEOUT_S, check=True)
        failed, _, errors = check_scenario(tmp, ctx.scale.m_targets)
        if failed:
            raise RuntimeError(f"set-up scenario failed its checks: {errors}")
        tmp.rename(d)
    os.utime(d)
    cached = sorted((p for p in root.iterdir() if not p.name.endswith(".tmp")),
                    key=lambda p: p.stat().st_mtime)
    for old in cached[:-SCENARIO_CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
    return d


def one_call(wl: Workload, ctx: Context, i: int, tracer=None) -> Call:
    from hapsran import cli

    out = WORK / "out" / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    argv = wl.argv(ctx, i, out)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                from tracing import patch_sites

                tracer.op = i
                with tracer.patched(patch_sites()), tracer.span("cli.main"):
                    rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        rc = repr(exc)
    seconds = time.perf_counter() - t0
    units = wl.units(ctx)
    if rc != 0:
        return Call(i, seconds, tracer is not None, units, units, {}, [f"exit status {rc}"])
    try:
        failed, digests, errors = wl.check(ctx, out, buf.getvalue())
    except Exception as exc:
        failed, digests, errors = units, {}, [f"output check raised {exc!r}"]
    shutil.rmtree(out, ignore_errors=True)
    return Call(i, seconds, tracer is not None, units, min(failed, units), digests, errors)


def compare_digests(wl: Workload, calls: list[Call], reference: dict | None) -> dict:
    """Fail every call whose outputs differ from the first call with the same
    key or from the single-thread reference of this seed."""
    first: dict[int, dict] = {}
    for c in calls:
        if not c.digests:
            continue
        k = wl.key(c.index)
        expected = first.setdefault(k, c.digests)
        if reference is not None and k == 0:
            expected = reference
        if c.digests != expected:
            c.failed = c.units
            c.errors.append("outputs differ from an earlier call or the 1-thread study")
    return first


def study_reference(wl: Workload, ctx: Context, calls: list[Call]) -> dict:
    """Digests of the 1-thread study for this seed, kept once per source
    version.  ``study`` stores its own first call; ``study_2t`` runs the
    reference itself, after its measured calls, when none is stored."""
    path = WORK / "digests" / f"{ctx.scale_name}-{ctx.src_hash}-{ctx.seed}-study.json"
    if path.is_file():
        return json.loads(path.read_text())
    ref = calls[0] if wl.name == "study" else one_call(WORKLOADS["study"], ctx, 0)
    if ref.failed:
        return {"reference failed": ref.errors}  # matches no call, so every call fails
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ref.digests, sort_keys=True))
    return ref.digests


def run_calls(wl: Workload, ctx: Context, seconds: float, tracer=None) -> list[Call]:
    """Calls for ``seconds`` of wall time (checks included), at least
    ``min_calls`` of them.  With a tracer, one untraced warm-up call is
    followed by untraced/traced pairs on the same inputs, alternating which
    of the pair goes first."""
    calls = []
    t0 = time.perf_counter()
    if tracer is None:
        while len(calls) < wl.min_calls or time.perf_counter() - t0 < seconds:
            calls.append(one_call(wl, ctx, len(calls)))
        return calls
    calls.append(one_call(wl, ctx, 0))
    pair = 0
    while pair < max(1, wl.min_calls // 2) or time.perf_counter() - t0 < seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            calls.append(one_call(wl, ctx, pair + 1, tracer if traced else None))
        pair += 1
    return calls


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value.  Below 20 samples that percentile would not lie above the median,
    so the maximum (percentile 100) is reported instead."""
    v = sorted(values)
    n = len(v)
    if n < 20:
        return 100.0, v[-1]
    return 100.0 * (n - 10) / n, v[n - 11]


def end_to_end(wl: Workload, ctx: Context, calls: list[Call], setup_s: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """The gated metrics, and the workload-specific names of the same figures plus
    the tail, which only the probe workload samples often enough to define."""
    times = [c.seconds for c in calls]
    p50 = statistics.median(times)
    pct, tail_s = tail(times)
    metrics = {
        "setup_s": setup_s,
        "call_ms_p50": 1e3 * p50,
        "peak_rss_mb": peak_rss_mb,
    }
    if wl.name == "scenario":
        extra = {"scenario_s": (p50, "s")}
    elif wl.name == "probe":
        extra = {"probe_ms_p50": (1e3 * p50, "ms"), "probe_ms_tail": (1e3 * tail_s, "ms")}
    else:
        extra = {"run_s": (p50, "s"), "trials_per_s": (ctx.scale.trials / p50, "1/s")}
    extra["call_ms_tail"] = (1e3 * tail_s, "ms")
    extra["tail_percentile"] = (pct, "%")
    extra["calls"] = (len(calls), "count")
    return metrics, extra


def per_layer(calls: list[Call], tracer) -> dict:
    from tracing import layer_metrics

    values = layer_metrics(tracer.spans)
    traced = [c.seconds for c in calls[1:] if c.traced]
    untraced = [c.seconds for c in calls[1:] if not c.traced]
    values["tracing.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    return values


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="default",
                   help="problem size; 'tiny' is for the smoke test only")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hapsran" / "cli.py").is_file():
        print(f"error: no hapsran sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    env_record = environment()
    for k in [k for k in os.environ if k.startswith("HAPSRAN_")]:
        del os.environ[k]  # config overrides would change the workload
    sys.path.insert(0, str(SRC))
    import hapsran.cli  # noqa: F401  (imported outside every timed section)

    wl = WORKLOADS[args.workload]
    scale = SCALES[args.scale]
    WORK.mkdir(exist_ok=True)
    config = WORK / f"scale-{args.scale}.ini"
    config.write_text(scale.config_text())
    rng = random.Random(derive_seed(args.seed, "probe"))
    triples = [(rng.choice(scale.elevations), rng.uniform(*scale.indoor_range),
                rng.uniform(*scale.traditional_range)) for _ in range(PROBE_TRIPLES)]
    ctx = Context(args.seed, args.scale, scale, config, env_record["source_hash"],
                  derive_seed(args.seed, "scenario"), derive_seed(args.seed, "master"), triples)

    setup_s = None if args.trace else measure_setup_s()
    if wl.name != "scenario":
        ctx.scenario_dir = ensure_scenario(ctx)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    calls = run_calls(wl, ctx, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = study_reference(wl, ctx, calls) if wl.name.startswith("study") else None
    digests = compare_digests(wl, calls, reference)

    attempted = sum(c.units for c in calls)
    failed = sum(c.failed for c in calls)
    if tracer is None:
        values, extra = end_to_end(wl, ctx, calls, setup_s, peak_rss_mb)
    else:
        values, extra = per_layer(calls, tracer), {}
        tracer.write_csv(WORK / "traces" / f"{args.scale}-{wl.name}-seed{args.seed}.csv")
    metrics_out = {m["name"]: (float(values[m["name"]]), m["unit"]) for m in spec}
    extra["fail_frac"] = (failed / attempted, "ratio")

    print(f"workload {wl.name}  seed {args.seed}  scale {args.scale}  trace {args.trace}  "
          f"scenario_seed {ctx.scenario_seed}  master_seed {ctx.master_seed}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    for name, (value, unit) in {**metrics_out, **extra}.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    for c in calls:
        for e in c.errors:
            print(f"  call {c.index}: {e}")
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "environment": env_record,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics_out, **extra}.items()},
        "call_seconds": [c.seconds for c in calls], "traced": [c.traced for c in calls],
        "digests": {str(k): v for k, v in digests.items()},
        "attempted": attempted, "failed": failed,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.scale}-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
