#!/usr/bin/env python3
"""Compare two checkouts of hapsran on one workload with alternating pairs.

Usage:

    python3 perfbench/compare.py --base ../parent --head . --workload study --pairs 10

Both checkouts must hold the same benchmark files.  Pair i runs seed
``first_seed + i`` on both sides, the base first in even pairs and the head
first in odd ones.  For each end-to-end metric in BENCHMARK.json the script
prints each side's median and quartiles and the head's wins, then applies
the rule in perfbench/README.md: a gain needs wins in at least nine tenths
of the pairs and a median difference larger than the base's quartile
spread; a regression is a head median worse than the base's by more than
the metric's bound.  Output digests that differ between the two sides are
reported but are not failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def bench_fingerprint(root: Path, paths: list[str]) -> str:
    h = hashlib.sha256()
    for rel in ["BENCHMARK.json", *paths]:
        p = root / rel
        files = sorted(f for f in p.rglob("*") if f.is_file() and "__pycache__" not in f.parts) if p.is_dir() else [p]
        for f in files:
            h.update(f.relative_to(root).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def run_once(root: Path, bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise SystemExit(f"{root}: benchmark exited {r.returncode}\n{r.stderr[-2000:]}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    record = root / ".perfbench_work" / "results" / f"default-{workload}-seed{seed}-trace0.json"
    result["digests"] = json.loads(record.read_text())["digests"] if record.is_file() else {}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec: dict, base: list[float], head: list[float]) -> tuple[str, int]:
    sign = -1.0 if spec["better"] == "lower" else 1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    hmed = statistics.median(head)
    improvement = sign * (hmed - bmed)
    if wins >= 0.9 * len(base) and improvement > bq3 - bq1:
        return "gain", wins
    if -improvement > spec["bound"] * abs(bmed):
        return "regression", wins
    if (bq3 - bq1) > spec["bound"] * abs(bmed):
        if all(sign * (h - b) > 0 for h in head for b in base):
            return "no regression", wins
        return "unresolved", wins
    return "no regression", wins


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--head", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("the comparison rule needs at least 10 pairs")

    bench = json.loads((args.base / "BENCHMARK.json").read_text())
    if bench_fingerprint(args.base, bench["paths"]) != bench_fingerprint(args.head, bench["paths"]):
        raise SystemExit("the two checkouts hold different benchmark files; compare with identical ones")
    seconds = bench["run_seconds"]
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            root = args.base if side == "base" else args.head
            runs[side].append(run_once(root, bench, args.workload, seed, seconds))
            print(f"pair {i} seed {seed} {side} done", file=sys.stderr)

    summary = {"workload": args.workload, "pairs": args.pairs, "metrics": {}}
    print(f"{'metric':16s} {'base median [q1, q3]':>36s} {'head median [q1, q3]':>36s}  wins  verdict")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        result, wins = verdict(spec, base, head)
        bq, hq = quartiles(base), quartiles(head)
        print(f"{name:16s} {bq[1]:14.4f} [{bq[0]:9.4f}, {bq[2]:9.4f}] "
              f"{hq[1]:14.4f} [{hq[0]:9.4f}, {hq[2]:9.4f}]  {wins:2d}/{args.pairs}  {result}")
        summary["metrics"][name] = {"base": base, "head": head, "wins": wins, "verdict": result}
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"failed operations: base {failed['base']}, head {failed['head']}"
          + ("  (a gain does not count: the head fails more)" if failed["head"] > failed["base"] else ""))
    changed = sorted({f"{k}/{name}" for b, h in zip(runs["base"], runs["head"])
                      for k in set(b["digests"]) | set(h["digests"])
                      for name in set(b["digests"].get(k, {})) | set(h["digests"].get(k, {}))
                      if b["digests"].get(k, {}).get(name) != h["digests"].get(k, {}).get(name)})
    print("output digests changed: " + (", ".join(changed) if changed else "none"))
    summary.update(failed=failed, digests_changed=changed)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
