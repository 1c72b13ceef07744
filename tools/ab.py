"""A/B driver: run the benchmark on a parent revision and on this checkout in
alternating pairs, and write a BENCH_<pr>.json record.

    python tools/ab.py --parent REV --workloads frames-256:10 corpus-20:3 \\
        --seeds 41-50 --claim frames-256:latency_p50_ref \\
        --trace-workloads frames-256 corpus-20 --title "..." --out BENCH_<pr>.json

REV is checked out with `git worktree` into a temporary directory, which is
removed at the end. Each workload runs the number of pairs after its colon;
pair i runs seed i of `--seeds`, and the side that goes first flips from
pair to pair, so that drift of the host falls on both sides.
The change side is this checkout's working tree, uncommitted edits included.

The gated metric names, their `better` direction and their bounds are read
from BENCHMARK.json, as are the benchmark command and its run length.
For each metric the record gives both sides' per-pair values, medians and
quartiles, the change's wins over the parent in paired runs, and the gap
between the medians against the parent's quartile distance. A claim
(`--claim W:metric`) is met when the change wins at least 9 of 10 pairs,
the median gap in the better direction exceeds the parent's quartile
distance, every run of both sides exits 0 and is correct, and the change
fails no more operations than the parent. `--trace-workloads` adds one
`--trace 1` run per side of each named workload at seed 31, with its
per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SEED = 31
# a printed metric line of benchmark/run.py: name, value, unit
_METRIC_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?|nan|-?inf) (\S+)$")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, tree: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run in `tree`: exit status, wall time, the JSON line and
    every printed metric."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    printed = {}
    for line in lines:
        m = _METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = float(m.group(2))
    return {"exit": proc.returncode, "wall_s": round(wall, 1), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "printed": printed}


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarize(spec_metric: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides' spread, paired wins and the median gap for one metric.
    `median_gap` is positive when the change's median is better."""
    sign = -1.0 if spec_metric["better"] == "lower" else 1.0
    p, c = _spread(parent), _spread(change)
    gap = sign * (c["median"] - p["median"])
    return {"unit": spec_metric["unit"], "better": spec_metric["better"],
            "bound": spec_metric["bound"], "parent": p, "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "change_wins": f"{sum(sign * (b - a) > 0 for a, b in zip(parent, change))}"
                           f"/{len(parent)}",
            "parent_iqr": p["q3"] - p["q1"], "median_gap": gap,
            "worse_than_bound": -gap > spec_metric["bound"] * abs(p["median"])}


def claim_line(runs: dict, workload: str, metric: str) -> dict:
    """The claim on `metric` of one workload's paired runs: met only when
    the change wins, nothing exits non-zero or is incorrect, and the change
    fails no more operations than the parent."""
    entry = runs["metrics"][metric]
    wins, pairs = (int(x) for x in entry["change_wins"].split("/"))
    failed = {s: int(runs["failed_over_attempted"][s].split("/")[0]) for s in SIDES}
    clean = (not any(code for s in SIDES for code in runs["exits"][s])
             and all(runs["all_correct"].values()) and failed["change"] <= failed["parent"])
    met = clean and wins * 10 >= 9 * pairs and entry["median_gap"] > entry["parent_iqr"]
    ratio = entry["change_over_parent"]
    return {"metric": metric, "workload": workload,
            "result": f"{'met' if met else 'not met'}: change wins {wins}/{pairs} pairs; "
                      f"median {entry['parent']['median']:.4g} -> "
                      f"{entry['change']['median']:.4g} {entry['unit']}"
                      + ("" if ratio is None else f" (x{ratio:.3f})")
                      + f", gap {entry['median_gap']:.4g} against a parent quartile distance "
                        f"of {entry['parent_iqr']:.4g}; failed {failed['parent']} -> "
                        f"{failed['change']}" + ("" if clean else "; a run failed")}


def run_pairs(spec: dict, trees: dict, workload: str, seeds: list[int], seconds: float) -> dict:
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(spec, trees[side], workload, seed, seconds, 0))
            r = runs[side][-1]
            print(f"{workload} seed {seed} {side}: exit {r['exit']}, {r['wall_s']} s, "
                  f"failed {r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    metrics = {name: summarize(m, *([r["metrics"].get(name, float("nan")) for r in runs[s]]
                                    for s in SIDES))
               for name, m in gated.items()}
    printed = sorted({k for s in SIDES for r in runs[s] for k in r["printed"]} - set(gated))
    return {
        "seeds": seeds, "runs_per_side": len(seeds),
        "order": "even pair index: parent first; odd: change first",
        "exits": {s: [r["exit"] for r in runs[s]] for s in SIDES},
        "all_correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
        "failed_over_attempted": {s: f"{sum(r['failed'] for r in runs[s])}/"
                                     f"{sum(r['attempted'] for r in runs[s])}" for s in SIDES},
        "metrics": metrics,
        "printed_only_medians": {
            k: {s: statistics.median([r["printed"][k] for r in runs[s] if k in r["printed"]]
                                     or [float("nan")]) for s in SIDES} for k in printed},
    }


def run_traced(spec: dict, trees: dict, workload: str, seed: int, seconds: float) -> dict:
    out = {"command": " ".join([*spec["command"], "--workload", workload, "--seed", str(seed),
                                "--seconds", f"{seconds:g}", "--trace", "1"])}
    for side in SIDES:
        r = run_once(spec, trees[side], workload, seed, seconds, 1)
        print(f"traced {workload} {side}: exit {r['exit']}, {r['wall_s']} s",
              file=sys.stderr, flush=True)
        out[side] = {k: r[k] for k in ("exit", "wall_s", "correct", "attempted", "failed")}
        out[side]["per_layer"] = r["metrics"]
    return out


def machine() -> dict:
    info = {"cores": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workloads", nargs="+", required=True,
                    help="NAME:PAIRS for each workload")
    ap.add_argument("--seeds", default="41-50", help="LO-HI; pair i runs seed i")
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC claimed to improve")
    ap.add_argument("--trace-workloads", nargs="*", default=[])
    ap.add_argument("--title", default="")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    seeds = _seeds(args.seeds)
    plan = []
    for item in args.workloads:
        name, _, pairs = item.partition(":")
        if not pairs.isdigit():
            ap.error(f"--workloads {item}: give NAME:PAIRS")
        n = int(pairs)
        if n > len(seeds):
            ap.error(f"{name} needs {n} seeds; --seeds {args.seeds} has {len(seeds)}")
        plan.append((name, seeds[:n]))
    if args.claim and args.claim.partition(":")[0] not in {n for n, _ in plan}:
        ap.error(f"--claim {args.claim} names a workload that is not run")

    parent_rev = _git("rev-parse", "--short", args.parent)
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    record = {"title": args.title, "machine": machine(),
              "command": " ".join([*spec["command"], "--workload W --seed S",
                                   f"--seconds {seconds:g} --trace 0"]),
              "sides": {"parent": parent_rev,
                        "change": f"working tree at {_git('rev-parse', '--short', 'HEAD')}"
                                  + (" with uncommitted edits" if dirty else "")},
              "end_to_end": {}}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        tree = Path(tmp) / "tree"
        _git("worktree", "add", "--detach", str(tree), parent_rev)
        try:
            trees = {"parent": tree, "change": ROOT}
            for name, wl_seeds in plan:
                record["end_to_end"][name] = run_pairs(spec, trees, name, wl_seeds, seconds)
            for name in args.trace_workloads:
                record[f"traced_{name.replace('-', '_')}"] = run_traced(
                    spec, trees, name, TRACE_SEED, seconds)
        finally:
            _git("worktree", "remove", "--force", str(tree))
            _git("worktree", "prune")
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        record["claim"] = claim_line(record["end_to_end"][workload], workload, metric)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}" + (f"; claim {record['claim']['result']}" if args.claim else ""),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
