"""Measure a baseline: run every workload on several seeds and summarize.

    python3 benchmark/baseline.py --seeds 1-10 --out benchmark/baseline.json

Each run is a separate `benchmark/run.py` process with the run length from
BENCHMARK.json. For every end-to-end metric the summary gives the median,
the quartiles (statistics.quantiles, n=4) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound. One traced run per workload adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import bootstrap

RUN = bootstrap.ROOT / "benchmark" / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=bootstrap.ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    extra = {}
    for line in lines[1:-1]:  # "  name  value unit" lines printed before the JSON
        parts = line.split()
        if len(parts) == 3 and not line.lstrip().startswith("#"):
            extra[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    return result, extra


def _summary(values: list[float], bound: float | None = None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else 0.0, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    args = ap.parse_args(argv)

    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    bootstrap.use_checkout_src()
    import numpy
    import scipy

    report = {
        "machine": {"cores": len(os.sched_getaffinity(0)),
                    "cpu": platform.processor() or platform.machine(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "run_seconds": seconds, "seeds": seeds,
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"]}
                    for m in spec["end_to_end"] + spec["per_layer"]},
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            result, extra = _run(name, seed, seconds, 0)
            runs.append((result, extra))
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s, " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        e2e = {k: _summary([r["metrics"][k]["value"] for r, _ in runs], bounds[k])
               for k in bounds}
        quality = {k: _summary([x[k]["value"] for _, x in runs])
                   for k in runs[0][1] if k not in bounds}
        traced, _ = _run(name, seeds[0], seconds, 1)
        report["workloads"][name] = {
            "end_to_end": e2e, "printed_only": quality,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for k, s in e2e.items():
            flag = "ok" if k == "setup_s" or s["spread"] <= s["bound"] / 3 else "WIDE"
            print(f"  {k:<16} median {s['median']:>12.4f}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}  {flag}")
    text = json.dumps(report, indent=1)
    if args.out:
        (bootstrap.ROOT / args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
