"""slice-radon benchmark runner.

    python3 benchmark/run.py --workload corpus-20 --seed 1 --seconds 55 --trace 0

Runs one workload as a closed loop with one caller in this process, checks
every output, prints each metric by name and unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run is split into an
untraced half and a traced half, and the metrics are the per-layer ones
(see benchmark/NOTES.md). Only metrics that BENCHMARK.json lists go into the
JSON line; the others are printed as text. Spans of a traced run are written
to .bench_out/ when it ends.

Each item runs after a fixed reference task that calls no program code.
The gated times (the `_ref` metrics) are item latencies in units of that
task, so that they follow the program rather than the host's speed, which
swings by a quarter or more within minutes. Wall-clock times are printed
beside them.

Exits 1 when a correctness gate fails and 2 when the checkout holds no
program source.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import bootstrap

SETUP_REPEATS = 5


def _threads() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _reference_s(arr) -> float:
    """Wall time of the reference task: fixed pure-Python and numpy work, the
    two kinds the workloads spend their time in, on a 128 x 128 array."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    for _ in range(6):
        np.abs(np.fft.fft2(arr)).sum()
        np.sort(arr, axis=None)
    return time.perf_counter() - t0


def _measure(wl, seconds, start_k=0):
    """Run items until `seconds` of wall time pass, each after one run of the
    reference task. Returns each item's latency, its latency in units of the
    reference task (the median of the reference times of the item and its
    two neighbours on each side, so that one disturbed reference run does
    not skew it), and the counts."""
    import numpy as np

    arr = np.random.default_rng(0).random((128, 128))
    latencies, refs, attempted, failed = [], [], 0, 0
    k = start_k
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        attempted += 1
        ref = _reference_s(arr)
        t0 = time.perf_counter()
        try:
            out = wl.item(k)
        except Exception as exc:  # a raising call counts as failed; the run goes on
            failed += 1
            print(f"item {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            k += 1
            continue
        latencies.append(time.perf_counter() - t0)
        refs.append(ref)
        wl.check(k, out)
        if wl.recorder is not None:
            wl.replay(wl.recorder)
        k += 1
    if not latencies:
        from workloads import GateFailure
        raise GateFailure(f"all {attempted} items raised")
    ratios = [x / statistics.median(refs[max(0, i - 2):i + 3])
              for i, x in enumerate(latencies)]
    return latencies, ratios, attempted, failed, k


def _tail(latencies, pct):
    """Latency at percentile `pct`; the inclusive method makes p50 the median."""
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def run_plain(wl, seconds, workdir):
    setups = []
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(workdir / f"setup{r}")
        setups.append(time.perf_counter() - t0)
    wl.prepare_reference()
    lat, ratios, attempted, failed, _ = _measure(wl, seconds)
    lat_ms = [x * 1e3 for x in lat]
    beyond = sum(x > _tail(ratios, wl.tail_pct) for x in ratios)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_ref": (wl.units_per_item * len(ratios) / sum(ratios), "1/ref"),
        "latency_p50_ref": (statistics.median(ratios), "ref"),
        "latency_tail_ref": (_tail(ratios, wl.tail_pct), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "items_per_s": (wl.units_per_item * len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (_tail(lat_ms, wl.tail_pct), "ms"),
        "reference_ms": (statistics.median(x / r for x, r in zip(lat_ms, ratios)), "ms"),
        "failed_fraction": (failed / attempted, "ratio"), **wl.quality()}
    notes = [f"set-up times {', '.join(f'{s:.3f}' for s in setups)} s (median reported)",
             f"{len(lat)} items timed; tail is p{wl.tail_pct} with {beyond} items beyond it",
             f"threads in process: {_threads()}", *wl.notes()]
    return metrics, extra, notes, attempted, failed


def run_traced(wl, seconds, workdir, out_dir):
    import layers
    from spans import SpanRecorder, patched, self_test

    self_test()
    wl.setup(workdir / "setup0")
    wl.prepare_reference()
    base_lat, base_ratios, att_a, fail_a, k = _measure(wl, seconds / 2.0)
    rec = SpanRecorder()
    wl.recorder = rec
    with patched(wl.trace_patches(rec)):
        traced_lat, traced_ratios, att_b, fail_b, _ = _measure(wl, seconds / 2.0, start_k=k)
    overhead = (statistics.median(traced_ratios) / statistics.median(base_ratios) - 1.0) * 100.0
    metrics = layers.per_layer(rec, wl.units_per_item * len(traced_lat), overhead)
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{wl.name}-seed{wl.seed}.csv"
    rec.write_csv(path)
    notes = [f"{len(base_lat)} untraced and {len(traced_lat)} traced items; "
             f"{len(rec.spans)} spans written to {path.relative_to(bootstrap.ROOT)}"]
    if any(s.kind == "replay" for s in rec.spans):
        notes.append("from replays: every transforms.* and detector.* metric but "
                     "detector.detect.busy_ms; detector.detect.self_ms is derived")
    return metrics, {}, notes, att_a + att_b, fail_a + fail_b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bootstrap.use_checkout_src()
    from workloads import WORKLOADS, GateFailure

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    workdir = bootstrap.ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    correct = True
    try:
        if args.trace:
            metrics, extra, notes, attempted, failed = run_traced(
                wl, args.seconds, workdir, bootstrap.ROOT / ".bench_out")
        else:
            metrics, extra, notes, attempted, failed = run_plain(wl, args.seconds, workdir)
    except GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        correct, metrics, extra, notes, attempted, failed = False, {}, {}, [], 1, 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    correct = correct and failed == 0

    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: closed loop, 1 caller, 1 process")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()
                                  if n in listed}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
