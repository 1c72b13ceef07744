"""Per-layer metrics of a traced run, computed from its spans and counters.

Every metric is per workload unit (an image on corpus-20 and frames-256, a
dft+dct sinogram pair on sinogram-512), so runs of different lengths and
speeds compare directly. A ratio with no attempts behind it reads 0.
"""

from __future__ import annotations

from spans import derived_self_ns, self_ns

# name -> (unit, better); benchmark/NOTES.md says which end-to-end metric each moves
PER_LAYER = {
    "image.load_pgm.calls": ("count", "lower"),
    "image.load_pgm.busy_ms": ("ms", "lower"),
    "image.load_pgm.bytes": ("B", "lower"),
    "transforms.dft2.calls": ("count", "lower"),
    "transforms.dft2.busy_ms": ("ms", "lower"),
    "transforms.dft2.points": ("count", "lower"),
    "transforms.dct2.calls": ("count", "lower"),
    "transforms.dct2.busy_ms": ("ms", "lower"),
    "transforms.dct2.points": ("count", "lower"),
    "transforms.extract_slice.calls": ("count", "lower"),
    "transforms.extract_slice.busy_ms": ("ms", "lower"),
    "transforms.extract_slice.samples": ("count", "lower"),
    "transforms.inverse_slice.calls": ("count", "lower"),
    "transforms.inverse_slice.busy_ms": ("ms", "lower"),
    "bench.cst_sinogram.busy_ms": ("ms", "lower"),
    "bench.cst_sinogram.per_angle_us": ("us", "lower"),
    "detector.locate_circle.calls": ("count", "lower"),
    "detector.locate_circle.busy_ms": ("ms", "lower"),
    "detector.locate_circle.found_ratio": ("ratio", "higher"),
    "detector.locate_circle.acc_bytes": ("B", "lower"),
    "detector.normalize_profile.busy_ms": ("ms", "lower"),
    "detector.find_extrema.busy_ms": ("ms", "lower"),
    "detector.find_extrema.min_share": ("ratio", "higher"),
    "detector.detect.busy_ms": ("ms", "lower"),
    "detector.detect.self_ms": ("ms", "lower"),
    "corpus.evaluate_corpus.busy_ms": ("ms", "lower"),
    "corpus.read.busy_ms": ("ms", "lower"),
    "corpus.overhead_ms": ("ms", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}


def per_layer(rec, units: int, overhead_pct: float) -> dict:
    """All PER_LAYER metrics as {name: (value, unit)}."""
    def busy_ns(name):
        return sum(s.ns for s in rec.by_name(name))

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            values[name] = len(rec.by_name(layer)) / units
        elif what == "busy_ms":
            values[name] = busy_ns(layer) / 1e6 / units
        elif what in ("bytes", "points", "samples", "acc_bytes"):
            values[name] = rec.counters[name] / units

    locate = len(rec.by_name("detector.locate_circle"))
    values["detector.locate_circle.found_ratio"] = ratio(
        rec.counters["detector.locate_circle.found"], locate)
    values["detector.find_extrema.min_share"] = ratio(
        rec.counters["detector.find_extrema.minima"], rec.counters["detector.find_extrema.extrema"])
    values["bench.cst_sinogram.per_angle_us"] = ratio(
        busy_ns("bench.cst_sinogram") / 1e3, rec.counters["bench.cst_sinogram.angles"])
    values["detector.detect.self_ms"] = sum(
        derived_self_ns(s, rec.children(s, "replay"))
        for s in rec.by_name("detector.detect")) / 1e6 / units
    values["corpus.overhead_ms"] = sum(
        self_ns(s, rec.children(s, "measured"))
        for s in rec.by_name("corpus.evaluate_corpus")) / 1e6 / units
    values["trace_overhead_pct"] = overhead_pct
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
