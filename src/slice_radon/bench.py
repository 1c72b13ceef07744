"""Timing comparison: direct per-pixel Radon vs the spectrum-slice route.

The comparison is over full sinograms (all angles of one image): the slice
route pays one 2D transform and then a cheap 1D job per angle, while the
direct route rebins every pixel at every angle. For a single angle the
direct method is the cheaper one; see the README note.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .image import GrayImage
from .transforms import (dct2, dft2, extract_slice, inverse_slice, next_pow2,
                         radon_direct)


def _check_backend(backend: str) -> None:
    if backend not in ("dft", "dct"):
        raise ValueError(f"unknown backend {backend!r}")


def cst_sinogram(img: GrayImage, angles: list[float], backend: str = "dft",
                 pad_factor: int = 2) -> list[np.ndarray]:
    """Per-angle spectrum-slice projections with the 2D transform hoisted.

    Matches project_cst(img, a, backend, pad_factor=pad_factor) for each
    angle; the spectrum is computed once and reused, which is where the
    slice route earns its speed on many-angle sinograms.
    """
    _check_backend(backend)
    spec = dft2(img, pad_factor) if backend == "dft" else dct2(img, pad_factor)
    return [inverse_slice(extract_slice(spec, a)) for a in angles]


@dataclass(frozen=True)
class BenchRow:
    n: int
    num_angles: int
    direct_seconds: float
    cst_seconds: float
    max_rel_error: float


@dataclass(frozen=True)
class BenchReport:
    rows: list[BenchRow]
    backend: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        d = json.loads(text)
        return cls(**{**d, "rows": [BenchRow(**r) for r in d["rows"]]})

    def format_table(self) -> str:
        lines = [f"{'N':>5} {'angles':>7} {'direct [s]':>11} {'cst [s]':>9} {'max rel err':>12}"]
        for r in self.rows:
            lines.append(f"{r.n:>5d} {r.num_angles:>7d} {r.direct_seconds:>11.4f} "
                         f"{r.cst_seconds:>9.4f} {r.max_rel_error:>12.3e}")
        return "\n".join(lines)


def _shape_error(profile_values: np.ndarray, frame: int, direct: np.ndarray) -> float:
    """Relative L2 between min-max-normalized profiles on the direct bin grid."""
    L = len(profile_values)
    grid = (np.arange(L) - L // 2) * (frame / L)
    bins = np.arange(len(direct)) - len(direct) // 2
    resampled = np.interp(bins, grid, profile_values)

    def norm01(v):
        lo, hi = v.min(), v.max()
        return (v - lo) / (hi - lo) if hi > lo else np.zeros_like(v)

    a, b = norm01(resampled), norm01(direct)
    denom = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / denom) if denom > 0 else 0.0


def run_bench(sizes: list[int], num_angles: int, backend: str = "dft",
              seed: int = 0) -> BenchReport:
    """Time full sinograms at pad factor 2 and report the worst per-angle
    shape error.

    Sizes must be powers of two in [32, 1024]. Angles are equally spaced
    over [0, 180). Each path is timed 3 times and the best wall time is
    reported (scheduler noise hits both paths, the minimum is the cleanest
    estimate); the error computation happens outside the timed sections.
    """
    _check_backend(backend)
    if not sizes:
        raise ValueError("no sizes given; need at least one")
    for n in sizes:
        if n < 32 or n > 1024 or next_pow2(n) != n:
            raise ValueError(f"size {n} is not a power of two in [32, 1024]")
    if num_angles < 1:
        raise ValueError("num_angles must be >= 1")

    rng = np.random.default_rng(seed)
    angles = [k * 180.0 / num_angles for k in range(num_angles)]
    rows = []
    for n in sizes:
        img = GrayImage.from_array(rng.random((n, n)))
        p = 2 * next_pow2(n)

        # warm allocator and FFT plan caches so neither path pays cold-start
        radon_direct(img, angles[0], p)
        cst_sinogram(img, angles[: min(3, len(angles))], backend=backend)

        t_direct = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            direct = [radon_direct(img, a, p) for a in angles]
            t_direct = min(t_direct, time.perf_counter() - t0)

        t_cst = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            profiles = cst_sinogram(img, angles, backend=backend)
            t_cst = min(t_cst, time.perf_counter() - t0)

        err = max(_shape_error(vals, p, d) for vals, d in zip(profiles, direct))
        rows.append(BenchRow(n=n, num_angles=num_angles, direct_seconds=t_direct,
                             cst_seconds=t_cst, max_rel_error=err))
    return BenchReport(rows=rows, backend=backend)
