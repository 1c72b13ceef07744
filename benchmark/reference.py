"""Pixel-footprint projection reference, kept in the benchmark and out of timing.

Each square pixel of side 1 casts, at angle a, a trapezoidal shadow on the
detector axis: the convolution of two boxes of widths |cos a| and |sin a|,
with unit area. Integrating that shadow over unit detector bins gives the
exact area footprint of the pixel. This is the limit of supersampled binning
as the supersampling factor grows, computed in closed form (at most three
bins per pixel), in the spirit of the distance-driven (De Man & Basu 2004)
and separable-footprint projectors.

Pixel and bin geometry follow `radon_direct`: pixel (x, y) of the y-up
array sits at signed distance (x - W/2) cos a + (y - H/2) sin a, and bin b
is centered at b - num_bins/2. Out-of-range bins clamp to the edges.

Run this file directly for the N=128, 45-degree sanity check:

    python3 benchmark/reference.py
"""

from __future__ import annotations

import numpy as np

_ROW_CHUNK = 64  # rows per pass, keeps transient memory to a few MB at 512 px


def _trapezoid_cdf(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """CDF of U(-a/2, a/2) + U(-b/2, b/2): the unit-area pixel shadow."""
    a, b = max(a, b), max(min(a, b), 1e-12)
    h, d = (a + b) / 2.0, (a - b) / 2.0
    rise = np.clip(x + h, 0.0, None) ** 2 / (2.0 * a * b)
    flat = b / (2.0 * a) + (x + d) / a
    fall = 1.0 - np.clip(h - x, 0.0, None) ** 2 / (2.0 * a * b)
    return np.clip(np.where(x <= -d, rise, np.where(x <= d, flat, fall)), 0.0, 1.0)


def footprint_projection(arr_yup: np.ndarray, angle: float, num_bins: int) -> np.ndarray:
    """Exact pixel-footprint projection of a y-up array onto unit bins."""
    h, w = arr_yup.shape
    th = np.deg2rad(angle)
    c, s = np.cos(th), np.sin(th)
    half = (abs(c) + abs(s)) / 2.0
    x = np.arange(w) - w / 2.0
    out = np.zeros(num_bins)
    for y0 in range(0, h, _ROW_CHUNK):
        y = np.arange(y0, min(y0 + _ROW_CHUNK, h)) - h / 2.0
        r0 = (x[None, :] * c + y[:, None] * s).ravel()
        v = arr_yup[y0:y0 + len(y)].ravel()
        lo = np.floor(r0 - half + num_bins / 2.0 + 0.5).astype(int)
        for j in range(3):  # the shadow is at most sqrt(2) wide: three bins
            b = lo + j
            centre = b - num_bins / 2.0
            wgt = (_trapezoid_cdf(centre + 0.5 - r0, abs(c), abs(s))
                   - _trapezoid_cdf(centre - 0.5 - r0, abs(c), abs(s)))
            out += np.bincount(np.clip(b, 0, num_bins - 1), weights=v * wgt,
                               minlength=num_bins)
    return out


def supersampled_projection(arr_yup: np.ndarray, angle: float, num_bins: int,
                            k: int) -> np.ndarray:
    """k x k supersampled nearest-bin projection, for the sanity check only."""
    h, w = arr_yup.shape
    th = np.deg2rad(angle)
    off = (np.arange(k) + 0.5) / k - 0.5
    x = (np.arange(w)[:, None] + off[None, :]).ravel() - w / 2.0
    y = (np.arange(h)[:, None] + off[None, :]).ravel() - h / 2.0
    r = x[None, :] * np.cos(th) + y[:, None] * np.sin(th)
    bins = np.clip(np.floor(r + num_bins / 2.0 + 0.5).astype(int), 0, num_bins - 1)
    v = np.repeat(np.repeat(arr_yup, k, 0), k, 1) / (k * k)
    return np.bincount(bins.ravel(), weights=v.ravel(), minlength=num_bins)


def shape_error(values: np.ndarray, frame: int, ref: np.ndarray) -> float:
    """Relative L2 between min-max-normalized profiles on the reference bin grid.

    Profile sample i sits at (i - L//2) * frame / L and is linearly resampled
    onto the bin centers b - len(ref)//2. This is the same comparison the
    program's bench uses for its `max_rel_error` column.
    """
    L = len(values)
    grid = (np.arange(L) - L // 2) * (frame / L)
    resampled = np.interp(np.arange(len(ref)) - len(ref) // 2, grid, values)

    def norm01(v):
        lo, hi = v.min(), v.max()
        return (v - lo) / (hi - lo) if hi > lo else np.zeros_like(v)

    a, b = norm01(resampled), norm01(ref)
    denom = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / denom) if denom > 0 else 0.0


def _sanity_check():
    import bootstrap
    bootstrap.use_checkout_src()
    from slice_radon import GrayImage, SignSpec, project_cst, radon_direct, synth_sign

    n = 128
    frame = 2 * n  # pad factor 2
    rng = np.random.default_rng(0)
    images = {"noise": GrayImage.from_array(rng.random((n, n))),
              "sign": synth_sign(SignSpec(size=n, num_stripes=5, stripe_width=8,
                                          circle_border=True))}
    print(f"N={n}, relative L2 of min-max-normalized profiles against the exact footprint")
    print(f"{'image':<6} {'angle':>5} {'dft slice':>10} {'dct slice':>10} "
          f"{'radon_direct':>13} {'ss 6x6':>8} {'ss 16x16':>9}")
    for name, img in images.items():
        arr = img.math_array()
        for angle in (45.0, 30.0, 0.0):
            ref = footprint_projection(arr, angle, frame)
            errs = [shape_error(project_cst(img, angle, backend=be, pad_factor=2).values,
                                frame, ref) for be in ("dft", "dct")]
            direct = shape_error(radon_direct(img, angle, frame), frame, ref)
            ss = [shape_error(supersampled_projection(arr, angle, frame, k), frame, ref)
                  for k in (6, 16)]
            print(f"{name:<6} {angle:>5.0f} {errs[0]:>10.4f} {errs[1]:>10.4f} "
                  f"{direct:>13.4f} {ss[0]:>8.4f} {ss[1]:>9.4f}")


if __name__ == "__main__":
    _sanity_check()
