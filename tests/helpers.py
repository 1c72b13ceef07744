"""Independent oracles for the test suite.

Everything here evaluates defining formulas directly (explicit sums,
gather-style recounts) and stays independent of the library's fast paths.
"""

import numpy as np


def rel_l2(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def naive_dft2_centered(arr_yup):
    """Explicit double sum; bin (kx, ky) centered, phases referenced to the
    array center (W/2, H/2). Matches the dft2 convention by construction."""
    h, w = arr_yup.shape
    out = np.zeros((h, w), dtype=complex)
    ys = np.arange(h) - h / 2.0
    xs = np.arange(w) - w / 2.0
    for iy in range(h):
        ky = iy - h // 2
        for ix in range(w):
            kx = ix - w // 2
            phase = np.exp(-2j * np.pi * (kx * xs[None, :] / w + ky * ys[:, None] / h))
            out[iy, ix] = np.sum(arr_yup * phase)
    return out


def naive_dct1(x):
    """Orthonormal DCT-II of a 1D signal, straight from the cosine sum."""
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        s = sum(x[m] * np.cos(np.pi * k * (2 * m + 1) / (2 * n)) for m in range(n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def naive_idct1(c):
    """Inverse of naive_dct1 by explicit synthesis."""
    n = len(c)
    out = np.zeros(n)
    for m in range(n):
        acc = c[0] * np.sqrt(1.0 / n)
        for k in range(1, n):
            acc += c[k] * np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * m + 1) / (2 * n))
        out[m] = acc
    return out


def dft_of_projection(proj):
    """DFT of a projection as a function of signed distance: sample b sits at
    R = b - L//2, so the transform is sum_b p[b] exp(-2pi i t (b - L//2) / L)
    for centered frequencies t. Evaluated as an explicit sum."""
    n = len(proj)
    t = (np.arange(n) - n // 2)[:, None]
    r = (np.arange(n) - n // 2)[None, :]
    return np.exp(-2j * np.pi * t * r / n) @ proj


def exp_sum_slice(arr_yup, angle_deg, frame, tvals):
    """Exact spectrum values along the slice: sum over pixels of
    I exp(-2pi i t R / frame) with R the signed center distance."""
    h, w = arr_yup.shape
    th = np.deg2rad(angle_deg)
    x = np.arange(w) - w / 2.0
    y = np.arange(h) - h / 2.0
    r = (x[None, :] * np.cos(th) + y[:, None] * np.sin(th)).ravel()
    vals = arr_yup.ravel()
    return np.array([np.sum(vals * np.exp(-2j * np.pi * t * r / frame)) for t in tvals])


def radon_pixel_loop(arr_yup, angle_deg, num_bins):
    """Pure-python restatement of the binning rule, one pixel at a time."""
    h, w = arr_yup.shape
    th = np.deg2rad(angle_deg)
    out = np.zeros(num_bins)
    for iy in range(h):
        for ix in range(w):
            r = (ix - w / 2.0) * np.cos(th) + (iy - h / 2.0) * np.sin(th)
            b = int(np.floor(r + num_bins / 2.0 + 0.5))
            b = min(max(b, 0), num_bins - 1)
            out[b] += arr_yup[iy, ix]
    return out


def draw_ring(size, cx, cy, r, fg, bg):
    """Anti-aliased 2 px ring at an arbitrary center (top-left row order)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    dist = np.hypot(xx - cx, yy - cy)
    cov = np.clip(1.5 - np.abs(dist - r), 0.0, 1.0)
    return bg + cov * (fg - bg)


def hough_gather_scores(img, r_min, r_max):
    """Recount the windowed Hough score cell by cell (gather form).

    Same voting geometry as locate_circle: central differences, threshold
    mean + std, both senses of the gradient ray, nearest-cell landing, and
    a 3x3x3 neighborhood window. Returns {(cy, cx, r): windowed score} over
    every cell, or None when no pixel passes the edge threshold.
    """
    px = img.pixels
    h, w = px.shape
    gx = np.zeros_like(px)
    gy = np.zeros_like(px)
    gx[:, 1:-1] = (px[:, 2:] - px[:, :-2]) / 2.0
    gy[1:-1, :] = (px[2:, :] - px[:-2, :]) / 2.0
    mag = np.hypot(gx, gy)
    thr = mag.mean() + mag.std()
    edges = [(x, y) for y, x in zip(*np.nonzero(mag > thr))]
    if not edges:
        return None

    counts = {}
    for (x, y) in edges:
        m = mag[y, x]
        ux, uy = gx[y, x] / m, gy[y, x] / m
        for r in range(r_min, r_max + 1):
            for sgn in (1.0, -1.0):
                cx = int(np.floor(x + sgn * r * ux + 0.5))
                cy = int(np.floor(y + sgn * r * uy + 0.5))
                if 0 <= cx < w and 0 <= cy < h:
                    key = (cy, cx, r)
                    counts[key] = counts.get(key, 0) + 1

    scores = {}
    for cy in range(h):
        for cx in range(w):
            for r in range(r_min, r_max + 1):
                score = 0
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        for dr in (-1, 0, 1):
                            score += counts.get((cy + dy, cx + dx, r + dr), 0)
                scores[(cy, cx, r)] = score
    return scores


def hough_gather_oracle(img, r_min, r_max):
    """The first cell in (cy, cx, r) order with the highest windowed score of
    hough_gather_scores, as (cell, score), or None when no pixel passes the
    edge threshold."""
    scores = hough_gather_scores(img, r_min, r_max)
    if scores is None:
        return None
    best = None
    for cell, score in scores.items():  # inserted in (cy, cx, r) order
        if best is None or score > best[1]:
            best = (cell, score)
    return best
