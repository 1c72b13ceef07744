"""Striped-sign detection: projection pipeline, extrema search, circle
localization, and the end-of-restriction verdict.

The decisive signal is the projection at 45 degrees. Stripes of the
positive class are dark on a light face, so they appear as minima; the
verdict asks for a sufficiently prominent minimum in the right part of
the profile whose absolute depth beats the incoherent-fluctuation level
of the image (line integration amplifies coherent stripes by the chord
length but averages noise away).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
from scipy.signal import find_peaks

from .errors import BadDetectorParams, BadRadiusRange, ImageTooSmall, ProfileTooShort
from .image import GrayImage
from .transforms import extract_slice, inverse_slice, ramp_filter, spectrum


@dataclass(frozen=True)
class ProjectionProfile:
    """1D projection samples indexed by signed distance from the image center."""

    values: np.ndarray
    normalized: bool = False


@dataclass(frozen=True)
class Extremum:
    index: int
    value: float
    kind: str  # "min" | "max"
    prominence: float


@dataclass(frozen=True)
class Circle:
    cx: int
    cy: int
    radius: int
    score: float


@dataclass(frozen=True)
class DetectionResult:
    positive: bool
    profile: ProjectionProfile
    minima: list[Extremum]
    circle: Circle | None
    decision_score: float
    backend: str


# Calibrated on the synthetic 20x20 corpus; see the acceptance suite.
_GAIN_DEFAULT = {"dft": 2.5, "dct": 0.5}
_PAD_DEFAULT = {"dft": 2, "dct": 1}


@dataclass(frozen=True)
class DetectorParams:
    """The detector's single config record.

    `min_gain` scales the absolute-depth gate: a qualifying minimum must be
    at least min_gain * std(image) * sqrt(profile length) deep before
    normalization; None takes the backend's default. `crop` is "auto" (Hough
    crop for frames at least `crop_min_size` wide), "on", or "off". The
    class constants and `pad()`, the backend's padding factor, are fixed.
    """

    backend: str = "dft"
    apply_ramp: bool = False
    min_prominence: float = 0.15
    min_gain: float | None = None
    crop: str = "auto"
    right_fraction: ClassVar[float] = 0.5
    interp: ClassVar[str] = "bilinear"
    crop_min_size: ClassVar[int] = 32

    def __post_init__(self):
        for name, allowed in (("backend", ("dft", "dct")), ("crop", ("auto", "on", "off"))):
            if getattr(self, name) not in allowed:
                raise BadDetectorParams(f"{name} must be one of {', '.join(allowed)}, "
                                        f"got {getattr(self, name)!r}")
        if not 0.0 < self.min_prominence <= 1.0:
            raise BadDetectorParams(f"min_prominence must lie in (0, 1], "
                                    f"got {self.min_prominence}")
        if self.min_gain is not None and not 0.0 <= self.min_gain < np.inf:
            raise BadDetectorParams(f"min_gain must be finite and >= 0, got {self.min_gain}")

    def gain(self) -> float:
        return _GAIN_DEFAULT[self.backend] if self.min_gain is None else self.min_gain

    def pad(self) -> int:
        return _PAD_DEFAULT[self.backend]


def project_cst(img: GrayImage, angle: float, backend: str = "dft",
                apply_ramp: bool = False, pad_factor: int = 2,
                interp: str = "bilinear", demean: bool = False) -> ProjectionProfile:
    """Project via the spectrum-slice route: transform, slice, invert.

    With `demean` the image mean is subtracted before the transform, which
    makes the profile exactly equivariant under affine intensity maps.
    """
    arr = img.math_array().astype(float)
    if demean:
        arr = arr - arr.mean()
    slc = extract_slice(spectrum(arr, backend, pad_factor), angle, interp)
    if apply_ramp:
        slc = ramp_filter(slc)
    return ProjectionProfile(inverse_slice(slc))


def normalize_profile(p: ProjectionProfile) -> ProjectionProfile:
    """Affine min-max rescale to [0, 1]; constant profiles map to all 0.5."""
    v = np.asarray(p.values, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    if hi - lo <= 1e-12 * max(abs(hi), abs(lo), 1.0):
        out = np.full_like(v, 0.5)
    else:
        out = (v - lo) / (hi - lo)
    return replace(p, values=out, normalized=True)


def find_extrema(p: ProjectionProfile, min_prominence: float) -> list[Extremum]:
    """All strict interior minima and maxima with topographic prominence at
    least `min_prominence`, sorted by index. Plateaus report their center."""
    if not p.normalized:
        raise ValueError("find_extrema expects a normalized profile")
    if not 0.0 < min_prominence <= 1.0:
        raise ValueError("min_prominence must lie in (0, 1]")
    v = np.asarray(p.values, dtype=float)
    if len(v) < 3:
        raise ProfileTooShort(f"profile length {len(v)} < 3")
    out: list[Extremum] = []
    for sign, kind in ((1.0, "max"), (-1.0, "min")):
        idx, props = find_peaks(sign * v, prominence=min_prominence)
        out.extend(Extremum(int(i), float(v[i]), kind, float(pr))
                   for i, pr in zip(idx, props["prominences"]))
    return sorted(out, key=lambda e: e.index)


def _vote_dtype(n_votes: int) -> type:
    """The narrowest accumulator that holds a windowed score of `n_votes`
    votes per radius: no slab, filtered slab or 3x3x3 window exceeds
    3 * n_votes, because each vote lands in one cell and a window spans
    three radii."""
    bound = 3 * n_votes
    if bound < 2 ** 16:
        return np.uint16
    return np.int32 if bound < 2 ** 31 else np.int64


def locate_circle(img: GrayImage, r_min: int, r_max: int) -> Circle | None:
    """Gradient-voting circular Hough transform.

    Central-difference gradients; pixels with magnitude above mean + std
    vote along their gradient line (both senses) at each radius. The
    accumulator is read through a 3x3x3 window, zero beyond the image and
    beyond [r_min, r_max], so votes scattered by discretization still pile
    up. The best cell wins if its windowed score exceeds half the
    perfect-circle count 2 pi r.

    The (cy, cx, r) accumulator is never held whole, so memory is O(h w)
    whatever the radius range. Radii are streamed: each radius gets one
    h x w vote slab (a single bincount over both senses), filtered by a
    separable zero-padded 3x3 box, and the windowed score at radius r is
    the sum of the filtered slabs at r - 1, r and r + 1, kept in a rolling
    window of three. Ties resolve as argmax over the volume in C order
    would: the lowest (cy, cx) first, then the lowest r.

    With E edge pixels there are 2 E votes per radius, so no windowed score
    exceeds 6 E. The slabs are uint16 while 6 E < 2**16 (E below 10 923),
    int32 while 6 E < 2**31, and int64 beyond; see `_vote_dtype`.
    """
    h, w = img.height, img.width
    if not 1 <= r_min <= r_max <= min(w, h) / 2:
        raise BadRadiusRange(f"need 1 <= {r_min} <= {r_max} <= {min(w, h) / 2}")
    px = img.pixels
    gx = np.zeros_like(px)
    gy = np.zeros_like(px)
    gx[:, 1:-1] = (px[:, 2:] - px[:, :-2]) / 2.0
    gy[1:-1, :] = (px[2:, :] - px[:-2, :]) / 2.0
    mag = np.hypot(gx, gy)
    thr = mag.mean() + mag.std()
    ys, xs = np.nonzero(mag > thr)
    n = len(xs)
    if n == 0:
        return None
    ux = gx[ys, xs] / mag[ys, xs]
    uy = gy[ys, xs] / mag[ys, xs]
    xs = xs.astype(float)
    ys = ys.astype(float)

    acc = _vote_dtype(2 * n)
    wp = w + 2
    step = np.empty(n)                  # r * u for one axis
    vx, vy = np.empty(2 * n), np.empty(2 * n)  # landing cells, + then - sense
    cells = np.empty(2 * n, np.intp)
    padded = np.empty((h + 2, wp), acc)
    rows = np.empty((h, wp), acc)

    def filtered_votes(r: int, out: np.ndarray) -> None:
        # The - sense lands at x - r u, which is exactly x + r (-u). Votes
        # off the image are clipped onto a one-cell border, which is then
        # cleared; the cleared border is also the box's zero padding.
        for v, p, u, hi in ((vx, xs, ux, w), (vy, ys, uy, h)):
            np.multiply(u, r, out=step)
            np.add(p, step, out=v[:n])
            np.subtract(p, step, out=v[n:])
            v += 0.5
            np.floor(v, out=v)
            np.clip(v, -1, hi, out=v)
        # padded cell (cy + 1) * wp + (cx + 1); small integers, exact in float
        np.multiply(vy, wp, out=vy)
        np.add(vy, vx, out=vy)
        np.add(vy, wp + 1, out=vy)
        np.copyto(cells, vy, casting="unsafe")
        np.copyto(padded.reshape(-1), np.bincount(cells, minlength=padded.size),
                  casting="unsafe")
        padded[0] = 0
        padded[-1] = 0
        padded[:, 0] = 0
        padded[:, -1] = 0
        np.add(padded[:-2], padded[1:-1], out=rows)
        np.add(rows, padded[2:], out=rows)
        np.add(rows[:, :-2], rows[:, 1:-1], out=out)
        np.add(out, rows[:, 2:], out=out)

    slabs = [np.zeros((h, w), acc) for _ in range(3)]  # filtered r - 1, r, r + 1
    windowed = np.empty((h, w), acc)
    filtered_votes(r_min, slabs[1])
    best_score, best_flat, r0 = -1, 0, r_min
    for r in range(r_min, r_max + 1):
        prev, cur, nxt = slabs
        if r < r_max:
            filtered_votes(r + 1, nxt)
        else:
            nxt.fill(0)
        np.add(prev, cur, out=windowed)
        windowed += nxt
        flat = int(np.argmax(windowed))
        score = int(windowed.flat[flat])
        # radii arrive in increasing order, so an equal score replaces the
        # best only from a lower (cy, cx)
        if score > best_score or (score == best_score and flat < best_flat):
            best_score, best_flat, r0 = score, flat, r
        slabs = [cur, nxt, prev]
    if best_score <= 0.5 * (2.0 * np.pi * r0):
        return None
    cy0, cx0 = divmod(best_flat, w)
    return Circle(cx=cx0, cy=cy0, radius=r0, score=float(best_score))


def _crop_to_circle(img: GrayImage, c: Circle) -> GrayImage:
    y0 = max(0, c.cy - c.radius)
    y1 = min(img.height, c.cy + c.radius + 1)
    x0 = max(0, c.cx - c.radius)
    x1 = min(img.width, c.cx + c.radius + 1)
    return GrayImage.from_array(img.pixels[y0:y1, x0:x1])


def detect_end_of_restriction(img: GrayImage,
                              params: DetectorParams = DetectorParams()) -> DetectionResult:
    """Full verdict pipeline: optional Hough crop, 45-degree projection,
    normalization, minima search, and the right-tail decision rule."""
    if img.width < 8 or img.height < 8:
        raise ImageTooSmall(f"{img.width}x{img.height} below the 8x8 minimum")

    circle, work = None, img
    m = min(img.width, img.height)
    if params.crop == "on" or (params.crop == "auto" and m >= params.crop_min_size):
        r_min, r_max = max(6, m // 4), m // 2
        # frames under 12 px have no radius to search, so they keep the full frame
        circle = locate_circle(img, r_min, r_max) if r_min <= r_max else None
        if circle is not None:
            cropped = _crop_to_circle(img, circle)
            if min(cropped.width, cropped.height) >= 8:
                work = cropped

    raw = project_cst(work, 45.0, backend=params.backend, apply_ramp=params.apply_ramp,
                      pad_factor=params.pad(), interp=params.interp, demean=True)
    span = float(np.max(raw.values) - np.min(raw.values))
    prof = normalize_profile(raw)
    length = len(prof.values)
    minima = [e for e in find_extrema(prof, params.min_prominence) if e.kind == "min"]

    cut = int(np.floor((1.0 - params.right_fraction) * length))
    floor_abs = params.gain() * float(work.pixels.std()) * np.sqrt(length)
    score = 0.0
    for e in minima:
        if e.index >= cut and e.prominence * span >= floor_abs:
            score = max(score, e.prominence)
    return DetectionResult(positive=score > 0.0, profile=prof, minima=minima,
                           circle=circle, decision_score=score, backend=params.backend)


# --- serialization -------------------------------------------------------

def result_to_dict(res: DetectionResult) -> dict:
    return {
        "positive": res.positive,
        "score": res.decision_score,
        "minima": [{"index": e.index, "prominence": e.prominence} for e in res.minima],
        "circle": (None if res.circle is None else
                   {"cx": res.circle.cx, "cy": res.circle.cy, "r": res.circle.radius}),
        "backend": res.backend,
    }


def result_to_json(res: DetectionResult) -> str:
    return json.dumps(result_to_dict(res))


def profile_to_csv(p: ProjectionProfile) -> str:
    lines = ["index,value"]
    lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(p.values))
    return "\n".join(lines) + "\n"


def params_to_dict(params: DetectorParams) -> dict:
    """The resolved config, constants included, as written to an eval report."""
    return {"backend": params.backend, "apply_ramp": params.apply_ramp,
            "min_prominence": params.min_prominence, "right_fraction": params.right_fraction,
            "min_gain": params.gain(), "pad_factor": params.pad(), "interp": params.interp,
            "crop": params.crop, "crop_min_size": params.crop_min_size}
