"""Grayscale images, PGM I/O, and synthetic striped-sign generation.

Pixel (0, 0) is the top-left corner and rows are stored top first. All
angle parameters elsewhere in the toolkit use mathematical (y-up)
coordinates; the flip between the two conventions happens in exactly one
place, `GrayImage.math_array`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import BadHeader, BadMagic, BadTarget, SpecTooDense, TruncatedData


@dataclass(frozen=True)
class GrayImage:
    """2D intensity raster, values in [0, 1], row-major with the top row first."""

    width: int
    height: int
    pixels: np.ndarray  # shape (height, width), float64

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        px = np.asarray(self.pixels, dtype=float)
        if px.shape != (self.height, self.width):
            raise ValueError(f"pixel array shape {px.shape} does not match "
                             f"{self.height}x{self.width}")
        if not np.all((px >= 0.0) & (px <= 1.0)):
            raise ValueError("intensities must lie in [0, 1]")
        px = np.ascontiguousarray(px)
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "GrayImage":
        arr = np.asarray(arr, dtype=float)
        h, w = arr.shape
        return cls(width=w, height=h, pixels=arr)

    def math_array(self) -> np.ndarray:
        """Pixels in y-up orientation: row index increases with y."""
        return self.pixels[::-1]


@dataclass(frozen=True)
class SignSpec:
    """Geometry of a synthetic striped sign.

    `stripe_angle` is the axis (degrees, counterclockwise from +x, y-up)
    along which the stripe pattern alternates; the dark bands themselves
    run perpendicular to it. A projection taken at `stripe_angle` resolves
    the individual stripes.
    """

    size: int = 64
    num_stripes: int = 5
    stripe_angle: float = 45.0
    stripe_width: float = 4.0
    duty: float = 0.5
    foreground: float = 0.1
    background: float = 0.9
    circle_border: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.num_stripes < 0:
            raise ValueError("num_stripes must be >= 0")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must lie in (0, 1)")
        if self.stripe_width <= 0:
            raise ValueError("stripe_width must be positive")
        for v in (self.foreground, self.background):
            if not 0.0 <= v <= 1.0:
                raise ValueError("intensities must lie in [0, 1]")
        if self.num_stripes >= 1 and not self.foreground < self.background:
            raise ValueError("striped signs are dark on light: foreground < background")

    @property
    def period(self) -> float:
        return self.stripe_width / self.duty


@dataclass(frozen=True)
class Degradation:
    """Camera-distance simulation: blur, noise, then area-average downscale."""

    gaussian_blur_sigma: float = 0.0
    noise_sigma: float = 0.0
    target_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.gaussian_blur_sigma < 0 or self.noise_sigma < 0:
            raise ValueError("sigmas must be >= 0")
        if self.target_size is not None and self.target_size < 1:
            raise ValueError(f"target_size must be None or >= 1, got {self.target_size}")


# --- PGM ---------------------------------------------------------------

def _tokenize_header(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, skipping # comments.

    Returns the tokens and the offset of the single whitespace byte that
    terminates the last token.
    """
    tokens: list[int] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i:i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] not in (10, 13):
                i += 1
            continue
        start = i
        while i < n and not data[i:i + 1].isspace():
            i += 1
        if start == i:
            raise BadHeader("unexpected end of header")
        try:
            tokens.append(int(data[start:i]))
        except ValueError as exc:
            raise BadHeader(f"bad header token {data[start:i]!r}") from exc
    return tokens, i


def load_pgm(data: bytes) -> GrayImage:
    """Parse PGM bytes (ASCII P2 or binary P5) into a GrayImage.

    Intensities are mapped to [0, 1] by value / maxval; samples above
    maxval are clamped. Comment lines are allowed anywhere in the header.
    """
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise BadMagic(f"not a PGM: magic {magic!r}")
    (width, height, maxval), offset = _tokenize_header(data[2:], 3)
    offset += 2
    if width <= 0 or height <= 0:
        raise BadHeader(f"non-positive dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise BadHeader(f"maxval {maxval} outside (0, 65535]")
    n = width * height
    if magic == b"P2":
        fields = data[offset:].split()
        if len(fields) < n:
            raise TruncatedData(f"expected {n} samples, found {len(fields)}")
        try:
            # clamped before the float conversion, which overflows past 1e308
            values = np.array([min(int(f), maxval) for f in fields[:n]], dtype=float)
        except ValueError as exc:
            raise TruncatedData("non-numeric sample in P2 raster") from exc
        if values.min() < 0:
            raise TruncatedData("negative sample in P2 raster")
    else:
        offset += 1  # single whitespace byte after maxval
        per = 2 if maxval > 255 else 1
        raw = data[offset:offset + n * per]
        if len(raw) < n * per:
            raise TruncatedData(f"expected {n * per} raster bytes, found {len(raw)}")
        dtype = ">u2" if per == 2 else np.uint8
        values = np.frombuffer(raw, dtype=dtype).astype(float)
    values = np.minimum(values, maxval) / maxval
    return GrayImage(width, height, values.reshape(height, width))


def save_pgm(img: GrayImage, binary: bool = False) -> bytes:
    """Serialize to PGM with maxval 255, rounding intensities to nearest."""
    q = np.rint(img.pixels * 255.0).astype(np.uint8)
    head = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n255\n"
    if binary:
        return head.encode("ascii") + q.tobytes()
    rows = "\n".join(" ".join(str(v) for v in row) for row in q)
    return (head + rows + "\n").encode("ascii")


# --- synthesis ---------------------------------------------------------

def synth_sign(spec: SignSpec) -> GrayImage:
    """Render a striped sign: dark anti-aliased bands on a light field.

    Bands are confined to the inscribed disk (the sign face). With
    `circle_border` a 2 px dark ring is drawn at radius size/2 - 2 and the
    bands stop just inside it.
    """
    size = spec.size
    ring_r = size / 2.0 - 2.0
    disk_r = ring_r - 3.0 if spec.circle_border else size / 2.0 - 2.0
    if spec.num_stripes >= 1 and spec.num_stripes * spec.period > 2.0 * disk_r:
        raise SpecTooDense(
            f"{spec.num_stripes} stripes of period {spec.period:.1f} exceed "
            f"the {2 * disk_r:.0f} px sign face")

    yy, xx = np.mgrid[0:size, 0:size].astype(float)  # yy is the y-up coordinate
    th = np.deg2rad(spec.stripe_angle)
    d = (xx - size / 2.0) * np.cos(th) + (yy - size / 2.0) * np.sin(th)
    dist = np.hypot(xx - size / 2.0, yy - size / 2.0)

    cov = np.zeros((size, size))
    for j in range(spec.num_stripes):
        cj = (j - (spec.num_stripes - 1) / 2.0) * spec.period
        cov = np.maximum(cov, np.clip(spec.stripe_width / 2.0 + 0.5 - np.abs(d - cj), 0.0, 1.0))
    cov *= np.clip(disk_r + 0.5 - dist, 0.0, 1.0)
    if spec.circle_border:
        cov = np.maximum(cov, np.clip(1.5 - np.abs(dist - ring_r), 0.0, 1.0))

    field = spec.background + cov * (spec.foreground - spec.background)
    return GrayImage(size, size, field[::-1])  # back to top-row-first


def _area_average_matrix(src: int, dst: int) -> np.ndarray:
    """Row-stochastic box-overlap matrix mapping src samples to dst samples."""
    scale = src / dst
    m = np.zeros((dst, src))
    for i in range(dst):
        a, b = i * scale, (i + 1) * scale
        for j in range(int(np.floor(a)), min(int(np.ceil(b)), src)):
            m[i, j] = min(b, j + 1.0) - max(a, float(j))
    return m / scale


def degrade(img: GrayImage, d: Degradation) -> GrayImage:
    """Blur, add clipped Gaussian noise, then area-average downscale.

    Deterministic for a fixed `d.seed`. The Gaussian kernel is truncated
    at 3 sigma with edge clamping; the downscale preserves mean intensity.
    """
    out = img.pixels.astype(float)
    if d.gaussian_blur_sigma > 0:
        out = gaussian_filter(out, d.gaussian_blur_sigma, mode="nearest", truncate=3.0)
    if d.noise_sigma > 0:
        rng = np.random.default_rng(d.seed)
        out = out + rng.normal(0.0, d.noise_sigma, out.shape)
    out = np.clip(out, 0.0, 1.0)
    if d.target_size is not None:
        t = d.target_size
        if t > img.width or t > img.height:
            raise BadTarget(f"target {t} exceeds source {img.width}x{img.height}")
        out = _area_average_matrix(img.height, t) @ out @ _area_average_matrix(img.width, t).T
        out = np.clip(out, 0.0, 1.0)
    return GrayImage.from_array(out)
