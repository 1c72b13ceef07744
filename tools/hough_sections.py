"""Per-section time of the streamed Hough in `locate_circle`, before and after
its 16-bit, allocation-free inner loop, on frames-256 frames.

    PYTHONPATH=src python3 tools/hough_sections.py [--seeds 31 21 5] [--repeat 5]

Both loops are timed section by section in one process. "before" is the
int32 loop with doubled gradient rays and fancy-indexed border clear; "after"
is the loop `detector.locate_circle` runs now. Each side must return the
library's Circle on every frame. A section's figure is its best total over
`--repeat` passes through all frames, divided by the frame count.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

import slice_radon as sr  # noqa: E402
from slice_radon.detector import _vote_dtype  # noqa: E402
from workloads import make_frames  # noqa: E402

SECTIONS = ("prelude", "vote coordinates", "bincount+cast", "border", "box", "window",
            "argmax")


class Clock:
    def __init__(self):
        self.t = {s: 0.0 for s in SECTIONS}
        self.last = time.perf_counter()

    def lap(self, section):
        now = time.perf_counter()
        self.t[section] += now - self.last
        self.last = now


def _edges(img):
    px = img.pixels
    gx = np.zeros_like(px)
    gy = np.zeros_like(px)
    gx[:, 1:-1] = (px[:, 2:] - px[:, :-2]) / 2.0
    gy[1:-1, :] = (px[2:, :] - px[:-2, :]) / 2.0
    mag = np.hypot(gx, gy)
    ys, xs = np.nonzero(mag > mag.mean() + mag.std())
    return xs, ys, gx[ys, xs] / mag[ys, xs], gy[ys, xs] / mag[ys, xs]


def _scan(h, w, acc, r_min, r_max, filtered_votes, clk):
    slabs = [np.zeros((h, w), acc) for _ in range(3)]
    windowed = np.empty((h, w), acc)
    filtered_votes(r_min, slabs[1])
    best_score, best_flat, r0 = -1, 0, r_min
    for r in range(r_min, r_max + 1):
        prev, cur, nxt = slabs
        if r < r_max:
            filtered_votes(r + 1, nxt)
        else:
            nxt.fill(0)
        clk.lap("box")
        np.add(prev, cur, out=windowed)
        windowed += nxt
        clk.lap("window")
        flat = int(np.argmax(windowed))
        score = int(windowed.flat[flat])
        if score > best_score or (score == best_score and flat < best_flat):
            best_score, best_flat, r0 = score, flat, r
        slabs = [cur, nxt, prev]
        clk.lap("argmax")
    if best_score <= np.pi * r0:
        return None
    cy0, cx0 = divmod(best_flat, w)
    return sr.Circle(cx=cx0, cy=cy0, radius=r0, score=float(best_score))


def before(img, r_min, r_max, clk):
    h, w = img.height, img.width
    xs, ys, ux, uy = _edges(img)
    if len(xs) == 0:
        return None
    xs = np.concatenate((xs, xs)).astype(float)
    ys = np.concatenate((ys, ys)).astype(float)
    ux = np.concatenate((ux, -ux))
    uy = np.concatenate((uy, -uy))
    acc = np.int32 if 3 * len(xs) < 2 ** 31 else np.int64
    wp = w + 2
    rows = np.empty((h, wp), acc)
    clk.lap("prelude")

    def filtered_votes(r, out):
        clk.lap("box")
        cx = np.clip(np.floor(xs + r * ux + 0.5), -1, w)
        cy = np.clip(np.floor(ys + r * uy + 0.5), -1, h)
        flat = ((cy + 1) * wp + (cx + 1)).astype(np.intp)
        clk.lap("vote coordinates")
        padded = np.bincount(flat, minlength=(h + 2) * wp).astype(acc).reshape(h + 2, wp)
        clk.lap("bincount+cast")
        padded[[0, -1]] = 0
        padded[:, [0, -1]] = 0
        clk.lap("border")
        np.add(padded[:-2], padded[1:-1], out=rows)
        np.add(rows, padded[2:], out=rows)
        np.add(rows[:, :-2], rows[:, 1:-1], out=out)
        np.add(out, rows[:, 2:], out=out)

    return _scan(h, w, acc, r_min, r_max, filtered_votes, clk)


def after(img, r_min, r_max, clk):
    h, w = img.height, img.width
    xs, ys, ux, uy = _edges(img)
    n = len(xs)
    if n == 0:
        return None
    xs = xs.astype(float)
    ys = ys.astype(float)
    acc = _vote_dtype(2 * n)
    wp = w + 2
    step = np.empty(n)
    vx, vy = np.empty(2 * n), np.empty(2 * n)
    cells = np.empty(2 * n, np.intp)
    padded = np.empty((h + 2, wp), acc)
    rows = np.empty((h, wp), acc)
    clk.lap("prelude")

    def filtered_votes(r, out):
        clk.lap("box")
        for v, p, u, hi in ((vx, xs, ux, w), (vy, ys, uy, h)):
            np.multiply(u, r, out=step)
            np.add(p, step, out=v[:n])
            np.subtract(p, step, out=v[n:])
            v += 0.5
            np.floor(v, out=v)
            np.clip(v, -1, hi, out=v)
        np.multiply(vy, wp, out=vy)
        np.add(vy, vx, out=vy)
        np.add(vy, wp + 1, out=vy)
        np.copyto(cells, vy, casting="unsafe")
        clk.lap("vote coordinates")
        np.copyto(padded.reshape(-1), np.bincount(cells, minlength=padded.size),
                  casting="unsafe")
        clk.lap("bincount+cast")
        padded[0] = 0
        padded[-1] = 0
        padded[:, 0] = 0
        padded[:, -1] = 0
        clk.lap("border")
        np.add(padded[:-2], padded[1:-1], out=rows)
        np.add(rows, padded[2:], out=rows)
        np.add(rows[:, :-2], rows[:, 1:-1], out=out)
        np.add(out, rows[:, 2:], out=out)

    return _scan(h, w, acc, r_min, r_max, filtered_votes, clk)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[31, 21, 5])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        imgs = []
        for seed in args.seeds:
            d = Path(tmp) / str(seed)
            make_frames(d, seed)
            imgs += [sr.load_pgm(p.read_bytes()) for p in sorted(d.glob("frame*.pgm"))]
    ranges = [(max(6, min(i.width, i.height) // 4), min(i.width, i.height) // 2) for i in imgs]
    want = [sr.locate_circle(i, *rr) for i, rr in zip(imgs, ranges)]
    best = {}
    for side, fn in (("before", before), ("after", after)):
        totals = []
        for _ in range(args.repeat):
            clk = Clock()
            for img, rr, c in zip(imgs, ranges, want):
                clk.last = time.perf_counter()
                if fn(img, *rr, clk) != c:
                    raise SystemExit(f"{side}: circle differs from locate_circle")
            totals.append(clk.t)
        best[side] = {s: round(1000 * min(t[s] for t in totals) / len(imgs), 2)
                      for s in SECTIONS}
        best[side]["total"] = round(sum(best[side].values()), 2)
    print(json.dumps({"frames": len(imgs), "seeds": args.seeds, "repeat": args.repeat,
                      "ms_per_frame": best}, indent=1))


if __name__ == "__main__":
    main()
