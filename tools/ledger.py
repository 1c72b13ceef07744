"""Verdict ledger: the detector's verdict, score, minima and circle on a fixed
set of seeded inputs, so that a change which must keep verdicts can be
checked against the commit that wrote the ledger.

    python tools/ledger.py --write    # regenerate tests/data/ledger.json
    python tools/ledger.py            # compare with it; exit 1 on a difference

The inputs are regenerated from their seeds on every pass:
  * the criterion-6 corpus (seed 123, the class counts of
    `benchmark/workloads.CRITERION6_COUNTS`) under the dft and dct backends;
  * the 48 frames-256 frames of seed 31, made by
    `benchmark/workloads.make_frames`, under the default detector;
  * ODD_SHAPES: seeded odd and non-square frames, half with a striped sign
    pasted in, under both backends.
Verdicts, minima and circles must match exactly, scores within SCORE_TOL.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "data" / "ledger.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import slice_radon as sr  # noqa: E402
from workloads import CRITERION6_COUNTS, make_frames  # noqa: E402

SCORE_TOL = 1e-9
ODD_SHAPES = [(20, 40), (40, 20), (21, 21), (23, 37), (37, 23), (25, 60), (31, 31),
              (33, 47), (47, 33), (35, 64), (40, 40), (41, 90), (45, 45), (48, 77),
              (51, 51), (53, 101), (57, 60), (59, 59), (60, 129), (129, 60)]


def _row(name: str, img: sr.GrayImage, backend: str) -> dict:
    res = sr.detect_end_of_restriction(img, sr.DetectorParams(backend=backend))
    c = res.circle
    return {"name": name, "backend": backend, "positive": res.positive,
            "score": res.decision_score, "minima": [e.index for e in res.minima],
            "circle": None if c is None else [c.cx, c.cy, c.radius]}


def _odd_frame(i: int, h: int, w: int) -> np.ndarray:
    """Noise over a flat level; even frames carry a striped sign at a random spot."""
    rng = np.random.default_rng(7000 + i)
    frame = np.clip(rng.uniform(0.3, 0.7) + rng.normal(0.0, 0.03, (h, w)), 0.0, 1.0)
    if i % 2 == 0:
        side = min(h, w) - int(rng.integers(0, 4))
        spec = sr.SignSpec(size=side, num_stripes=min(5, (side - 10) // 4), stripe_width=2,
                           stripe_angle=45.0 + float(rng.uniform(-2.0, 2.0)),
                           foreground=0.1, background=0.9, circle_border=True)
        y0 = int(rng.integers(0, h - side + 1))
        x0 = int(rng.integers(0, w - side + 1))
        frame[y0:y0 + side, x0:x0 + side] = sr.synth_sign(spec).pixels
    return frame


def ledger_rows(work_dir: Path) -> list[dict]:
    """Regenerate every input under `work_dir` and return one row per verdict."""
    rows = []
    corpus = work_dir / "criterion6"
    manifest = sr.generate_corpus(corpus, CRITERION6_COUNTS, seed=123)
    images = [(name, sr.load_pgm((corpus / name).read_bytes())) for name, _ in manifest]
    for backend in ("dft", "dct"):
        rows += [_row(f"criterion6/{name}", img, backend) for name, img in images]
    frames = work_dir / "frames256"
    for t in make_frames(frames, 31):
        rows.append(_row(f"frames256/{t['file']}",
                         sr.load_pgm((frames / t["file"]).read_bytes()), "dft"))
    for i, (h, w) in enumerate(ODD_SHAPES):
        img = sr.GrayImage.from_array(_odd_frame(i, h, w))
        rows += [_row(f"odd/{i:02d}_{h}x{w}", img, backend) for backend in ("dft", "dct")]
    return rows


def differences(expected: list[dict], actual: list[dict], limit: int = 5) -> list[str]:
    """The first `limit` rows that differ, described, plus a count of all of them."""
    if [(r["name"], r["backend"]) for r in expected] != [(r["name"], r["backend"])
                                                         for r in actual]:
        return [f"the inputs differ: {len(expected)} ledger rows, {len(actual)} regenerated"]
    bad = [(e, a) for e, a in zip(expected, actual)
           if (e["positive"], e["minima"], e["circle"]) != (a["positive"], a["minima"], a["circle"])
           or abs(e["score"] - a["score"]) > SCORE_TOL]
    out = [f"{e['name']} [{e['backend']}]: ledger {e}, now {a}" for e, a in bad[:limit]]
    if bad:
        out.append(f"{len(bad)} of {len(expected)} rows differ")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {LEDGER.relative_to(ROOT)}")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        rows = ledger_rows(Path(tmp))
    if args.write:
        LEDGER.parent.mkdir(parents=True, exist_ok=True)
        LEDGER.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
        print(f"wrote {len(rows)} rows to {LEDGER}")
        return 0
    diffs = differences(json.loads(LEDGER.read_text()), rows)
    print("\n".join(diffs) or f"all {len(rows)} rows match {LEDGER}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
