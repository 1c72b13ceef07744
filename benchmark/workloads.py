"""The benchmark's workloads: seeded input generators, the timed item, the
correctness gates, and the traced-run replays.

Each workload is a closed loop with one caller: the next item starts when
the previous one returned. Inputs come only from the seed, through public
`slice_radon` functions, and are written to files the program then reads.

  corpus-20     one item = evaluate_corpus over the criterion-6 corpus
                (1200 images of 20 px); throughput is counted in images.
  frames-256    one item = read + load_pgm + detect on one 256 px P5 frame,
                as `slice-radon detect` does.
  sinogram-512  one item = cst_sinogram of one 512 px image at 180 angles,
                once with the dft and once with the dct backend.

BENCHMARK.json lists only corpus-20 and frames-256: within a fixed total
run time, longer runs of two workloads average out more of the host's speed
swings than shorter runs of three. sinogram-512 is run by name.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

import numpy as np
import slice_radon as sr
from slice_radon import bench as sr_bench
from slice_radon import corpus as sr_corpus
from slice_radon import detector as sr_detector
from slice_radon import image as sr_image
from slice_radon import transforms as sr_transforms

import reference


class GateFailure(Exception):
    """A program output failed a correctness gate."""


# --- shared helpers -------------------------------------------------------

def _crop(img, circle):
    """The detector's crop of `img` to the square around `circle`."""
    y0, y1 = max(0, circle.cy - circle.radius), min(img.height, circle.cy + circle.radius + 1)
    x0, x1 = max(0, circle.cx - circle.radius), min(img.width, circle.cx + circle.radius + 1)
    return sr.GrayImage.from_array(img.pixels[y0:y1, x0:x1])


def replay_detect(rec, sid, img, params, res):
    """Replay the stages of one detect_end_of_restriction call through public
    functions, each in a span linked to the detect span `sid`, and check that
    the replay did the same work the pipeline did."""
    work = img
    m = min(img.width, img.height)
    if params.crop == "on" or (params.crop == "auto" and m >= params.crop_min_size):
        r_min, r_max = max(6, m // 4), m // 2
        with rec.span("detector.locate_circle", "replay", sid):
            circle = sr_detector.locate_circle(img, r_min, r_max)
        rec.count("detector.locate_circle.found", circle is not None)
        rec.count("detector.locate_circle.acc_bytes", 3 * img.height * img.width
                  * (r_max - r_min + 1) * 8)
        if circle != res.circle:
            raise GateFailure(f"replayed locate_circle gave {circle}, detect gave {res.circle}")
        if circle is not None:
            cropped = _crop(img, circle)
            if min(cropped.width, cropped.height) >= 8:
                work = cropped

    backend, pad = params.backend, params.pad()
    transform = sr_transforms.dft2 if backend == "dft" else sr_transforms.dct2
    with rec.span(f"transforms.{backend}2", "replay", sid):
        spec = transform(work, pad)
    rec.count(f"transforms.{backend}2.points", spec.width * spec.height)
    with rec.span("transforms.extract_slice", "replay", sid):
        slc = sr_transforms.extract_slice(spec, 45.0, params.interp)
    rec.count("transforms.extract_slice.samples", slc.length)
    if params.apply_ramp:
        with rec.span("transforms.ramp_filter", "replay", sid):
            slc = sr_transforms.ramp_filter(slc)
    with rec.span("transforms.inverse_slice", "replay", sid):
        values = sr_transforms.inverse_slice(slc)
    expect = sr_detector.project_cst(work, 45.0, backend=backend, apply_ramp=params.apply_ramp,
                                     pad_factor=pad, interp=params.interp, demean=False)
    if not np.array_equal(values, expect.values):
        raise GateFailure("replayed transform, slice and inverse differ from project_cst")

    raw = sr_detector.project_cst(work, 45.0, backend=backend, apply_ramp=params.apply_ramp,
                                  pad_factor=pad, interp=params.interp, demean=True)
    with rec.span("detector.normalize_profile", "replay", sid):
        prof = sr_detector.normalize_profile(raw)
    if not np.array_equal(prof.values, res.profile.values):
        raise GateFailure("replayed normalize_profile differs from the detector's profile")
    with rec.span("detector.find_extrema", "replay", sid):
        extrema = sr_detector.find_extrema(prof, params.min_prominence)
    minima = [e for e in extrema if e.kind == "min"]
    if minima != res.minima:
        raise GateFailure("replayed find_extrema minima differ from the detector's")
    rec.count("detector.find_extrema.extrema", len(extrema))
    rec.count("detector.find_extrema.minima", len(minima))


def _detect_wrapper(rec, fn, pending):
    def traced(img, params=sr.DetectorParams()):
        with rec.span("detector.detect") as sp:
            res = fn(img, params)
        pending.append((sp.sid, img, params, res))
        return res
    return traced


def _load_pgm_wrapper(rec, fn):
    return rec.wrap("image.load_pgm", fn,
                    lambda args, out: rec.count("image.load_pgm.bytes", len(args[0])))


class Workload:
    name = ""
    units_per_item = 1      # images (or sinogram pairs) per timed item
    tail_pct = 90           # highest percentile with >= 10 items beyond it at baseline

    def __init__(self, seed: int):
        self.seed = seed
        self.recorder = None  # set for the traced phase only
        self.pending = []     # detect calls recorded during the traced phase

    def setup(self, d: Path):
        """Generate and write inputs into `d`, then make one warm-up call."""
        raise NotImplementedError

    def prepare_reference(self):
        """Benchmark-side reference work, outside every timing."""

    def item(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out):
        raise NotImplementedError

    def quality(self) -> dict:
        """Printed-only end-to-end metrics, {name: (value, unit)}."""
        return {}

    def notes(self) -> list[str]:
        return []

    def trace_patches(self, rec) -> list:
        raise NotImplementedError

    def replay(self, rec):
        for sid, img, params, res in self.pending:
            replay_detect(rec, sid, img, params, res)
        self.pending.clear()


# --- corpus-20 -----------------------------------------------------------

CRITERION6_COUNTS = {"end_restriction": 200, "speed_limit": 400, "other_negative": 600}


class Corpus20(Workload):
    name = "corpus-20"
    units_per_item = sum(CRITERION6_COUNTS.values())
    tail_pct = 83  # ~62-67 eval passes per 55 s run

    def setup(self, d):
        self.dir = d / "corpus"
        self.manifest = sr.generate_corpus(self.dir, CRITERION6_COUNTS, seed=self.seed)
        self.params = sr.DetectorParams()
        img = sr.load_pgm((self.dir / self.manifest[0][0]).read_bytes())
        sr.detect_end_of_restriction(img, self.params)
        self.first = None

    def item(self, k):
        return sr_corpus.evaluate_corpus(self.dir, self.params, jobs=1)

    def check(self, k, report):
        totals = {r.class_label: r.total for r in report.rows}
        if totals != CRITERION6_COUNTS or report.warnings:
            raise GateFailure(f"report totals {totals} / warnings {report.warnings} "
                              f"do not match the manifest {CRITERION6_COUNTS}")
        detected = {r.class_label: r.positives_detected for r in report.rows}
        if self.first is None:
            self.first = report
        elif detected != {r.class_label: r.positives_detected for r in self.first.rows}:
            raise GateFailure("verdicts changed between passes over the same corpus")

    def quality(self):
        if self.first is None:
            return {}
        pos = next(r for r in self.first.rows if r.class_label == sr.POSITIVE_CLASS)
        return {"detection_rate": (pos.rate, "ratio"),
                "false_positive_rate": (self.first.false_positive_rate, "ratio")}

    def trace_patches(self, rec):
        class TracedReadPath(type(Path())):
            def read_bytes(self):
                with rec.span("corpus.read"):
                    return super().read_bytes()

        return [(sr_corpus, "evaluate_corpus",
                 rec.wrap("corpus.evaluate_corpus", sr_corpus.evaluate_corpus)),
                (sr_corpus, "Path", TracedReadPath),
                (sr_corpus, "load_pgm", _load_pgm_wrapper(rec, sr_corpus.load_pgm)),
                (sr_corpus, "detect_end_of_restriction",
                 _detect_wrapper(rec, sr_corpus.detect_end_of_restriction, self.pending))]


# --- frames-256 ----------------------------------------------------------

FRAME = 256
FRAME_POOL = 48
FRAME_BLOCK = ("end_restriction", "speed_limit", "end_restriction", None,
               "end_restriction", "speed_limit", "end_restriction", None)
SIGN_FRACTION = (0.2, 0.9)  # sign diameter as a share of the frame side


def make_frames(d: Path, seed: int) -> list[dict]:
    """Write FRAME_POOL noisy 256 px P5 frames, half with an end_restriction
    sign, a quarter with a speed_limit sign and a quarter with none, plus
    `truth.json` with each drawn ring (centre in pixel coordinates, top row
    first, and radius).

    Every block of 8 consecutive frames has the same class mix, and sign
    diameters are stratified over SIGN_FRACTION within each class of a
    block, so any run that covers whole blocks sees the same size spread.
    """
    rng = np.random.default_rng(seed)
    d.mkdir(parents=True)
    truth = []
    lo, hi = SIGN_FRACTION
    for i in range(FRAME_POOL):
        label = FRAME_BLOCK[i % len(FRAME_BLOCK)]
        level = rng.uniform(0.3, 0.7)
        frame = np.clip(level + rng.normal(0.0, rng.uniform(0.01, 0.03), (FRAME, FRAME)),
                        0.0, 1.0)
        ring = None
        if label is not None:
            slots = [j for j, lab in enumerate(FRAME_BLOCK) if lab == label]
            stratum = slots.index(i % len(FRAME_BLOCK))
            frac = lo + (hi - lo) * (stratum + rng.random()) / len(slots)
            size = 2 * int(round(frac * FRAME / 2))
            # five 5 px stripes need a 50 px face; the smallest signs use 4 px
            widths = (4, 5) if size >= 62 else (4,)
            sign_dir = d / "signs" / f"{i:03d}"
            rows = sr.generate_corpus(sign_dir, {label: 1}, seed=int(rng.integers(2 ** 31)),
                                      templates=sr.CorpusTemplates(
                                          sign_size=size, target_size=None, stripe_widths=widths))
            sign = sr.load_pgm((sign_dir / rows[0][0]).read_bytes())
            x0 = int(rng.integers(0, FRAME - size + 1))
            y0 = int(rng.integers(0, FRAME - size + 1))
            # synth_sign centres the ring at (size/2, size/2) in y-up
            # coordinates, which is row size/2 - 1 once stored top row first
            yy, xx = np.mgrid[0:size, 0:size].astype(float)
            alpha = np.clip(size / 2.0 - np.hypot(xx - size / 2.0, yy - (size / 2.0 - 1)),
                            0.0, 1.0)
            patch = frame[y0:y0 + size, x0:x0 + size]
            frame[y0:y0 + size, x0:x0 + size] = alpha * sign.pixels + (1 - alpha) * patch
            ring = {"cx": x0 + size / 2.0, "cy": y0 + size / 2.0 - 1, "r": size / 2.0 - 2}
        name = f"frame{i:03d}.pgm"
        (d / name).write_bytes(sr.save_pgm(sr.GrayImage.from_array(frame), binary=True))
        truth.append({"file": name, "label": label, "ring": ring})
    (d / "truth.json").write_text(json.dumps(truth, indent=1))
    return truth


RESULT_KEYS = {"positive", "score", "minima", "circle", "backend"}
CIRCLE_KEYS = {"cx", "cy", "r"}


class Frames256(Workload):
    name = "frames-256"
    tail_pct = 92  # ~135-165 frames per 55 s run

    def setup(self, d):
        self.dir = d / "frames"
        self.truth = make_frames(self.dir, self.seed)
        self.paths = [self.dir / t["file"] for t in self.truth]
        self.params = sr.DetectorParams()
        sr.detect_end_of_restriction(sr.load_pgm(self.paths[0].read_bytes()), self.params)
        self.results = {}

    def item(self, k):
        i = k % FRAME_POOL
        img = sr_image.load_pgm(self.paths[i].read_bytes())
        return i, sr_detector.detect_end_of_restriction(img, self.params)

    def check(self, k, out):
        i, res = out
        d = sr.result_to_dict(res)
        if set(d) != RESULT_KEYS or (d["circle"] is not None and set(d["circle"]) != CIRCLE_KEYS):
            raise GateFailure(f"frame {i}: result keys {sorted(d)} are not the pinned set")
        if json.loads(json.dumps(d)) != d:
            raise GateFailure(f"frame {i}: result does not survive a JSON round trip")
        if i in self.results and self.results[i] != d:
            raise GateFailure(f"frame {i}: result changed between calls")
        self.results[i] = d

    def quality(self):
        pos = [self.results[i]["positive"] for i in self.results
               if self.truth[i]["label"] == "end_restriction"]
        neg = [self.results[i]["positive"] for i in self.results
               if self.truth[i]["label"] != "end_restriction"]
        hits = [hit for hit, _ in self._circle_hits()]
        return {"detection_rate": (statistics.fmean(pos) if pos else 0.0, "ratio"),
                "false_positive_rate": (statistics.fmean(neg) if neg else 0.0, "ratio"),
                "circle_hit_rate": (statistics.fmean(hits) if hits else 0.0, "ratio")}

    def notes(self):
        pairs = self._circle_hits()
        big = [hit for hit, in_range in pairs if in_range]
        small = [hit for hit, in_range in pairs if not in_range]
        return [f"in-range signs hit {sum(big)}/{len(big)}, "
                f"below-range signs found {sum(small)}/{len(small)}"]

    def _circle_hits(self) -> list[tuple[bool, bool]]:
        """(hit, ring within the default radius range) for each frame with a sign."""
        out = []
        for i, d in self.results.items():
            ring, c = self.truth[i]["ring"], d["circle"]
            if ring is None:
                continue
            hit = (c is not None and np.hypot(c["cx"] - ring["cx"], c["cy"] - ring["cy"]) <= 1.5
                   and abs(c["r"] - ring["r"]) <= 1)
            out.append((hit, ring["r"] >= FRAME // 4))
        return out

    def trace_patches(self, rec):
        return [(sr_image, "load_pgm", _load_pgm_wrapper(rec, sr_image.load_pgm)),
                (sr_detector, "detect_end_of_restriction",
                 _detect_wrapper(rec, sr_detector.detect_end_of_restriction, self.pending))]


# --- sinogram-512 --------------------------------------------------------

SINO_N = 512
SINO_POOL = 4
SINO_ANGLES = [float(k) for k in range(180)]  # equally spaced over [0, 180)
REF_ANGLES = SINO_ANGLES[::15]  # 0, 15, ..., 165: footprint reference angles
SINO_PAD = 2


def _digest(profiles) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in profiles:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.digest()


class Sinogram512(Workload):
    name = "sinogram-512"
    tail_pct = 96  # ~270 pairs per 55 s run

    def setup(self, d):
        rng = np.random.default_rng(self.seed)
        d.mkdir(parents=True)
        self.images = []
        for i in range(SINO_POOL):
            if i % 2 == 0:
                noise = sr.GrayImage.from_array(rng.random((SINO_N, SINO_N)))
                path = d / f"noise{i}.pgm"
                path.write_bytes(sr.save_pgm(noise, binary=True))
            else:
                rows = sr.generate_corpus(
                    d / f"sign{i}", {"end_restriction": 1}, seed=int(rng.integers(2 ** 31)),
                    templates=sr.CorpusTemplates(sign_size=SINO_N, target_size=None,
                                                 stripe_widths=(16, 20)))
                path = d / f"sign{i}" / rows[0][0]
            self.images.append(sr.load_pgm(path.read_bytes()))
        for backend in ("dft", "dct"):
            sr.cst_sinogram(self.images[0], SINO_ANGLES, backend=backend, pad_factor=SINO_PAD)
        self.digests = {}
        self.errors = {"dft": [], "dct": []}

    def prepare_reference(self):
        self.frame = SINO_PAD * sr.next_pow2(SINO_N)
        self.footprints = [[reference.footprint_projection(img.math_array(), a, self.frame)
                            for a in REF_ANGLES] for img in self.images]
        self.direct = [[sr.radon_direct(img, a, self.frame) for a in (0.0, 90.0)]
                       for img in self.images]

    def item(self, k):
        i = k % SINO_POOL
        img = self.images[i]
        dft = sr_bench.cst_sinogram(img, SINO_ANGLES, backend="dft", pad_factor=SINO_PAD)
        dct = sr_bench.cst_sinogram(img, SINO_ANGLES, backend="dct", pad_factor=SINO_PAD)
        return i, dft, dct

    def check(self, k, out):
        i, dft, dct = out
        if len(dft) != len(SINO_ANGLES) or len(dct) != len(SINO_ANGLES):
            raise GateFailure(f"image {i}: expected {len(SINO_ANGLES)} profiles per backend")
        if not all(np.all(np.isfinite(p)) for p in dft + dct):
            raise GateFailure(f"image {i}: non-finite profile values")
        digest = _digest(dft + dct)
        if i in self.digests:
            if digest != self.digests[i]:
                raise GateFailure(f"image {i}: profiles changed between calls")
            return
        self.digests[i] = digest
        for ref, a in zip(self.direct[i], (0.0, 90.0)):
            err = reference.shape_error(dft[SINO_ANGLES.index(a)], self.frame, ref)
            if err > 1e-9:
                raise GateFailure(f"image {i}: dft profile at {a:g} deg is {err:.2e} "
                                  f"from radon_direct (limit 1e-9)")
        for backend, profiles in (("dft", dft), ("dct", dct)):
            self.errors[backend].extend(
                reference.shape_error(profiles[SINO_ANGLES.index(a)], self.frame, ref)
                for a, ref in zip(REF_ANGLES, self.footprints[i]))

    def quality(self):
        return {f"{b}_profile_rel_err": (statistics.median(e) if e else 0.0, "ratio")
                for b, e in self.errors.items()}

    def trace_patches(self, rec):
        def wrap(name, fn, counter=None, measure=None):
            if counter is None:
                return rec.wrap(name, fn)
            return rec.wrap(name, fn, lambda args, out: rec.count(counter, measure(out)))

        return [
            (sr_bench, "cst_sinogram", wrap("bench.cst_sinogram", sr_bench.cst_sinogram,
                                            "bench.cst_sinogram.angles", len)),
            (sr_bench, "dft2", wrap("transforms.dft2", sr_bench.dft2, "transforms.dft2.points",
                                    lambda o: o.width * o.height)),
            (sr_bench, "dct2", wrap("transforms.dct2", sr_bench.dct2, "transforms.dct2.points",
                                    lambda o: o.width * o.height)),
            (sr_bench, "extract_slice", wrap("transforms.extract_slice", sr_bench.extract_slice,
                                             "transforms.extract_slice.samples",
                                             lambda o: o.length)),
            (sr_bench, "inverse_slice", wrap("transforms.inverse_slice", sr_bench.inverse_slice)),
        ]


WORKLOADS = {w.name: w for w in (Corpus20, Frames256, Sinogram512)}
