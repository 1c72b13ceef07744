import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import draw_ring, hough_gather_oracle, hough_gather_scores
from slice_radon import BadRadiusRange, Circle, GrayImage, detector, locate_circle


def test_centered_ring_recovered():
    img = GrayImage.from_array(draw_ring(64, 32, 32, 10, 0.1, 0.9))
    c = locate_circle(img, 4, 30)
    assert c is not None
    assert abs(c.cx - 32) <= 1 and abs(c.cy - 32) <= 1 and abs(c.radius - 10) <= 1


def test_off_center_ring_recovered():
    img = GrayImage.from_array(draw_ring(64, 24, 40, 12, 0.2, 0.8))
    c = locate_circle(img, 4, 30)
    assert c is not None
    assert abs(c.cx - 24) <= 1 and abs(c.cy - 40) <= 1 and abs(c.radius - 12) <= 1


def test_blank_image_returns_none():
    assert locate_circle(GrayImage.from_array(np.full((64, 64), 0.5)), 4, 30) is None


def test_two_equal_rings_returns_one():
    a = draw_ring(64, 32, 32, 8, 0.1, 0.9)
    b = draw_ring(64, 32, 32, 14, 0.1, 0.9)
    img = GrayImage.from_array(np.minimum(a, b))
    c = locate_circle(img, 4, 30)
    assert c is not None
    assert abs(c.cx - 32) <= 1 and abs(c.cy - 32) <= 1
    assert min(abs(c.radius - 8), abs(c.radius - 14)) <= 1


def test_two_rings_higher_contrast_wins():
    weak = draw_ring(64, 20, 20, 8, 0.75, 0.9)    # contrast 0.15, below threshold
    strong = draw_ring(64, 44, 44, 12, 0.1, 0.9)  # contrast 0.8
    img = GrayImage.from_array(np.minimum(weak, strong))
    c = locate_circle(img, 4, 30)
    assert c is not None
    assert abs(c.cx - 44) <= 1 and abs(c.cy - 44) <= 1 and abs(c.radius - 12) <= 1


def test_bad_radius_range():
    img = GrayImage.from_array(np.full((32, 32), 0.5))
    for rmin, rmax in ((0, 10), (8, 4), (4, 20)):
        with pytest.raises(BadRadiusRange):
            locate_circle(img, rmin, rmax)


def test_agrees_with_gather_oracle_on_16px_set(rng):
    fixtures = [draw_ring(16, 8, 8, 5, 0.1, 0.9),
                draw_ring(16, 7, 9, 4, 0.2, 0.8),
                draw_ring(16, 9, 7, 6, 0.0, 1.0),
                np.clip(draw_ring(16, 8, 8, 5, 0.1, 0.9)
                        + rng.normal(0, 0.02, (16, 16)), 0, 1)]
    for arr in fixtures:
        img = GrayImage.from_array(arr)
        oracle = hough_gather_oracle(img, 3, 8)
        got = locate_circle(img, 3, 8)
        assert oracle is not None
        (ocy, ocx, orr), oscore = oracle
        if got is None:
            assert oscore <= 0.5 * 2 * np.pi * orr
        else:
            assert (got.cy, got.cx, got.radius) == (ocy, ocx, orr)
            assert got.score == oscore


@st.composite
def _ring_images(draw):
    """Odd and non-square 8-24 px images: one ring, optional noise, and a
    radius range anywhere in [1, min(h, w) / 2], single radii included."""
    h, w = draw(st.integers(8, 24)), draw(st.integers(8, 24))
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    cx, cy = draw(st.floats(0, w - 1)), draw(st.floats(0, h - 1))
    r = draw(st.floats(1.0, min(h, w) / 2))
    cov = np.clip(1.5 - np.abs(np.hypot(xx - cx, yy - cy) - r), 0.0, 1.0)
    arr = 0.9 - 0.8 * cov
    noise = draw(st.sampled_from([0.0, 0.05]))
    if noise:
        arr = np.clip(arr + np.random.default_rng(draw(st.integers(0, 2 ** 16)))
                      .normal(0.0, noise, (h, w)), 0.0, 1.0)
    r_max = draw(st.integers(1, min(h, w) // 2))
    r_min = draw(st.integers(1, r_max))
    return GrayImage.from_array(arr), r_min, r_max


@settings(max_examples=100, deadline=None)
@given(_ring_images())
def test_agrees_with_gather_oracle_on_odd_shapes(case):
    img, r_min, r_max = case
    oracle = hough_gather_oracle(img, r_min, r_max)
    got = locate_circle(img, r_min, r_max)
    if oracle is None or oracle[1] <= np.pi * oracle[0][2]:
        assert got is None
    else:
        (ocy, ocx, orr), oscore = oracle
        assert (got.cy, got.cx, got.radius, got.score) == (ocy, ocx, orr, oscore)


def test_ties_resolve_in_c_order_across_radii():
    # Two bright squares. The 7 px one peaks at (cy, cx, r) = (5, 5, 4); the
    # 5 px one ties it at (15, 15, 2) and (15, 15, 3), lower radii but a
    # later (cy, cx). C order takes the lowest (cy, cx) before the lowest r.
    arr = np.zeros((24, 24))
    arr[2:9, 2:9] = 1.0
    arr[13:18, 13:18] = 1.0
    img = GrayImage.from_array(arr)
    scores = hough_gather_scores(img, 1, 6)
    best = max(scores.values())
    assert [cell for cell, s in scores.items() if s == best] == [
        (5, 5, 4), (15, 15, 2), (15, 15, 3)]
    c = locate_circle(img, 1, 6)
    assert (c.cy, c.cx, c.radius, c.score) == (5, 5, 4, float(best))


def test_vote_dtype_boundaries():
    # No windowed score exceeds 3 * n_votes; each dtype must hold that bound.
    cases = ((1, np.uint16), (21844, np.uint16), (21845, np.uint16), (21846, np.int32),
             (715827882, np.int32), (715827883, np.int64), (2 ** 40, np.int64))
    for n_votes, want in cases:
        got = detector._vote_dtype(n_votes)
        assert got is want, n_votes
        assert 3 * n_votes <= np.iinfo(got).max, n_votes
    # the uint16 limit in edge pixels (2 votes each): below 10 923
    assert detector._vote_dtype(2 * 10922) is np.uint16
    assert detector._vote_dtype(2 * 10923) is np.int32


def test_agrees_with_gather_oracle_above_the_uint16_bound(monkeypatch):
    # 300 px noise has about 14k edge pixels, past the uint16 slabs' limit.
    real, chosen = detector._vote_dtype, []
    monkeypatch.setattr(detector, "_vote_dtype",
                        lambda n_votes: chosen.append(real(n_votes)) or chosen[-1])
    img = GrayImage.from_array(np.random.default_rng(5).random((300, 300)))
    (ocy, ocx, orr), oscore = hough_gather_oracle(img, 1, 3)
    got = locate_circle(img, 1, 3)
    assert chosen == [np.int32]
    assert (got.cy, got.cx, got.radius, got.score) == (ocy, ocx, orr, oscore)


def test_memory_is_linear_in_frame_area():
    # A 256 px frame over 65 radii: one h x w x nr int64 accumulator would be
    # 34 MB; the bound allows 7 h x w arrays of 8 bytes. The peak is 3.1 MB,
    # half of it the float gradients; int32 slabs with per-radius
    # temporaries peaked at 4.0 MB.
    n = 256
    img = GrayImage.from_array(draw_ring(n, 120, 130, 90, 0.1, 0.9))
    tracemalloc.start()
    try:
        c = locate_circle(img, n // 4, n // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c is not None and (c.cx, c.cy, c.radius) == (120, 130, 90)
    assert peak < 7 * n * n * 8


@settings(max_examples=100, deadline=None)
@given(_ring_images(), st.data())
def test_vote_band_is_the_gather_best_within_the_band(case, data):
    img, r_min, r_max = case
    lo = data.draw(st.integers(r_min, r_max))
    hi = data.draw(st.integers(lo, r_max))
    scores = hough_gather_scores(img, r_min, r_max)
    edges = detector._edges(img.pixels)
    if scores is None:
        assert edges is None
        return
    band = [(cell, s) for cell, s in scores.items() if lo <= cell[2] <= hi]
    best = max(s for _, s in band)
    (cy, cx, r), score = next(item for item in band if item[1] == best)  # C order
    got = detector._vote_band(edges, img.height, img.width, r_min, r_max, lo, hi)
    assert got == (score, cy * img.width + cx, r)


def _criterion_7_rings(seed, count):
    """Rings on 80 px frames as criterion 7 draws them: r 8-30, contrast
    0.3-0.9, the whole ring inside the frame."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = int(rng.integers(8, 31))
        cx, cy = (int(rng.integers(r + 4, 80 - r - 4)) for _ in range(2))
        contrast = float(rng.uniform(0.3, 0.9))
        bg = float(rng.uniform(contrast, 1.0))
        yield GrayImage.from_array(draw_ring(80, cx, cy, r, bg - contrast, bg))


def _exhaustive(img, r_min, r_max):
    """The one-band search over the whole range, gated as locate_circle is."""
    edges = detector._edges(img.pixels)
    if edges is None:
        return None
    score, flat, r = detector._vote_band(edges, img.height, img.width, r_min, r_max,
                                         r_min, r_max)
    if score <= np.pi * r:
        return None
    cy, cx = divmod(flat, img.width)
    return Circle(cx=cx, cy=cy, radius=r, score=float(score))


def _spy_coarse_stage(monkeypatch):
    real, calls = detector._coarse_radii, []
    monkeypatch.setattr(detector, "_coarse_radii",
                        lambda *args: calls.append(args[1:]) or real(*args))
    return calls


def test_coarse_to_fine_equals_the_exhaustive_search(monkeypatch):
    calls = _spy_coarse_stage(monkeypatch)
    for img in _criterion_7_rings(2022, 50):
        del calls[:]
        got = locate_circle(img, 6, 35)
        assert calls == [(6, 35)]
        assert got is not None and got == _exhaustive(img, 6, 35)


def test_edge_cut_rings_equal_the_exhaustive_search():
    # 64 x 80 frames; the ring's centre lies within r / 2 of one frame edge,
    # so the frame cuts it. A single coarse proposal missed one in this set.
    rng = np.random.default_rng(0)
    yy, xx = np.mgrid[0:64, 0:80].astype(float)
    for _ in range(40):
        r = int(rng.integers(10, 29))
        cx, cy = float(rng.uniform(0, 79)), float(rng.uniform(0, 63))
        side, d = int(rng.integers(4)), float(rng.uniform(0, r / 2))
        cx, cy = ((d, cy), (79 - d, cy), (cx, d), (cx, 63 - d))[side]
        cov = np.clip(1.5 - np.abs(np.hypot(xx - cx, yy - cy) - r), 0.0, 1.0)
        img = GrayImage.from_array(0.9 - 0.8 * cov)
        assert locate_circle(img, 4, 32) == _exhaustive(img, 4, 32), (cx, cy, r)


def test_only_ranges_over_14_radii_take_the_coarse_stage(monkeypatch):
    calls = _spy_coarse_stage(monkeypatch)
    img = GrayImage.from_array(draw_ring(64, 32, 32, 20, 0.1, 0.9))
    for r_min, r_max, n_calls in ((8, 21, 0), (16, 29, 0), (16, 30, 1), (1, 32, 1)):
        del calls[:]
        c = locate_circle(img, r_min, r_max)
        assert len(calls) == n_calls, (r_min, r_max)
        assert (c.cx, c.cy, c.radius) == (32, 32, 20)
