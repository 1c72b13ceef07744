import numpy as np
import pytest

from helpers import rel_l2
from slice_radon import (BadDetectorParams, Degradation, DetectorParams, GrayImage,
                         ImageTooSmall,
                         ProfileTooShort, ProjectionProfile, SignSpec, degrade,
                         detect_end_of_restriction, find_extrema, normalize_profile,
                         profile_to_csv, project_cst, radon_direct, result_to_dict,
                         synth_sign)


def _profile(values, normalized=True):
    return ProjectionProfile(np.asarray(values, dtype=float), normalized=normalized)


# --- normalize_profile -----------------------------------------------------

def test_normalize_affine_rescale():
    out = normalize_profile(_profile([2.0, 4.0, 6.0], normalized=False))
    assert np.allclose(out.values, [0.0, 0.5, 1.0])
    assert out.normalized


def test_normalize_constant_rule():
    out = normalize_profile(_profile([5.0, 5.0, 5.0], normalized=False))
    assert np.allclose(out.values, 0.5)


def test_normalize_idempotent(rng):
    p = _profile(rng.random(32), normalized=False)
    once = normalize_profile(p)
    twice = normalize_profile(once)
    assert np.allclose(once.values, twice.values)


# --- find_extrema ------------------------------------------------------------

def test_extrema_alternating():
    found = find_extrema(_profile([0, 1, 0, 1, 0]), 0.5)
    maxima = [e.index for e in found if e.kind == "max"]
    assert maxima == [1, 3]


def test_extrema_monotone_ramp_empty():
    assert find_extrema(_profile([0, 0.25, 0.5, 0.75, 1.0]), 0.1) == []


def test_extrema_plateau_center():
    found = find_extrema(_profile([0, 1, 1, 1, 0]), 0.5)
    assert [e.index for e in found if e.kind == "max"] == [2]


def test_extrema_sorted_with_prominences():
    found = find_extrema(_profile([0.5, 0.0, 1.0, 0.0, 0.5]), 0.2)
    assert [e.index for e in found] == sorted(e.index for e in found)
    assert all(e.prominence > 0 for e in found)
    kinds = {e.index: e.kind for e in found}
    assert kinds[2] == "max" and kinds[1] == "min"


def test_extrema_requires_normalized(rng):
    with pytest.raises(ValueError):
        find_extrema(_profile(rng.random(16), normalized=False), 0.1)


def test_extrema_too_short():
    with pytest.raises(ProfileTooShort):
        find_extrema(_profile([0.0, 1.0]), 0.1)


def test_extrema_monotone_in_prominence(rng):
    p = _profile(np.abs(np.sin(np.linspace(0, 20, 100))) * rng.random(100))
    p = normalize_profile(ProjectionProfile(p.values))
    counts = [len(find_extrema(p, t)) for t in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert counts == sorted(counts, reverse=True)


def test_extrema_at_stripe_distances(five_stripe_sign):
    # stripe centers sit at signed distances k*period for k in -2..2; with
    # pad 2 the profile samples are frame/length px apart
    prof = normalize_profile(project_cst(five_stripe_sign, 45.0, backend="dft"))
    minima = [e for e in find_extrema(prof, 0.1) if e.kind == "min"]
    assert len(minima) == 5
    length = len(prof.values)
    spacing = 128.0 / length
    expected = [length // 2 + 8.0 * k / spacing for k in (-2, -1, 0, 1, 2)]
    got = sorted(e.index for e in minima)
    assert all(abs(g - e) <= 2.5 for g, e in zip(got, expected))


# --- project_cst ----------------------------------------------------------------

def test_project_uniform_matches_radon(uniform_image):
    prof = project_cst(uniform_image, 0.0, backend="dft")
    want = radon_direct(uniform_image, 0.0, len(prof.values))
    assert np.max(np.abs(prof.values - want)) < 1e-6
    assert not prof.normalized


def test_project_demean_equivariance(five_stripe_sign):
    base = project_cst(five_stripe_sign, 45.0, backend="dct", pad_factor=1, demean=True)
    mapped = GrayImage.from_array(np.clip(0.5 * five_stripe_sign.pixels + 0.2, 0, 1))
    other = project_cst(mapped, 45.0, backend="dct", pad_factor=1, demean=True)
    assert rel_l2(other.values, 0.5 * base.values) < 1e-12


# --- detect_end_of_restriction ----------------------------------------------------

def test_detect_positive_on_degraded_ring_sign():
    img = synth_sign(SignSpec(size=64, num_stripes=5, stripe_width=5, duty=0.55,
                              foreground=0.05, background=0.95, circle_border=True))
    soft = degrade(img, Degradation(gaussian_blur_sigma=0.5, noise_sigma=0.03,
                                    target_size=20, seed=5))
    res = detect_end_of_restriction(soft)
    assert res.positive and res.decision_score > 0
    assert res.minima  # positive implies nonempty minima


def test_detect_negative_on_uniform(uniform_image):
    res = detect_end_of_restriction(uniform_image)
    assert not res.positive and res.minima == [] and res.decision_score == 0.0


def test_detect_negative_on_speed_limit_like():
    base = synth_sign(SignSpec(size=64, num_stripes=0, circle_border=True,
                               foreground=0.1, background=0.9))
    arr = np.array(base.pixels)
    arr[20:44, 28:32] = 0.1   # vertical stroke
    arr[20:24, 24:40] = 0.1   # horizontal stroke
    res = detect_end_of_restriction(GrayImage.from_array(np.clip(arr, 0, 1)))
    assert not res.positive


def test_detect_rejects_tiny_images():
    with pytest.raises(ImageTooSmall):
        detect_end_of_restriction(GrayImage.from_array(np.full((4, 4), 0.5)))


@pytest.mark.parametrize("bad", [{"backend": "DFT"}, {"crop": "of"}, {"min_prominence": 0.0},
                                 {"min_prominence": 1.5}, {"min_gain": -1.0},
                                 {"min_gain": float("nan")}, {"min_gain": float("inf")}])
def test_params_reject_values_outside_their_domain(bad):
    with pytest.raises(BadDetectorParams):
        DetectorParams(**bad)


def test_detect_backend_agreement(five_stripe_sign):
    for backend in ("dft", "dct"):
        res = detect_end_of_restriction(five_stripe_sign,
                                        DetectorParams(backend=backend))
        assert res.positive, backend


def test_detect_angle_selectivity():
    for ang, expect in ((45.0, True), (0.0, False), (90.0, False)):
        img = synth_sign(SignSpec(size=64, num_stripes=5, stripe_angle=ang,
                                  stripe_width=4, duty=0.5,
                                  foreground=0.1, background=0.9))
        res = detect_end_of_restriction(img)
        assert res.positive is expect, f"stripes at {ang}"


def test_detect_brightness_affine_invariance(five_stripe_sign):
    base = detect_end_of_restriction(five_stripe_sign)
    for a, b in ((0.5, 0.3), (0.8, 0.1), (0.25, 0.6)):
        mapped = GrayImage.from_array(
            np.clip(a * five_stripe_sign.pixels + b, 0.0, 1.0))
        res = detect_end_of_restriction(mapped)
        assert res.positive == base.positive
        assert np.max(np.abs(res.profile.values - base.profile.values)) < 1e-9


def test_detect_uses_hough_crop_on_full_frames(ring_sign):
    res = detect_end_of_restriction(ring_sign)
    assert res.positive
    assert res.circle is not None
    assert abs(res.circle.cx - 32) <= 1 and abs(res.circle.cy - 32) <= 1
    assert abs(res.circle.radius - 30) <= 1


def test_detect_crop_off_for_small_images():
    img = synth_sign(SignSpec(size=20, num_stripes=5, stripe_width=1.5, duty=0.5,
                              foreground=0.1, background=0.9))
    res = detect_end_of_restriction(img)
    assert res.circle is None


# --- serialization ----------------------------------------------------------------

def test_result_json_schema(five_stripe_sign, uniform_image):
    d = result_to_dict(detect_end_of_restriction(five_stripe_sign))
    assert set(d) == {"positive", "score", "minima", "circle", "backend"}
    assert d["positive"] is True and d["backend"] in ("dft", "dct")
    assert all(set(m) == {"index", "prominence"} for m in d["minima"])
    d2 = result_to_dict(detect_end_of_restriction(uniform_image))
    assert d2["positive"] is False and d2["circle"] is None


def test_profile_csv_header(five_stripe_sign):
    prof = normalize_profile(project_cst(five_stripe_sign, 45.0))
    lines = profile_to_csv(prof).splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == len(prof.values) + 1
