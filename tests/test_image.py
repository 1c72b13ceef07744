import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slice_radon import (BadMagic, BadHeader, BadTarget, Degradation, GrayImage,
                         SignSpec, SliceRadonError, SpecTooDense, TruncatedData, degrade,
                         load_pgm, normalize_profile, project_cst, save_pgm, synth_sign,
                         find_extrema)


# --- PGM parsing ---------------------------------------------------------

def test_load_p2_basic():
    img = load_pgm(b"P2\n2 2\n255\n0 255 255 0")
    assert (img.width, img.height) == (2, 2)
    assert np.allclose(img.pixels, [[0.0, 1.0], [1.0, 0.0]])


def test_load_p5_single_byte():
    img = load_pgm(b"P5\n1 1\n255\n" + bytes([0x80]))
    assert img.pixels[0, 0] == 128 / 255


def test_load_p5_sixteen_bit():
    img = load_pgm(b"P5\n1 1\n65535\n" + (1000).to_bytes(2, "big"))
    assert abs(img.pixels[0, 0] - 1000 / 65535) < 1e-12


def test_load_rejects_bad_magic():
    with pytest.raises(BadMagic):
        load_pgm(b"P7\n1 1\n255\n\x00")


def test_load_allows_comments():
    img = load_pgm(b"P2\n# a comment\n2 1 # trailing\n255\n10 20")
    assert img.width == 2 and img.height == 1


def test_load_truncated():
    with pytest.raises(TruncatedData):
        load_pgm(b"P2\n2 2\n255\n0 1 2")
    with pytest.raises(TruncatedData):
        load_pgm(b"P5\n2 2\n255\n" + b"\x00\x01")
    with pytest.raises(TruncatedData):  # a negative sample
        load_pgm(b"P2 4 3 449\n116 80 94 238 -2 7 0 1 2 3 4 5")


def test_load_bad_header():
    with pytest.raises(BadHeader):
        load_pgm(b"P2\n0 2\n255\n")
    with pytest.raises(BadHeader):
        load_pgm(b"P2\n2 2\n70000\n" + b"0 " * 4)


@settings(max_examples=300, deadline=None)
@given(magic=st.sampled_from([b"P2", b"P5"]), width=st.integers(-1, 5),
       height=st.integers(-1, 5), maxval=st.integers(-1, 70000),
       samples=st.lists(st.integers(-3, 70000) | st.just(10 ** 400), max_size=30),
       raw=st.binary(max_size=60), tail=st.binary(max_size=12))
def test_load_raises_only_slice_radon_errors(magic, width, height, maxval, samples, raw, tail):
    body = b" ".join(str(v).encode() for v in samples) if magic == b"P2" else raw
    try:
        img = load_pgm(magic + f" {width} {height} {maxval}\n".encode() + body + tail)
    except SliceRadonError:
        return
    assert (img.width, img.height) == (width, height)
    assert 0.0 <= img.pixels.min() and img.pixels.max() <= 1.0


def test_image_size_is_the_pixel_shape():
    img = GrayImage(np.zeros((2, 3)))
    assert (img.width, img.height) == (3, 2)
    for bad in (np.zeros(4), np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="non-empty 2D"):
            GrayImage(bad)


def test_images_compare_and_hash_by_pixels():
    a = np.random.default_rng(0).random((3, 4))
    img = GrayImage(a)
    assert img == GrayImage(a.copy()) and hash(img) == hash(GrayImage(a.copy()))
    assert len({img, GrayImage(a.copy()), load_pgm(save_pgm(img))}) == 2
    for other in (GrayImage(a[:, :3]), GrayImage(a.reshape(4, 3)), GrayImage(a[::-1])):
        assert img != other
    assert img != None and img != a.tolist()  # noqa: E711


def test_save_single_white_pixel():
    data = save_pgm(GrayImage(np.array([[1.0]])))
    assert data.split() == [b"P2", b"1", b"1", b"255", b"255"]


def test_save_binary_rounding():
    data = save_pgm(GrayImage(np.array([[0.0, 0.5]])), binary=True)
    header, raster = data[:-2], data[-2:]
    assert header.startswith(b"P5")
    assert raster[0] == 0x00 and raster[1] in (0x7F, 0x80)


def test_pgm_round_trip_within_quantization(rng):
    for binary in (False, True):
        for _ in range(5):
            img = GrayImage.from_array(rng.random((8, 8)))
            back = load_pgm(save_pgm(img, binary=binary))
            assert np.max(np.abs(back.pixels - img.pixels)) <= 1.0 / 255.0


def test_pgm_lossless_for_quantized_images(rng):
    img = load_pgm(save_pgm(GrayImage.from_array(rng.random((5, 7)))))
    again = load_pgm(save_pgm(img))
    assert np.array_equal(again.pixels, img.pixels)


# --- synthesis -----------------------------------------------------------

def test_synth_zero_stripes_uniform():
    img = synth_sign(SignSpec(size=64, num_stripes=0, background=0.9))
    assert np.allclose(img.pixels, 0.9)


def test_synth_zero_stripes_with_ring():
    img = synth_sign(SignSpec(size=64, num_stripes=0, background=0.9,
                              foreground=0.1, circle_border=True))
    assert img.pixels.min() < 0.2  # the rim is drawn
    assert img.pixels[32, 32] == 0.9  # face stays clear


def test_synth_small_blurred_stripes_merge():
    # at 20 px with 1 px stripes and sigma-1 blur the five lines are no
    # longer separable: fewer than 5 distinct minima remain
    img = synth_sign(SignSpec(size=20, num_stripes=5, stripe_width=1, duty=0.5,
                              foreground=0.1, background=0.9))
    soft = degrade(img, Degradation(gaussian_blur_sigma=1.0, seed=1))
    prof = normalize_profile(project_cst(soft, 45.0, backend="dft"))
    minima = [e for e in find_extrema(prof, 0.1) if e.kind == "min"]
    assert len(minima) < 5


def test_synth_too_dense():
    with pytest.raises(SpecTooDense):
        synth_sign(SignSpec(size=20, num_stripes=9, stripe_width=4, duty=0.5))


def test_spec_requires_dark_on_light():
    with pytest.raises(ValueError):
        SignSpec(num_stripes=5, foreground=0.9, background=0.1)


def test_synth_invariants_over_random_specs(rng):
    for _ in range(25):
        size = int(rng.integers(16, 96))
        spec = SignSpec(size=size,
                        num_stripes=int(rng.integers(0, 6)),
                        stripe_angle=float(rng.uniform(0, 180)),
                        stripe_width=float(rng.uniform(1, 3)),
                        duty=float(rng.uniform(0.2, 0.8)),
                        foreground=float(rng.uniform(0.0, 0.3)),
                        background=float(rng.uniform(0.6, 1.0)),
                        circle_border=bool(rng.integers(0, 2)))
        try:
            img = synth_sign(spec)
        except SpecTooDense:
            continue
        assert img.pixels.shape == (size, size)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0


# --- degradation ----------------------------------------------------------

def test_degrade_identity():
    img = synth_sign(SignSpec())
    out = degrade(img, Degradation())
    assert np.array_equal(out.pixels, img.pixels)


def test_degrade_noise_preserves_mean(rng):
    img = GrayImage.from_array(np.full((64, 64), 0.5))
    out = degrade(img, Degradation(noise_sigma=0.1, seed=7))
    assert abs(out.pixels.mean() - 0.5) < 0.02


def test_degrade_downscale_preserves_mean():
    img = GrayImage.from_array(np.random.default_rng(3).random((64, 64)))
    out = degrade(img, Degradation(target_size=20))
    assert out.width == 20 and out.height == 20
    assert abs(out.pixels.mean() - img.pixels.mean()) < 1e-6


def test_degrade_deterministic():
    img = synth_sign(SignSpec())
    d = Degradation(gaussian_blur_sigma=0.8, noise_sigma=0.05, target_size=20, seed=42)
    a, b = degrade(img, d), degrade(img, d)
    assert np.array_equal(a.pixels, b.pixels)


def test_degrade_rejects_upscale():
    img = GrayImage.from_array(np.zeros((8, 8)))
    with pytest.raises(BadTarget):
        degrade(img, Degradation(target_size=16))
