import numpy as np
import pytest
from scipy import fft as sfft

from helpers import (dft_of_projection, exp_sum_slice, naive_dct1, naive_dft2_centered,
                     naive_idct1, radon_pixel_loop, rel_l2)
from slice_radon import (AngleOutOfRange, GrayImage, SpectrumSlice, dct2, dft2,
                         extract_slice, inverse_slice, radon_direct, ramp_filter,
                         slice_to_csv)


# --- dft2 -----------------------------------------------------------------

def test_dft2_constant_image():
    n, c = 8, 0.7
    spec = dft2(GrayImage.from_array(np.full((n, n), c)), 1)
    dc = spec.values[n // 2, n // 2]
    assert abs(dc - c * n * n) < 1e-9
    rest = np.abs(spec.values).sum() - abs(dc)
    assert rest < 1e-9


def test_dft2_delta_pixel():
    arr = np.zeros((8, 8))
    arr[0, 0] = 1.0  # top-left pixel
    spec = dft2(GrayImage.from_array(arr), 1)
    assert np.allclose(np.abs(spec.values), 1.0, atol=1e-9)


def test_dft2_2x2_dc():
    a, b, c, d = 0.1, 0.4, 0.3, 0.2
    spec = dft2(GrayImage.from_array(np.array([[a, b], [c, d]])), 1)
    assert abs(spec.values[1, 1] - (a + b + c + d)) < 1e-12


def test_dft2_matches_naive_sum(rng):
    img = GrayImage.from_array(rng.random((8, 8)))
    spec = dft2(img, 1)
    want = naive_dft2_centered(img.math_array())
    assert rel_l2(spec.values, want) < 1e-12


def test_dft2_hermitian_symmetry(rng):
    spec = dft2(GrayImage.from_array(rng.random((16, 16))), 1)
    b = spec.values
    h, w = b.shape
    # skip the unmatched Nyquist row/col (index 0 has no mirror)
    inner = b[1:, 1:]
    assert rel_l2(inner, np.conj(inner[::-1, ::-1])) < 1e-9


def test_dft2_pad_centers_image(rng):
    img = GrayImage.from_array(rng.random((16, 16)))
    spec = dft2(img, 2)
    assert (spec.width, spec.height) == (32, 32)
    assert abs(spec.values[16, 16] - img.pixels.sum()) < 1e-9


# --- dct2 -----------------------------------------------------------------

def test_dct2_constant_image():
    n, c = 8, 0.6
    spec = dct2(GrayImage.from_array(np.full((n, n), c)), 1)
    assert abs(spec.values[0, 0] - c * n) < 1e-9
    assert np.abs(spec.values).sum() - abs(spec.values[0, 0]) < 1e-9


def test_dct2_round_trip(rng):
    img = GrayImage.from_array(rng.random((8, 8)))
    back = sfft.idctn(dct2(img, 1).values, type=2, norm="ortho")
    assert np.max(np.abs(back - img.math_array())) < 1e-9


def test_dct2_row_matches_cosine_sum():
    row = np.array([[1.0, 0.0, 0.0, 0.0]])
    spec = dct2(GrayImage.from_array(row), 1)
    assert np.allclose(spec.values[0], naive_dct1(row[0]), atol=1e-12)


# --- extract_slice ----------------------------------------------------------

def test_slice_angle0_is_center_row(rng):
    spec = dft2(GrayImage.from_array(rng.random((16, 16))), 1)
    slc = extract_slice(spec, 0.0)
    assert slc.length == 16 and slc.dc_index == 8
    assert np.allclose(slc.values, spec.values[8, :], atol=0)


def test_slice_angle90_is_center_column(rng):
    spec = dft2(GrayImage.from_array(rng.random((16, 16))), 1)
    slc = extract_slice(spec, 90.0)
    assert np.allclose(slc.values, spec.values[:, 8], atol=0)


def test_slice_rejects_bad_angle(rng):
    spec = dft2(GrayImage.from_array(rng.random((8, 8))), 1)
    for bad in (-1.0, 180.0, 200.0):
        with pytest.raises(AngleOutOfRange):
            extract_slice(spec, bad)


def test_slice_rejects_an_interpolation_other_than_bilinear(rng):
    spec = dft2(GrayImage.from_array(rng.random((8, 8))), 1)
    with pytest.raises(ValueError, match="interpolation"):
        extract_slice(spec, 0.0, "nearest")


def test_slice_oblique_vs_exact_spectrum_sum(rng):
    # pure interpolation error against the exact exponential sum; the
    # measured pad-2 bilinear floor is ~12 percent on white noise
    for _ in range(5):
        img = GrayImage.from_array(rng.random((16, 16)))
        spec = dft2(img, 2)
        for ang in (30.0, 45.0, 60.0):
            slc = extract_slice(spec, ang)
            dc = slc.dc_index
            got = slc.values[dc - 16: dc + 16]
            want = exp_sum_slice(img.math_array(), ang, 32, np.arange(-16, 16))
            assert rel_l2(got, want) < 0.15


def test_slice_interpolation_improves_with_padding(rng):
    img = GrayImage.from_array(rng.random((16, 16)))
    errs = {}
    for pad in (2, 4):
        slc = extract_slice(dft2(img, pad), 45.0)
        dc = slc.dc_index
        m = 8 * pad
        got = slc.values[dc - m: dc + m]
        want = exp_sum_slice(img.math_array(), 45.0, 16 * pad, np.arange(-m, m))
        errs[pad] = rel_l2(got, want)
    assert errs[4] < errs[2] < 0.15
    assert errs[4] < 0.05


def test_slice_hermitian_about_center(rng):
    slc = extract_slice(dft2(GrayImage.from_array(rng.random((16, 16))), 2), 30.0)
    dc = slc.dc_index
    k = min(dc, slc.length - 1 - dc)
    a = slc.values[dc + 1: dc + k + 1]
    b = np.conj(slc.values[dc - k: dc][::-1])
    assert rel_l2(a, b) < 1e-9  # grid symmetry survives bilinear sampling


def test_slice_dct_backend_folds_angles(rng):
    spec = dct2(GrayImage.from_array(rng.random((16, 16))), 1)
    a = extract_slice(spec, 45.0)
    b = extract_slice(spec, 135.0)
    assert a.backend == "dct"
    assert np.allclose(a.values, b.values)
    assert a.dc_index == 0


# --- ramp_filter ------------------------------------------------------------

def _dft_slice(values):
    return SpectrumSlice("dft", np.asarray(values, dtype=complex))


def test_ramp_weights_length8():
    out = ramp_filter(_dft_slice(np.ones(8)))
    assert np.allclose(out.values.real, [1, 0.75, 0.5, 0.25, 0, 0.25, 0.5, 0.75])


def test_ramp_zeroes_dc(rng):
    slc = extract_slice(dft2(GrayImage.from_array(rng.random((16, 16))), 1), 40.0)
    out = ramp_filter(slc)
    assert out.values[out.dc_index] == 0.0


def test_ramp_twice_is_quadratic():
    vals = np.arange(1.0, 9.0)
    twice = ramp_filter(ramp_filter(_dft_slice(vals)))
    f = np.abs(np.arange(8) - 4).astype(float)
    quad = vals * (f / f.max()) ** 2
    assert np.allclose(twice.values.real, quad)


def test_ramp_dct_corner_indexing():
    slc = SpectrumSlice("dct", np.ones(5))
    out = ramp_filter(slc)
    assert np.allclose(out.values, [0, 0.25, 0.5, 0.75, 1.0])


# --- inverse_slice ------------------------------------------------------------

def test_inverse_angle0_gives_column_sums(rng):
    img = GrayImage.from_array(rng.random((16, 16)))
    prof = inverse_slice(extract_slice(dft2(img, 1), 0.0))
    colsums = img.math_array().sum(axis=0)
    assert np.max(np.abs(prof - colsums)) < 1e-9


def test_inverse_angle90_gives_row_sums(rng):
    img = GrayImage.from_array(rng.random((16, 16)))
    prof = inverse_slice(extract_slice(dft2(img, 1), 90.0))
    rowsums = img.math_array().sum(axis=1)
    assert np.max(np.abs(prof - rowsums)) < 1e-9


def test_inverse_dc_only_slice_is_constant():
    vals = np.zeros(9, dtype=complex)
    vals[4] = 9.0
    prof = inverse_slice(_dft_slice(vals))
    assert np.allclose(prof, 1.0)


def test_inverse_dct_round_trips_1d_profile(rng):
    g = rng.random(8)
    coeffs = naive_dct1(g)  # built by the brute-force cosine sum
    slc = SpectrumSlice("dct", coeffs)
    assert np.max(np.abs(inverse_slice(slc) - g)) < 1e-9
    assert np.max(np.abs(naive_idct1(coeffs) - g)) < 1e-9


# --- radon_direct --------------------------------------------------------------

def test_radon_uniform_angle0():
    img = GrayImage.from_array(np.full((12, 10), 0.3))
    proj = radon_direct(img, 0.0, 10)
    assert np.allclose(proj, 0.3 * 12)


def test_radon_center_pixel_any_angle():
    arr = np.zeros((16, 16))
    arr[8, 8] = 1.0  # y-up (8, 8); stored top-first row 16-1-8
    img = GrayImage.from_array(arr[::-1])
    for ang in (0.0, 17.0, 45.0, 90.0, 133.0):
        proj = radon_direct(img, ang, 16)
        assert proj[8] == 1.0 and proj.sum() == 1.0


def test_radon_mass_conserved_any_angle(rng):
    # every pixel lands in exactly one bin; the tolerance only covers
    # float summation order
    img = GrayImage.from_array(rng.random((16, 16)))
    for ang in (0.0, 20.0, 45.0, 77.0, 90.0, 160.0):
        for nb in (8, 16, 32):
            assert radon_direct(img, ang, nb).sum() == pytest.approx(img.pixels.sum(), abs=1e-12)


def test_radon_matches_pixel_loop(rng):
    img = GrayImage.from_array(rng.random((9, 9)))
    for ang in (0.0, 30.0, 45.0, 120.0):
        want = radon_pixel_loop(img.math_array(), ang, 16)
        assert np.array_equal(radon_direct(img, ang, 16), want)


def test_radon_rejects_bad_angle(rng):
    img = GrayImage.from_array(rng.random((8, 8)))
    with pytest.raises(AngleOutOfRange):
        radon_direct(img, 180.0, 8)


# --- cross-cutting properties ---------------------------------------------------

def test_central_slice_theorem_axis_aligned_exact(rng):
    img = GrayImage.from_array(rng.random((16, 16)))
    for ang in (0.0, 90.0):
        slc = extract_slice(dft2(img, 1), ang)
        want = dft_of_projection(radon_direct(img, ang, 16))
        assert rel_l2(slc.values, want) < 1e-9


def test_mass_conservation_slice_origin(rng):
    img = GrayImage.from_array(rng.random((16, 16)))
    total = img.pixels.sum()
    for ang in (0.0, 30.0, 45.0, 60.0, 90.0, 150.0):
        slc = extract_slice(dft2(img, 2), ang)
        assert abs(slc.values[slc.dc_index] - total) < 1e-9 * total


def test_linearity_of_transforms(rng):
    u = rng.random((12, 12))
    v = rng.random((12, 12))
    a, b = 0.4, 0.5
    combo = GrayImage.from_array(a * u + b * v)
    iu, iv = GrayImage.from_array(u), GrayImage.from_array(v)
    for ang in (0.0, 45.0):
        got = radon_direct(combo, ang, 16)
        want = a * radon_direct(iu, ang, 16) + b * radon_direct(iv, ang, 16)
        assert np.allclose(got, want, atol=1e-12)
    for transform in (dft2, dct2):
        got = transform(combo, 1).values
        want = a * transform(iu, 1).values + b * transform(iv, 1).values
        assert rel_l2(got, want) < 1e-12
    s1 = extract_slice(dft2(combo, 2), 45.0).values
    s2 = (a * extract_slice(dft2(iu, 2), 45.0).values
          + b * extract_slice(dft2(iv, 2), 45.0).values)
    assert rel_l2(s1, s2) < 1e-12


def test_slice_csv_formats(rng):
    img = GrayImage.from_array(rng.random((8, 8)))
    d = slice_to_csv(extract_slice(dft2(img, 1), 0.0))
    first = d.splitlines()[0].split(",")
    assert len(first) == 3 and int(first[0]) == 0
    c = slice_to_csv(extract_slice(dct2(img, 1), 0.0))
    assert len(c.splitlines()[0].split(",")) == 2
