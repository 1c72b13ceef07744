"""The program names that benchmark/workloads.py patches or calls.

The traced benchmark swaps these module attributes by name and replays
`detect` through them, so renaming or removing one breaks `--trace 1`
without failing any other test.
"""

import inspect

import numpy as np

from slice_radon import DetectorParams, bench, corpus, detector, image, transforms

USED_BY_BENCHMARK = {
    bench: ("cst_sinogram", "dft2", "dct2", "extract_slice", "inverse_slice"),
    corpus: ("evaluate_corpus", "Path", "load_pgm", "detect_end_of_restriction"),
    image: ("load_pgm",),
    detector: ("detect_end_of_restriction", "locate_circle", "project_cst",
               "normalize_profile", "find_extrema"),
    transforms: ("dft2", "dct2", "extract_slice", "ramp_filter", "inverse_slice"),
}


def test_benchmark_attributes_exist():
    missing = [f"{mod.__name__}.{name}" for mod, names in USED_BY_BENCHMARK.items()
               for name in names if not callable(getattr(mod, name, None))]
    assert not missing


def test_benchmark_reads_these_detector_params():
    # replay_detect re-derives the crop, transform and slice from these
    params = DetectorParams()
    assert (params.backend, params.apply_ramp, params.min_prominence) == ("dft", False, 0.15)
    assert (params.crop, params.crop_min_size) == ("auto", 32)
    assert params.interp == "bilinear"
    assert params.pad() == 2
    assert DetectorParams(backend="dct").pad() == 1


def test_benchmark_call_signatures():
    project = inspect.signature(detector.project_cst).parameters
    assert {"backend", "apply_ramp", "pad_factor", "interp", "demean"} <= set(project)
    assert "jobs" in inspect.signature(corpus.evaluate_corpus).parameters


def test_benchmark_reads_these_record_fields():
    # replay_detect counts points and samples from these, then compares profiles
    img = image.GrayImage.from_array(np.linspace(0.0, 1.0, 400).reshape(20, 20))
    for transform, pad, side in ((transforms.dct2, 1, 32), (transforms.dft2, 2, 64)):
        spec = transform(img, pad)
        assert (spec.width, spec.height) == (side, side)
    slc = transforms.extract_slice(spec, 45.0, "bilinear")  # interp passed positionally
    assert slc.length == len(slc.values) == 88
    assert len(detector.detect_end_of_restriction(img).profile.values) == 88
