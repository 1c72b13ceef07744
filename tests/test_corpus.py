import json

import numpy as np
import pytest

from slice_radon import (BenchReport, CorpusReport, CorpusTemplates, DetectorParams,
                         EmptyCorpus, GrayImage, evaluate_corpus, generate_corpus, load_pgm,
                         read_manifest, run_bench, detect_end_of_restriction)
from slice_radon.bench import cst_sinogram
from slice_radon import project_cst


def test_generate_positives_only(tmp_path):
    rows = generate_corpus(tmp_path, {"end_restriction": 10}, seed=7)
    assert len(rows) == 10
    assert all(label == "end_restriction" for _, label in rows)
    manifest = read_manifest(tmp_path)
    assert manifest == rows
    assert len(list(tmp_path.glob("*.pgm"))) == 10


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(a, {"end_restriction": 3, "speed_limit": 3, "other_negative": 3}, seed=9)
    generate_corpus(b, {"end_restriction": 3, "speed_limit": 3, "other_negative": 3}, seed=9)
    for fa in sorted(a.iterdir()):
        fb = b / fa.name
        assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_generate_count_zero(tmp_path):
    rows = generate_corpus(tmp_path, {"end_restriction": 0}, seed=1)
    assert rows == []
    assert (tmp_path / "labels.csv").read_text() == ""


def test_templates_check_the_target_size():
    for ok in (None, 1, 20):
        assert CorpusTemplates(target_size=ok).target_size == ok
    for bad in (0, -2, 2.5, "20"):
        with pytest.raises(ValueError, match="target_size"):
            CorpusTemplates(target_size=bad)


def test_eval_undegraded_positives_all_detected(tmp_path):
    tpl = CorpusTemplates(blur=(0.0, 0.0), noise=(0.0, 0.0), target_size=None)
    generate_corpus(tmp_path, {"end_restriction": 10}, seed=3, templates=tpl)
    report = evaluate_corpus(tmp_path)
    assert report.rows[0].rate == 1.0
    assert report.false_positive_rate == 0.0


def test_eval_uniform_negatives_zero_fp(tmp_path):
    # structureless negatives never fire
    from slice_radon import GrayImage, save_pgm
    rng = np.random.default_rng(0)
    lines = []
    for i in range(100):
        img = GrayImage.from_array(np.full((20, 20), float(rng.uniform(0.1, 0.9))))
        name = f"u{i:03d}.pgm"
        (tmp_path / name).write_bytes(save_pgm(img, binary=True))
        lines.append(f"{name},other_negative")
    (tmp_path / "labels.csv").write_text("\n".join(lines) + "\n")
    report = evaluate_corpus(tmp_path)
    assert report.false_positive_rate == 0.0


def test_eval_empty_dir(tmp_path):
    with pytest.raises(EmptyCorpus):
        evaluate_corpus(tmp_path)
    (tmp_path / "labels.csv").write_text("")
    with pytest.raises(EmptyCorpus):
        evaluate_corpus(tmp_path)


def test_eval_skips_missing_files_with_warning(tmp_path):
    generate_corpus(tmp_path, {"end_restriction": 3}, seed=2)
    manifest = (tmp_path / "labels.csv").read_text()
    (tmp_path / "labels.csv").write_text(manifest + "ghost.pgm,end_restriction\n")
    report = evaluate_corpus(tmp_path)
    assert len(report.warnings) == 1 and "ghost.pgm" in report.warnings[0]
    assert report.rows[0].total == 3


def test_eval_skips_unknown_labels_with_warning(tmp_path):
    rows = generate_corpus(tmp_path, {"end_restriction": 3, "other_negative": 2}, seed=2)
    # one positive with a misspelt label, which used to count as a negative
    rows[0] = (rows[0][0], "end_restrction")
    (tmp_path / "labels.csv").write_text("".join(f"{n},{l}\n" for n, l in rows))
    report = evaluate_corpus(tmp_path)
    assert len(report.warnings) == 1 and "end_restrction" in report.warnings[0]
    assert {r.class_label: r.total for r in report.rows} == {
        "end_restriction": 2, "other_negative": 2}
    assert report.false_positive_rate == 0.0


def test_eval_skips_names_outside_the_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    generate_corpus(corpus, {"end_restriction": 2}, seed=2)
    (corpus / "sub").mkdir()
    outside = ["../secret.pgm", str(tmp_path / "abs.pgm"), "sub/b.pgm"]
    for path in (tmp_path / "secret.pgm", tmp_path / "abs.pgm", corpus / "sub" / "b.pgm"):
        path.write_bytes((corpus / "00000_end_restriction.pgm").read_bytes())
    manifest = (corpus / "labels.csv").read_text()
    (corpus / "labels.csv").write_text(
        manifest + "".join(f"{n},end_restriction\n" for n in outside))
    report = evaluate_corpus(corpus)
    assert len(report.warnings) == 3
    assert all(n in w for n, w in zip(outside, report.warnings))
    assert report.rows[0].total == 2


def test_eval_keeps_the_first_row_of_a_repeated_name(tmp_path):
    rows = generate_corpus(tmp_path, {"end_restriction": 2}, seed=2)
    manifest = (tmp_path / "labels.csv").read_text()
    (tmp_path / "labels.csv").write_text(manifest + f"{rows[0][0]},speed_limit\n")
    report = evaluate_corpus(tmp_path)
    assert {r.class_label: r.total for r in report.rows} == {"end_restriction": 2}
    assert len(report.warnings) == 1 and rows[0][0] in report.warnings[0]


def test_eval_matches_individual_detections(tmp_path):
    generate_corpus(tmp_path, {"end_restriction": 6, "speed_limit": 6}, seed=11)
    params = DetectorParams()
    report = evaluate_corpus(tmp_path, params)
    expected = {}
    for name, label in read_manifest(tmp_path):
        img = load_pgm((tmp_path / name).read_bytes())
        res = detect_end_of_restriction(img, params)
        expected.setdefault(label, []).append(res.positive)
    for row in report.rows:
        assert row.positives_detected == sum(expected[row.class_label])
        assert row.total == len(expected[row.class_label])


def test_eval_independent_of_jobs(tmp_path):
    generate_corpus(tmp_path, {"end_restriction": 4, "speed_limit": 4,
                               "other_negative": 4}, seed=5)
    r1 = evaluate_corpus(tmp_path, jobs=1)
    r4 = evaluate_corpus(tmp_path, jobs=4)
    assert [vars(a) for a in r1.rows] == [vars(b) for b in r4.rows]
    assert r1.false_positive_rate == r4.false_positive_rate


def test_corpus_report_round_trip(tmp_path):
    generate_corpus(tmp_path, {"end_restriction": 2, "other_negative": 2}, seed=8)
    report = evaluate_corpus(tmp_path)
    again = CorpusReport.from_json(report.to_json())
    assert again == report
    for row in again.rows:
        assert 0.0 <= row.rate <= 1.0
        assert row.rate == pytest.approx(row.positives_detected / row.total)


# --- bench ---------------------------------------------------------------------

def test_bench_row_shape():
    report = run_bench([64], 4, seed=1)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.n == 64 and row.num_angles == 4
    assert row.direct_seconds > 0 and row.cst_seconds > 0
    assert row.max_rel_error >= 0


def test_bench_axis_aligned_error_tiny():
    report = run_bench([64], 2, seed=1)  # angles 0 and 90 only
    assert report.rows[0].max_rel_error <= 1e-9


def test_bench_rejects_bad_sizes():
    for bad in ([48], [16], [2048]):
        with pytest.raises(ValueError):
            run_bench(bad, 4)


def test_bench_rejects_an_unknown_backend():
    img = GrayImage.from_array(np.full((32, 32), 0.5))
    for backend in ("DFT", "fft", ""):
        with pytest.raises(ValueError, match="backend"):
            cst_sinogram(img, [45.0], backend=backend)
        with pytest.raises(ValueError, match="backend"):
            run_bench([32], 4, backend=backend)


def test_bench_checks_its_inputs_before_any_work():
    for sizes in ([], [32]):
        with pytest.raises(ValueError, match="backend"):
            run_bench(sizes, 4, backend="fft")
    with pytest.raises(ValueError, match="no sizes"):
        run_bench([], 4)


def test_bench_report_round_trip():
    report = run_bench([32], 2, seed=0)
    again = BenchReport.from_json(report.to_json())
    assert again == report


def test_cst_sinogram_matches_project_cst(rng):
    from slice_radon import GrayImage
    img = GrayImage.from_array(rng.random((32, 32)))
    angles = [0.0, 30.0, 45.0, 90.0, 120.0]
    batched = cst_sinogram(img, angles)
    for a, vals in zip(angles, batched):
        single = project_cst(img, a)
        assert np.array_equal(vals, single.values)
