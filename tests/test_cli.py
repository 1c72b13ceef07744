import json

import numpy as np
from click.testing import CliRunner

from slice_radon import GrayImage, SignSpec, load_pgm, save_pgm, synth_sign
from slice_radon.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def _write_fixture(path, spec=None):
    img = synth_sign(spec or SignSpec(size=64, num_stripes=5, stripe_width=4,
                                      duty=0.5, foreground=0.1, background=0.9))
    path.write_bytes(save_pgm(img, binary=True))
    return path


def test_synth_writes_corpus(tmp_path):
    out = tmp_path / "corpus"
    r = run("synth", str(out), "--classes", "end_restriction=4,other_negative=2",
            "--seed", "3")
    assert r.exit_code == 0, r.output
    assert len(list(out.glob("*.pgm"))) == 6
    lines = (out / "labels.csv").read_text().splitlines()
    assert sum(1 for l in lines if l.endswith(",end_restriction")) == 4


def test_synth_even_split_with_count(tmp_path):
    out = tmp_path / "corpus"
    r = run("synth", str(out), "--count", "6", "--seed", "1")
    assert r.exit_code == 0, r.output
    assert len(list(out.glob("*.pgm"))) == 6


def test_synth_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        r = run("synth", str(out), "--classes", "end_restriction=3", "--seed", "99")
        assert r.exit_code == 0
    for fa in sorted(a.glob("*.pgm")):
        assert fa.read_bytes() == (b / fa.name).read_bytes()


def test_synth_spec_file(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"duty": 0.4, "stripe_widths": [4], "target_size": None}))
    r = run("synth", str(tmp_path / "ok"), "--classes", "end_restriction=1",
            "--spec-file", str(good))
    assert r.exit_code == 0, r.output
    for spec in ({"bogus": 1}, {"sign_size": "64"}, {"blur": [0.1]}, {"duty": True}, [1]):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        r = run("synth", str(tmp_path / "no"), "--classes", "end_restriction=1",
                "--spec-file", str(bad))
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), spec
        assert r.output.startswith("error: ") and "Traceback" not in r.output, spec


def test_synth_target_defaults_to_the_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    for target, side in ((48, 48), (None, 64)):
        spec.write_text(json.dumps({"target_size": target}))
        out = tmp_path / f"corpus{side}"
        r = run("synth", str(out), "--classes", "end_restriction=1", "--spec-file", str(spec))
        assert r.exit_code == 0, r.output
        img = load_pgm(next(out.glob("*.pgm")).read_bytes())
        assert (img.width, img.height) == (side, side), target
    r = run("synth", str(tmp_path / "default"), "--classes", "end_restriction=1")
    assert r.exit_code == 0, r.output
    assert load_pgm(next((tmp_path / "default").glob("*.pgm")).read_bytes()).width == 20


def test_synth_rejects_a_target_below_one(tmp_path):
    # checked before any image is drawn, so the seed and the class mix do not matter
    spec = tmp_path / "spec.json"
    runs = [("--count", "3"), ("--count", "0")]
    runs += [("--classes", "other_negative=1", "--seed", str(seed)) for seed in range(8)]
    for target in (0, -2):
        spec.write_text(json.dumps({"target_size": target}))
        for args in runs:
            out = tmp_path / "corpus"
            r = run("synth", str(out), "--spec-file", str(spec), *args)
            assert r.exit_code == 1 and isinstance(r.exception, SystemExit), (target, args)
            assert r.output.startswith("error: ") and "target_size" in r.output, (target, args)
            assert "Traceback" not in r.output and not out.exists(), (target, args)


def _failing_spec(tmp_path):
    # the positives draw fine, then the first speed_limit image fails
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"neg_noise": [-1, -0.5]}))
    return str(spec)


def test_failed_synth_creates_no_directory(tmp_path):
    out = tmp_path / "corpus"
    r = run("synth", str(out), "--count", "30", "--spec-file", _failing_spec(tmp_path))
    assert r.exit_code == 1 and r.output.startswith("error: "), r.output
    assert not out.exists()


def test_failed_synth_leaves_an_existing_corpus_as_it_was(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", str(out), "--count", "30", "--seed", "1").exit_code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    r = run("synth", str(out), "--count", "30", "--seed", "2",
            "--spec-file", _failing_spec(tmp_path))
    assert r.exit_code == 1, r.output
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_synth_count_zero_warns(tmp_path):
    out = tmp_path / "corpus"
    r = run("synth", str(out), "--classes", "end_restriction=0")
    assert r.exit_code == 0
    assert (out / "labels.csv").exists()


def test_synth_rejects_negative_counts(tmp_path):
    for args in (("--count", "-3"), ("--classes", "end_restriction=-2")):
        out = tmp_path / "corpus"
        r = run("synth", str(out), *args)
        assert r.exit_code == 1, (args, r.output)
        assert r.output.startswith("error: "), args
        assert not (out / "labels.csv").exists(), args


def test_synth_count_is_the_total_with_named_and_unnamed_classes(tmp_path):
    out = tmp_path / "corpus"
    r = run("synth", str(out), "--count", "5", "--classes",
            "end_restriction=2,speed_limit,other_negative")
    assert r.exit_code == 0, r.output
    labels = [l.rsplit(",", 1)[1] for l in (out / "labels.csv").read_text().splitlines()]
    assert sorted(labels) == sorted(["end_restriction"] * 2 + ["speed_limit"] * 2
                                    + ["other_negative"])
    for classes in ("end_restriction=2,speed_limit", "end_restriction=1,end_restriction"):
        r = run("synth", str(tmp_path / "bad"), "--count", "1", "--classes", classes)
        assert r.exit_code == 1 and r.output.startswith("error: "), (classes, r.output)


def test_detect_rejects_a_negative_gain(tmp_path):
    p = _write_fixture(tmp_path / "s.pgm")
    r = run("detect", "--gain", "-5", str(p))
    assert r.exit_code == 1, r.output
    assert r.output.startswith("error: ")


def test_detect_crop_on_below_12px_keeps_the_frame(tmp_path):
    # max(6, m // 4) > m // 2 leaves no radius to search
    p = tmp_path / "tiny.pgm"
    p.write_bytes(save_pgm(GrayImage.from_array(np.full((10, 10), 0.5))))
    r = run("detect", "--crop", "on", str(p))
    assert r.exit_code == 0, r.output
    assert json.loads(r.output.strip().splitlines()[-1])["circle"] is None


def test_detect_positive_exit_10(tmp_path):
    img = _write_fixture(tmp_path / "sign.pgm")
    r = run("detect", str(img))
    assert r.exit_code == 10, r.output
    payload = json.loads(r.output.strip().splitlines()[-1])
    assert payload["positive"] is True
    assert payload["backend"] == "dft"


def test_detect_negative_exit_0(tmp_path):
    p = tmp_path / "flat.pgm"
    p.write_bytes(save_pgm(GrayImage.from_array(np.full((32, 32), 0.5))))
    r = run("detect", str(p))
    assert r.exit_code == 0, r.output
    assert json.loads(r.output.strip().splitlines()[-1])["positive"] is False


def test_detect_missing_file_exit_1(tmp_path):
    r = run("detect", str(tmp_path / "nope.pgm"))
    assert r.exit_code != 0 and r.exit_code != 10


def test_detect_corrupt_file_exit_1(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P7\nnot a pgm")
    r = run("detect", str(p))
    assert r.exit_code == 1


def test_project_csv_five_minima(tmp_path):
    img = _write_fixture(tmp_path / "sign.pgm")
    out = tmp_path / "profile.csv"
    r = run("project", str(img), "--angle", "45", "--backend", "dft",
            "--no-ramp", "--out", str(out))
    assert r.exit_code == 0, r.output
    lines = out.read_text().splitlines()
    assert lines[0] == "index,value"
    values = np.array([float(l.split(",")[1]) for l in lines[1:]])
    from scipy.signal import find_peaks
    idx, _ = find_peaks(-values, prominence=0.1)
    assert len(idx) == 5


def test_project_angle_out_of_range(tmp_path):
    img = _write_fixture(tmp_path / "sign.pgm")
    r = run("project", str(img), "--angle", "200")
    assert r.exit_code == 1


def test_project_constant_image_all_half(tmp_path):
    p = tmp_path / "flat.pgm"
    p.write_bytes(save_pgm(GrayImage.from_array(np.full((16, 16), 0.25))))
    r = run("project", str(p), "--angle", "0")
    assert r.exit_code == 0
    values = [float(l.split(",")[1]) for l in r.output.strip().splitlines()[1:]]
    assert all(v == 0.5 for v in values)


def test_project_slice_csv_dump(tmp_path):
    img = _write_fixture(tmp_path / "sign.pgm")
    slc = tmp_path / "slice.csv"
    r = run("project", str(img), "--angle", "45", "--slice-csv", str(slc))
    assert r.exit_code == 0
    assert len(slc.read_text().splitlines()[0].split(",")) == 3


def test_eval_table_and_json(tmp_path):
    corpus = tmp_path / "corpus"
    r = run("synth", str(corpus), "--classes",
            "end_restriction=5,speed_limit=3,other_negative=3", "--seed", "4")
    assert r.exit_code == 0
    out = tmp_path / "report.json"
    r = run("eval", str(corpus), "--out", str(out))
    assert r.exit_code == 0, r.output
    assert "end_restriction" in r.output and "false positive rate" in r.output
    payload = json.loads(out.read_text())
    assert {row["class_label"] for row in payload["rows"]} == {
        "end_restriction", "speed_limit", "other_negative"}


def test_eval_empty_dir_exit_1(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    r = run("eval", str(empty))
    assert r.exit_code == 1


def test_bench_cli(tmp_path):
    out = tmp_path / "bench.json"
    r = run("bench", "--sizes", "64", "--angles", "4", "--out", str(out))
    assert r.exit_code == 0, r.output
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["n"] == 64


def test_out_to_a_missing_directory_is_an_error(tmp_path):
    corpus = tmp_path / "corpus"
    assert run("synth", str(corpus), "--classes", "end_restriction=2").exit_code == 0
    missing = tmp_path / "missing"
    for args in (("eval", str(corpus), "--out", str(missing / "r.json")),
                 ("bench", "--sizes", "32", "--angles", "2", "--out", str(missing / "b.json"))):
        r = run(*args)
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), args
        assert "error: " in r.output and "Traceback" not in r.output, args


def test_bench_rejects_non_pow2():
    r = run("bench", "--sizes", "100", "--angles", "2")
    assert r.exit_code == 1


def test_bench_rejects_an_empty_size_list():
    for sizes in (",", "", " , "):
        r = run("bench", "--sizes", sizes, "--angles", "4")
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit), sizes
        assert "error: no sizes given" in r.output and "Traceback" not in r.output, sizes
