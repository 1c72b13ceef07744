"""Command line surface: synth | project | detect | eval | bench.

`detect` exits 10 for a positive verdict, 0 for negative, 1 on error, so
shell pipelines can branch on the result. Every command reports a bad
input or file as `error: ...` on stderr and exits 1.
"""

from __future__ import annotations

import functools
import json
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

import click

from .bench import run_bench
from .corpus import (CLASS_LABELS, CorpusTemplates, evaluate_corpus, generate_corpus)
from .detector import (DetectorParams, detect_end_of_restriction, normalize_profile,
                       profile_to_csv, project_cst, result_to_json)
from .errors import SliceRadonError
from .image import load_pgm
from .transforms import extract_slice, slice_to_csv, spectrum

_BACKENDS = click.Choice(["dft", "dct"])
# keyed by the DetectorParams field each option sets
_DETECTOR_OPTIONS = {
    "backend": click.option("--backend", type=_BACKENDS, default=None),
    "apply_ramp": click.option("--ramp/--no-ramp", "apply_ramp", default=None),
    "min_prominence": click.option("--prominence", "min_prominence", type=float, default=None),
    "min_gain": click.option("--gain", "min_gain", type=float, default=None),
    "crop": click.option("--crop", type=click.Choice(["auto", "on", "off"]), default=None),
}


def _detector_options(fn):
    """Give a command the detector options; it receives them as one
    DetectorParams `params`, where each option left out keeps its default."""
    @functools.wraps(fn)
    def command(**kw):
        given = {name: kw.pop(name) for name in _DETECTOR_OPTIONS}
        return fn(params=DetectorParams(**{k: v for k, v in given.items() if v is not None}),
                  **kw)
    for option in reversed(_DETECTOR_OPTIONS.values()):
        command = option(command)
    return command


def _fits(value, tp) -> bool:
    """True when a decoded JSON value can stand for a field of type `tp`."""
    if tp is type(None):
        return value is None
    if tp in (int, float):
        ok = (int,) if tp is int else (int, float)
        return isinstance(value, ok) and not isinstance(value, bool)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    return any(_fits(value, a) for a in args)  # a union such as int | None


def _template_overrides(text: str) -> dict:
    """Validated CorpusTemplates overrides from the JSON text of a spec file."""
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError("spec file must hold a JSON object")
    types = typing.get_type_hints(CorpusTemplates)
    declared = {f.name: f.type for f in fields(CorpusTemplates)}
    for key, value in spec.items():
        if key not in types:
            raise ValueError(f"unknown spec key {key!r}; known keys: {', '.join(declared)}")
        if not _fits(value, types[key]):
            raise ValueError(f"spec key {key!r} needs {declared[key]}, got {value!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()}


class _Main(click.Group):
    """Turns the errors a command can meet on its inputs and files into
    `error: ...` on stderr and exit status 1, never a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SliceRadonError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """Parallel projections of 2D images via spectrum slices, plus a
    detector for the striped end-of-restriction traffic-sign class."""


@main.command()
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--count", type=int, default=None,
              help="Total image count; what the name=count entries leave is "
                   "split across the other --classes.")
@click.option("--classes", default=",".join(CLASS_LABELS), show_default=True,
              help="Comma list of class labels, each optionally name=count.")
@click.option("--seed", type=int, default=0, envvar="SLICE_RADON_SEED", show_default=True)
@click.option("--target", type=int, default=None,
              help="Downscale target size; 0 keeps full resolution. "
                   "[default: the spec file's target_size, else 20]")
@click.option("--spec-file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file overriding corpus template fields.")
def synth(out_dir, count, classes, seed, target, spec_file):
    """Generate a labeled synthetic corpus of PGM images."""
    if count is not None and count < 0:
        raise ValueError(f"--count must be at least 0, got {count}")
    counts: dict[str, int] = {}
    names = []
    for part in filter(None, map(str.strip, classes.split(","))):
        name, _, n = part.partition("=")
        if name in counts or name in names:
            raise ValueError(f"class {name!r} is named twice in --classes")
        if n:
            counts[name] = int(n)
        else:
            names.append(name)
    if names:
        if count is None:
            raise ValueError("give --count or per-class name=count entries")
        rest = count - sum(counts.values())
        if rest < 0:
            raise ValueError(f"--count {count} is below the name=count total {count - rest}")
        share, extra = divmod(rest, len(names))
        for i, name in enumerate(names):
            counts[name] = share + (1 if i < extra else 0)
    elif count is not None and count != sum(counts.values()):
        raise ValueError("--count disagrees with per-class counts")

    tpl = CorpusTemplates()
    if spec_file:
        tpl = replace(tpl, **_template_overrides(Path(spec_file).read_text()))
    if target is not None:
        tpl = replace(tpl, target_size=None if target == 0 else target)

    rows = generate_corpus(out_dir, counts, seed=seed, templates=tpl)
    if not rows:
        click.echo("warning: empty corpus written (count 0)", err=True)
    click.echo(f"wrote {len(rows)} images + labels.csv to {out_dir}")


@main.command()
@click.argument("image", type=click.Path(exists=True, dir_okay=False))
@click.option("--angle", type=float, required=True, help="Projection angle in degrees.")
@click.option("--backend", type=_BACKENDS, default="dft", show_default=True)
@click.option("--ramp/--no-ramp", default=False, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Profile CSV path (default: stdout).")
@click.option("--slice-csv", type=click.Path(dir_okay=False), default=None,
              help="Also dump the raw spectrum slice as CSV.")
def project(image, angle, backend, ramp, out, slice_csv):
    """Write the normalized projection profile of IMAGE as CSV, from a
    spectrum padded by 2 for either backend."""
    img = load_pgm(Path(image).read_bytes())
    # mean-free projection: constant backgrounds land on the flat 0.5
    # reference instead of the padded-frame envelope
    prof = normalize_profile(project_cst(img, angle, backend=backend, apply_ramp=ramp,
                                         pad_factor=2, demean=True))
    csv = profile_to_csv(prof)
    if out:
        Path(out).write_text(csv)
    else:
        click.echo(csv, nl=False)
    if slice_csv:
        spec = spectrum(img.math_array(), backend, 2)
        Path(slice_csv).write_text(slice_to_csv(extract_slice(spec, angle)))


@main.command()
@click.argument("image", type=click.Path(dir_okay=False))
@_detector_options
def detect(image, params):
    """Classify IMAGE; exit 10 if positive, 0 if negative, 1 on error."""
    res = detect_end_of_restriction(load_pgm(Path(image).read_bytes()), params)
    click.echo(result_to_json(res))
    sys.exit(10 if res.positive else 0)


@main.command(name="eval")
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False))
@_detector_options
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report here as well.")
def eval_cmd(corpus_dir, params, out):
    """Score a labeled corpus and print a per-class detection-rate table."""
    report = evaluate_corpus(corpus_dir, params)
    for w in report.warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(report.format_table())
    if out:
        Path(out).write_text(report.to_json())


@main.command()
@click.option("--sizes", default="256", show_default=True,
              help="Comma list of image sizes (powers of two in [32, 1024]).")
@click.option("--angles", type=int, default=180, show_default=True)
@click.option("--backend", type=_BACKENDS, default="dft", show_default=True)
@click.option("--seed", type=int, default=0, envvar="SLICE_RADON_SEED", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def bench(sizes, angles, backend, seed, out):
    """Time direct Radon vs the spectrum-slice route over full sinograms."""
    report = run_bench([int(s) for s in sizes.split(",") if s.strip()], angles,
                       backend=backend, seed=seed)
    click.echo(report.format_table())
    if out:
        Path(out).write_text(report.to_json())


if __name__ == "__main__":
    main()
