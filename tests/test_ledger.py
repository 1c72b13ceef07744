"""Verdicts on the seeded inputs of tools/ledger.py equal those recorded in
tests/data/ledger.json. A change that means to alter verdicts rewrites the
ledger with `python tools/ledger.py --write` and says why."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ledger  # noqa: E402


def test_verdicts_match_the_ledger(tmp_path):
    expected = json.loads(ledger.LEDGER.read_text())
    diffs = ledger.differences(expected, ledger.ledger_rows(tmp_path))
    assert not diffs, "\n".join(diffs)
