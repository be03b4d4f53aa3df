"""Runs every acceptance criterion at its official trial counts.

One test per criterion so the report shows a pass/fail line for each; the
suite is the exit gate and runs in full, in about a second
(``reconflab acceptance`` took 0.8-1.1 s on a 2-core VM)."""
import io
import re
import sys

import pytest

from reconflab import acceptance
from reconflab.acceptance import CRITERIA, CriterionResult

_BY_ID = {ident: (title, fn) for ident, title, fn in CRITERIA}


@pytest.mark.parametrize("ident", sorted(_BY_ID))
def test_criterion(ident):
    title, fn = _BY_ID[ident]
    passed, details = fn(False)
    print(f"{'PASS' if passed else 'FAIL'} {ident} {title}: {details}", file=sys.stderr)
    assert passed, f"{ident} {title}: {details}"


def test_run_all_passes_trials_and_logs_seconds(monkeypatch):
    seen = []

    def fake(quick, floor=0):
        seen.append((quick, floor))
        return True, "ok"

    monkeypatch.setattr(acceptance, "CRITERIA", [("X01", "fake", fake)])
    log = io.StringIO()
    results = acceptance.run_all(quick=True, log=log, trials=7)
    assert seen == [(True, 7)]
    assert results == [CriterionResult("X01", "fake", True, "ok")]
    assert re.fullmatch(r"PASS X01 \[ *\d+\.\ds\] fake: ok\n", log.getvalue())


def test_trials_floor_raises_a_criterion_count():
    passed, details = _BY_ID["C01"][1](True, 25)
    assert passed and details.startswith("25/25 ")
