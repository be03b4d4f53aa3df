"""Runs every acceptance criterion at its official trial counts.

One test per criterion so the report shows a pass/fail line for each.  The
counts and seeds are fixed in each criterion, so this is the one official
run, in about a second (``reconflab acceptance`` took 0.8-1.1 s on a 2-core
VM); ``test_cli`` checks the subcommand's report against ``run_all``."""
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
    passed, details = fn()
    print(f"{'PASS' if passed else 'FAIL'} {ident} {title}: {details}", file=sys.stderr)
    assert passed, f"{ident} {title}: {details}"


def test_run_all_passes_trials_and_logs_seconds(monkeypatch):
    """``run_all`` passes no trial count: each criterion runs its own fixed
    counts, and the log names its seconds."""
    seen = []

    def fake():
        seen.append("X01")
        return True, "ok"

    monkeypatch.setattr(acceptance, "CRITERIA", [("X01", "fake", fake)])
    log = io.StringIO()
    results = acceptance.run_all(log=log)
    assert seen == ["X01"]
    assert results == [CriterionResult("X01", "fake", True, "ok")]
    assert re.fullmatch(r"PASS X01 \[ *\d+\.\d{3}s\] fake: ok\n", log.getvalue())
