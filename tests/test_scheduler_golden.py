"""Scheduler bit-identity: stream-based engines vs legacy charging.

The overlap engines (pipelined prefetch, bucketed grad sync, serve) were
rebuilt on the :mod:`repro.sim` event-driven stream scheduler, and the
training schedules later onto one shared batch loader; the files
under ``tests/golden/`` hold scrubbed reports captured from the *legacy*
hand-charged implementations.  Byte equality here proves the refactor
changed no simulated timestamp, loss, phase total or metric anywhere across
train / cluster / serve — including the faulted runs, where straggler
dilation and link degradation must flow through stream timestamps exactly
as they flowed through the ad-hoc ``clock.advance`` calls.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests import golden_cases

#: cheap-enough-to-rerun cases, covering every engine × fault combination
CASE_NAMES = sorted(golden_cases.CASES)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_report_matches_committed_golden(name):
    path = golden_cases.GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden {path} — run "
        f"`PYTHONPATH=src python -m tests.golden_cases --write`"
    )
    assert golden_cases.CASES[name]() + "\n" == path.read_text()


def test_goldens_are_valid_scrubbed_json():
    """Committed goldens parse and contain no volatile keys."""
    from repro.telemetry.run_report import VOLATILE_KEYS

    def walk(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                assert k not in VOLATILE_KEYS
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    for name in CASE_NAMES:
        payload = json.loads(
            (golden_cases.GOLDEN_DIR / f"{name}.json").read_text()
        )
        walk(payload)


def test_faulted_cases_differ_from_clean():
    """The fault plans actually bite: faulted goldens are not byte-copies
    of their clean counterparts (otherwise the faulted bit-identity checks
    above would be vacuous)."""
    pairs = [
        ("train_overlap", "train_overlap_faulted"),
        ("cluster_overlap", "cluster_faulted"),
    ]
    for clean, faulted in pairs:
        a = (golden_cases.GOLDEN_DIR / f"{clean}.json").read_text()
        b = (golden_cases.GOLDEN_DIR / f"{faulted}.json").read_text()
        assert a != b


def test_compare_tolerates_ulps_and_flags_real_moves():
    """``--compare`` passes last-ulp float moves and fails everything else:
    larger float moves, changed ints/strings, and added/removed keys."""
    old = {"t": 0.1, "n": 3, "s": "a", "xs": [1.0, 2.0]}
    ulp = {**old, "t": float(np.nextafter(0.1, 1.0))}
    lines, ok = golden_cases.compare_documents(old, ulp)
    assert ok and lines[0] == "within tolerance"
    for new in (
        {**old, "t": 0.1 * (1 + 1e-9)},
        {**old, "n": 4},
        {**old, "s": "b"},
        {**old, "extra": 1.0},
        {k: v for k, v in old.items() if k != "xs"},
        {**old, "xs": [1.0]},
    ):
        assert not golden_cases.compare_documents(old, new)[1], new
