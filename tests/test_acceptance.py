"""Acceptance gate: every criterion of the reproduction suite, one test
each, printing a PASS/FAIL line (run with -s to watch them stream)."""

import json

import pytest

from hypmono import acceptance, exp_sums


@pytest.mark.parametrize(
    "cid", [c[0] for c in acceptance.CRITERIA], ids=[c[0] for c in acceptance.CRITERIA]
)
def test_criterion(cid):
    result = acceptance.run_criterion(cid)
    print(f"{result.cid} {'PASS' if result.passed else 'FAIL'} "
          f"({result.elapsed_s:.2f}s) {result.description}")
    assert result.passed, (
        f"{result.cid} failed: {json.dumps(result.details, sort_keys=True)}"
    )


def test_manifest_is_deterministic():
    # cheap criteria re-run twice must serialize to identical bytes
    subset = ["C9", "C10"]
    runs = []
    for _ in range(2):
        results = [acceptance.run_criterion(c) for c in subset]
        runs.append(json.dumps(acceptance.manifest(results), sort_keys=True))
    assert runs[0] == runs[1]


def test_manifest_lists_every_criterion():
    results = [
        acceptance.CriterionResult(cid, desc, True, {}, 0.0)
        for cid, desc, _ in acceptance.CRITERIA
    ]
    man = acceptance.manifest(results)
    assert [c["id"] for c in man["criteria"]] == [c[0] for c in acceptance.CRITERIA]
    assert man["all_passed"] is True


def test_c8_gaps_are_rounded_exact_moments():
    # the float M1 must round like the exact one at the 12 decimals the
    # manifest keeps
    _, details = acceptance._c8_moments(0)
    jobs = {
        "3x13_q1024": (2, 10, "AxB", 3, 13),
        "4x5_q729": (3, 6, "AxB", 4, 5),
        "28x_q729": (3, 6, "Atimes", None, 7),
    }
    for label, args in jobs.items():
        m1 = exp_sums.moments(acceptance._table_cached(*args, "exact"), 1, exact=True)
        want = float(round(abs(m1 - 1), 12))
        assert details[label]["M1_gap"] == want, label
