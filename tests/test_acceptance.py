"""Acceptance gate: every criterion of the reproduction suite, one test
each, printing a PASS/FAIL line (run with -s to watch them stream)."""

import json

import pytest

from hypmono import acceptance, exp_sums, kubert


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


@pytest.mark.parametrize("cid,family", [("C1", "3x13"), ("C2", "4x5"), ("C3", "28")])
def test_digit_lemma_descriptions_state_r_ext(cid, family):
    # the descriptions are manifest bytes, so they spell the range out
    desc = next(d for c, d, _ in acceptance.CRITERIA if c == cid)
    assert f"r <= {kubert.LEMMAS[family].r_ext}" in desc


def test_c7_fails_on_a_failed_check(monkeypatch):
    # False == 0.0, so a failed check must not pass as a zero float gap
    monkeypatch.setattr(exp_sums, "purity_check", lambda table: False)
    passed, details = acceptance._c7_trace_tables(0)
    assert details["F16"]["purity"] is False and not passed


def test_c7_fails_on_a_float_gap_over_its_bound(monkeypatch):
    monkeypatch.setattr(exp_sums, "float_gap", lambda exact, flt: 0.5)
    passed, details = acceptance._c7_trace_tables(0)
    assert not passed
    tables = [entry for label, entry in details.items() if label != "F4_closed_form"]
    assert len(tables) == 6
    assert all(entry["float_gap_over_tol"] == 0.5 for entry in tables)


def test_c7_agrees_with_the_trace_table_report():
    # C7 renames the flags of `table_stats`: each of its entries must hold,
    # under C7's names, the report's flags of the same exact and float
    # tables, and C7 must list a table for every entry it has
    names = {"integral": "integrality_pass", "purity": "purity_pass",
             "frobenius": "frobenius_pass", "rational": "rationality_pass",
             "galois": "galois_pass", "zeta3_span": "galois_pass",
             "float_gap_over_tol": "float_gap_over_tol"}
    _, details = acceptance._c7_trace_tables(0)
    seen = {"F4_closed_form"}
    for family, fam in exp_sums.FAMILIES.items():
        for k in range(1, 11):
            q = fam.p ** k
            label = f"F{q}" if fam.p == 2 else f"F{q}_{family}"
            if label not in details:
                continue
            seen.add(label)
            stats = exp_sums.table_stats(acceptance._table_cached(family, k, "exact"),
                                         acceptance._table_cached(family, k, "float"))
            flags = {key: stats[key] for key in stats
                     if key.endswith("_pass") or key == "float_gap_over_tol"}
            assert {names[key]: value for key, value in details[label].items()} == flags
    assert seen == set(details)


@pytest.mark.parametrize("family, k", [("3x13", 10), ("4x5", 6), ("28x", 6)])
def test_c8_gaps_are_rounded_exact_moments(family, k):
    # the float M1 must round like the exact one at the 12 decimals the
    # manifest keeps
    _, details = acceptance._c8_moments(0)
    table = acceptance._table_cached(family, k, "exact")
    m1 = exp_sums.moments(table, 1, exact=True)
    assert details[f"{family}_q{table.field.q}"]["M1_gap"] == float(round(abs(m1 - 1), 12))
