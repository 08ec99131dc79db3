"""The reproduction suite: every machine-checkable claim as one criterion.

Each criterion returns a deterministic detail payload plus a pass flag;
wall-clock limits are part of the pass condition where the claim includes
a runtime, but measured times never enter the payload, so a rerun writes a
bit-identical manifest.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import exp_sums, hyp_params, kubert
from .finite_field import build_field


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    details: dict
    elapsed_s: float


@lru_cache(maxsize=None)
def _table_cached(p, k, kind, A, B, mode):
    field = build_field(p, k)
    return exp_sums.trace_table_all(field, kind, A=A, B=B, mode=mode)


def _float_agrees(table_exact, table_float) -> float:
    """The largest gap between the two tables if it exceeds the float
    table's certified bound, else 0.0."""
    gap = exp_sums.float_gap(table_exact, table_float)
    return gap if gap > table_float.float_err else 0.0


# ----------------------------------------------------------------------

def _c1_digit_lemma_base2(seed):
    t0 = time.perf_counter()
    base_bad = sum(
        not kubert.verify_lemma_3x13(r).passed for r in range(1, 15)
    )
    base_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    ext_bad = sum(not kubert.verify_lemma_3x13(r).passed for r in range(15, 25))
    ext_seconds = time.perf_counter() - t0
    details = {
        "r_base": 14,
        "violations_base": base_bad,
        "r_ext": 24,
        "violations_ext": ext_bad,
    }
    ok = base_bad == 0 and ext_bad == 0 and base_seconds < 1.0 and ext_seconds < 60.0
    return ok, details


def _c2_digit_lemma_base3(seed):
    t0 = time.perf_counter()
    base_bad = sum(not kubert.verify_lemma_4x5(r).passed for r in range(1, 8))
    base_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    ext_bad = sum(not kubert.verify_lemma_4x5(r).passed for r in range(8, 15))
    ext_seconds = time.perf_counter() - t0
    details = {
        "r_base": 7,
        "violations_base": base_bad,
        "r_ext": 14,
        "violations_ext": ext_bad,
    }
    ok = base_bad == 0 and ext_bad == 0 and base_seconds < 1.0 and ext_seconds < 60.0
    return ok, details


def _c3_digit_lemma_28(seed):
    base_bad = sum(not kubert.verify_lemma_28(r).passed for r in range(1, 4))
    ext_bad = sum(not kubert.verify_lemma_28(r).passed for r in range(4, 13))
    return base_bad == 0 and ext_bad == 0, {
        "r_base": 3,
        "violations_base": base_bad,
        "r_ext": 12,
        "violations_ext": ext_bad,
    }


def _c4_bracket_forms(seed):
    sharp, corollary = {}, {}
    for family, rs in (("3x13", range(2, 21, 2)), ("4x5", range(1, 13)),
                       ("28", range(1, 13))):
        sharp[f"sharp-{family}"] = corollary[f"corollary-{family}"] = 0
        for r in rs:
            cor, sh = kubert.verify_brackets(family, r)
            corollary[f"corollary-{family}"] += not cor.passed
            if r >= 2:
                sharp[f"sharp-{family}"] += not sh.passed
    bad = {**sharp, **corollary}
    return all(v == 0 for v in bad.values()), bad


def _c5_v_identities(seed):
    details = {}
    # V(x) + V(-x) = 1 for x != 0, over denominators p^r - 1
    bad = 0
    for p, rmax in ((2, 16), (3, 10)):
        for r in range(1, rmax + 1):
            n = p ** r - 1
            if n == 1:
                continue
            a = np.arange(1, n, dtype=np.int64)
            lhs = kubert.digit_sum_vec(a, p) + kubert.digit_sum_vec(n - a, p)
            bad += int(np.sum(lhs != r * (p - 1)))
    details["reflection_violations"] = bad

    # triplication, constant 1, every x with denominator 2^r - 1
    tri = 0
    for r in range(1, 17):
        big = r if r % 2 == 0 else 2 * r
        n, nn = 2 ** r - 1, 2 ** big - 1
        rep = nn // n
        a = np.arange(n, dtype=np.int64) * rep
        ar, br = nn // 3, 2 * nn // 3
        lhs = kubert.bracket_vec(3 * a, 2, big) + big
        rhs = (
            kubert.bracket_vec(a, 2, big)
            + kubert.bracket_vec(a + ar, 2, big)
            + kubert.bracket_vec(a + br, 2, big)
        )
        tri += int(np.sum(lhs != rhs))
    details["triplication_violations"] = tri

    # duplication, constant 1/2, every x with denominator 3^r - 1
    dup = 0
    for r in range(1, 11):
        n = 3 ** r - 1
        half = n // 2
        a = np.arange(n, dtype=np.int64)
        lhs = kubert.bracket_vec(2 * a, 3, r) + r
        rhs = kubert.bracket_vec(a, 3, r) + kubert.bracket_vec(a + half, 3, r)
        dup += int(np.sum(lhs != rhs))
    details["duplication_violations"] = dup

    # repunit digit replication: exhaustive small window plus seeded fuzz,
    # one array call per (p, r, k); int64 words % m land in [0, m)
    rep_bad = 0
    for p, rmax in ((2, 6), (3, 4)):
        for r in range(1, rmax + 1):
            for k in range(1, 4):
                ok = kubert.repunit_scaling_check(np.arange(p ** r - 1), r, k, p)
                rep_bad += int((~ok).sum())
    # seeded fuzz: 1e5 cases spread evenly over p, r <= 12 and k (<= 4 in
    # base 2, <= 2 in base 3), x drawn from seeded random words
    rng = random.Random(seed)
    for p, kmax in ((2, 4), (3, 2)):
        size = -(-50_000 // (12 * kmax))
        for r in range(1, 13):
            for k in range(1, kmax + 1):
                words = np.frombuffer(rng.randbytes(8 * size), dtype=np.int64)
                ok = kubert.repunit_scaling_check(words % (p ** r - 1), r, k, p)
                rep_bad += int((~ok).sum())
    details["repunit_violations"] = rep_bad

    # scalar V agrees with the bracket evaluation on a deterministic sample
    v_bad = 0
    for p, r in ((2, 10), (3, 6)):
        n = p ** r - 1
        for a in range(1, n, max(1, n // 97)):
            v = kubert.kubert_v(kubert.QmodZ(a, n), p)
            if v != Fraction(kubert.bracket(a, p, r), r * (p - 1)):
                v_bad += 1
    details["scalar_vs_bracket_violations"] = v_bad
    ok = all(v == 0 for v in details.values())
    return ok, details


def _c6_criteria(seed):
    r1 = kubert.check_criterion_AxB(2, 3, 13, 16)
    r2 = kubert.check_criterion_AxB(3, 4, 5, 10)
    r3 = kubert.check_criterion_Atimes(3, 2, 7, 28, 10)
    details = {
        "AxB_2_3_13": {"checked": r1.checked, "counterexamples": len(r1.counterexamples)},
        "AxB_3_4_5": {"checked": r2.checked, "counterexamples": len(r2.counterexamples)},
        "Atimes_3_28": {"checked": r3.checked, "counterexamples": len(r3.counterexamples)},
    }
    return r1.passed and r2.passed and r3.passed, details


def _c7_trace_tables(seed):
    details = {}
    ok = True

    # (a) closed form on the degree-2 base field in characteristic 2
    f4 = build_field(2, 2)
    t4 = _table_cached(2, 2, "AxB", 3, 13, "exact")
    closed = all(
        t4.value(s) == exp_sums.CycNumber.root_of_unity(
            2, f4.trace_to_prime(f4.inv(s))
        )
        for s in f4.units()
    )
    details["F4_closed_form"] = closed
    ok &= closed

    # (b) exact tables in characteristic 2: rational, integral, bounded,
    # Frobenius- and Galois-invariant; float path within 1e-9
    for k, label in ((4, "F16"), (6, "F64")):
        te = _table_cached(2, k, "AxB", 3, 13, "exact")
        tf = _table_cached(2, k, "AxB", 3, 13, "float")
        entry = {
            "rational": exp_sums.rationality_check(te),
            "integral": exp_sums.integrality_check(te),
            "purity": exp_sums.purity_check(te, 24),
            "frobenius": exp_sums.frobenius_invariance_check(te),
            "galois": exp_sums.galois_invariance_check(te),
            "float_gap_over_tol": _float_agrees(te, tf),
        }
        details[label] = entry
        ok &= all(v is True or v == 0.0 for v in entry.values())

    # (c) exact tables in characteristic 3 for both families
    for k, label in ((2, "F9"), (4, "F81")):
        for kind, A, B, fam in (("AxB", 4, 5, "4x5"), ("Atimes", None, 7, "28x")):
            te = _table_cached(3, k, kind, A, B, "exact")
            tf = _table_cached(3, k, kind, A, B, "float")
            entry = {
                "zeta3_span": exp_sums.galois_invariance_check(te),
                "integral": exp_sums.integrality_check(te),
                "purity": exp_sums.purity_check(te, 12),
                "frobenius": exp_sums.frobenius_invariance_check(te),
                "float_gap_over_tol": _float_agrees(te, tf),
            }
            details[f"{label}_{fam}"] = entry
            ok &= all(v is True or v == 0.0 for v in entry.values())
    return ok, details


def _c8_moments(seed):
    details = {}
    ok = True
    t0 = time.perf_counter()
    tab = exp_sums.trace_table_all(build_field(2, 10), "AxB", A=3, B=13, mode="float")
    m1 = exp_sums.moments(tab, 1)
    seconds = time.perf_counter() - t0
    bound = 10 / math.sqrt(1024)
    details["3x13_q1024"] = {"M1_gap": round(abs(m1 - 1.0), 12), "bound": bound}
    ok &= abs(m1 - 1.0) <= bound and seconds < 600
    for kind, A, B, fam in (("AxB", 4, 5, "4x5"), ("Atimes", None, 7, "28x")):
        t0 = time.perf_counter()
        tab = exp_sums.trace_table_all(build_field(3, 6), kind, A=A, B=B, mode="float")
        m1 = exp_sums.moments(tab, 1)
        seconds = time.perf_counter() - t0
        bound = 10 / math.sqrt(729)
        details[f"{fam}_q729"] = {"M1_gap": round(abs(m1 - 1.0), 12), "bound": bound}
        ok &= abs(m1 - 1.0) <= bound and seconds < 600
    return ok, details


def _c9_classification(seed):
    expected = {
        "3x13": ("orthogonal", 23, 11, "C2^11 : C23"),
        "4x5": ("none", 11, 5, "C3^5 : C11"),
        "28x": ("none", 11, 5, "C3^5 : C11"),
    }
    specs = {
        "3x13": hyp_params.build_AxB(2, 3, 13),
        "4x5": hyp_params.build_AxB(3, 4, 5),
        "28x": hyp_params.build_Atimes(3, 28),
    }
    details = {}
    ok = True
    for name, spec in specs.items():
        verdict = hyp_params.primitivity_verdict(spec)
        sd, kind = hyp_params.selfdual_test(spec)
        inertia = hyp_params.inertia_model(spec)
        want_kind, want_n, want_f, want_group = expected[name]
        f_minimal = all(
            pow(spec.p, d, inertia.N) != 1 for d in range(1, inertia.f)
        ) and pow(spec.p, inertia.f, inertia.N) == 1
        entry = {
            "primitivity": verdict.status,
            "selfdual": kind,
            "det_trivial": hyp_params.det_product_check(spec),
            "inertia_N": inertia.N,
            "inertia_f": inertia.f,
            "group": inertia.group,
            "f_minimal": f_minimal,
            "product_hypothesis": inertia.hypothesis_met,
        }
        details[name] = entry
        ok &= (
            verdict.status == "NOT_INDUCED"
            and entry["selfdual"] == want_kind
            and entry["det_trivial"]
            and inertia.N == want_n
            and inertia.f == want_f
            and inertia.group == want_group
            and f_minimal
        )
    return ok, details


def _c10_cross_evaluator(seed):
    details = {}
    ok = True
    jobs = (
        (2, 4, "AxB", 3, 13, "F16_3x13"),
        (3, 2, "AxB", 4, 5, "F9_4x5"),
        (3, 2, "Atimes", None, 7, "F9_28x"),
    )
    for p, k, kind, A, B, label in jobs:
        field = build_field(p, k)
        table = _table_cached(p, k, kind, A, B, "exact")
        mismatches = 0
        for s in field.units():
            if kind == "AxB":
                direct = exp_sums.trace_axb(field, A, B, int(s))
            else:
                direct = exp_sums.trace_quartic(field, B, int(s))
            if direct != table.value(int(s)):
                mismatches += 1
        details[label] = {"points": field.q - 1, "mismatches": mismatches}
        ok &= mismatches == 0
    return ok, details


CRITERIA = [
    ("C1", "base-2 digit lemma, exhaustive r <= 14 (< 1 s) and r <= 24 (< 60 s)",
     _c1_digit_lemma_base2),
    ("C2", "base-3 digit lemma, exhaustive r <= 7 (< 1 s) and r <= 14 (< 60 s)",
     _c2_digit_lemma_base3),
    ("C3", "28-family digit lemma, exhaustive r <= 3 and extension r <= 12",
     _c3_digit_lemma_28),
    ("C4", "bracket corollaries and sharp inequalities (even r <= 20 / r <= 12)",
     _c4_bracket_forms),
    ("C5", "V-function identity suite with exhaustive ranges and 1e5 fuzz cases",
     _c5_v_identities),
    ("C6", "finite-monodromy criteria over p^r - 1 denominators plus hand sets",
     _c6_criteria),
    ("C7", "trace tables: closed form, rationality, integrality, purity, "
           "Frobenius and Galois invariance, float agreement",
     _c7_trace_tables),
    ("C8", "second-moment equidistribution evidence at q = 1024 and q = 729",
     _c8_moments),
    ("C9", "classification: primitivity, self-duality, determinant, inertia",
     _c9_classification),
    ("C10", "restructured O(q^2) pipeline equals direct evaluation pointwise",
     _c10_cross_evaluator),
]


def run_criterion(cid: str, seed: int = 20240601) -> CriterionResult:
    for c, desc, fn in CRITERIA:
        if c == cid:
            t0 = time.perf_counter()
            passed, details = fn(seed)
            return CriterionResult(c, desc, bool(passed), details,
                                   time.perf_counter() - t0)
    raise KeyError(f"unknown criterion {cid!r}")


def run_all(seed: int = 20240601) -> list[CriterionResult]:
    return [run_criterion(cid, seed) for cid, _, _ in CRITERIA]


def manifest(results: list[CriterionResult]) -> dict:
    return {
        "criteria": [
            {
                "id": r.cid,
                "description": r.description,
                "passed": r.passed,
                "details": r.details,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
