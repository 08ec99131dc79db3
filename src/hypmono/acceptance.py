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


def _table(family, k, mode):
    fam = exp_sums.FAMILIES[family]
    return exp_sums.trace_table_all(build_field(fam.p, k), fam.kind, A=fam.A, B=fam.B,
                                    mode=mode)


_table_cached = lru_cache(maxsize=None)(_table)


# ----------------------------------------------------------------------

def _digit_lemma(family, r_base, gated):
    """Violations of a family's digit lemma over 1 <= r <= r_base and over
    r_base < r <= its r_ext; gated, the two ranges must also take under
    1 s and under 60 s."""
    # looked up at call time, so a wrapper put on kubert sees it
    verify = getattr(kubert, f"verify_lemma_{family}")
    r_ext = kubert.LEMMAS[family].r_ext
    t0 = time.perf_counter()
    base_bad = sum(not verify(r).passed for r in range(1, r_base + 1))
    t1 = time.perf_counter()
    ext_bad = sum(not verify(r).passed for r in range(r_base + 1, r_ext + 1))
    t2 = time.perf_counter()
    details = {
        "r_base": r_base,
        "violations_base": base_bad,
        "r_ext": r_ext,
        "violations_ext": ext_bad,
    }
    ok = base_bad == 0 and ext_bad == 0
    if gated:
        ok = ok and t1 - t0 < 1.0 and t2 - t1 < 60.0
    return ok, details


def _c4_bracket_forms(seed):
    bad = {}
    for family, r_max in (("3x13", 20), ("4x5", 12), ("28", 12)):
        bad[f"corollary-{family}"] = bad[f"sharp-{family}"] = 0
        for rep in kubert.bracket_reports(family, r_max):
            bad[rep.lemma] += not rep.passed
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
        ar, br = kubert.sequence_AB(big)  # the thirds of 2^big - 1
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
            v = kubert.kubert_v(Fraction(a, n), p)
            if v != Fraction(kubert.bracket(a, p, r), r * (p - 1)):
                v_bad += 1
    details["scalar_vs_bracket_violations"] = v_bad
    ok = all(v == 0 for v in details.values())
    return ok, details


def _c6_criteria(seed):
    details, ok = {}, True
    for name, r_max in (("3x13", 16), ("4x5", 10), ("28x", 10)):
        fam = exp_sums.FAMILIES[name]
        if fam.kind == "AxB":
            key = f"AxB_{fam.p}_{fam.A}_{fam.B}"
            rep = kubert.check_criterion_AxB(fam.p, fam.A, fam.B, r_max)
        else:
            key = f"Atimes_{fam.p}_{fam.A}"
            rep = kubert.check_criterion_Atimes(fam.p, fam.A, r_max)
        details[key] = {"checked": rep.checked, "counterexamples": len(rep.counterexamples)}
        ok &= rep.passed
    return ok, details


def _c7_trace_tables(seed):
    details = {}

    # (a) closed form on the base field of the characteristic-2 family
    t4 = _table_cached("3x13", 2, "exact")
    f4 = t4.field
    ok = details["F4_closed_form"] = all(
        t4.value(s) == exp_sums.CycNumber.root_of_unity(
            f4.p, f4.trace_to_prime(f4.inv(s))
        )
        for s in f4.units()
    )

    # (b) the `trace-table` report of each exact table beside its float
    # table, its flags under C7's names; in characteristic 3 the Galois
    # check is the span of zeta_3, and the report has no rationality flag
    names = {"integrality_pass": "integral", "purity_pass": "purity",
             "frobenius_pass": "frobenius", "rationality_pass": "rational",
             "galois_pass": "galois", "float_gap_over_tol": "float_gap_over_tol"}
    for name, ks in (("3x13", (4, 6)), ("4x5", (2, 4)), ("28x", (2, 4))):
        for k in ks:
            stats = exp_sums.table_stats(_table_cached(name, k, "exact"),
                                         _table_cached(name, k, "float"))
            char3 = stats["p"] == 3
            label = f"F{stats['q']}_{name}" if char3 else f"F{stats['q']}"
            keys = {**names, "galois_pass": "zeta3_span"} if char3 else names
            details[label] = {keys[key]: v for key, v in stats.items() if key in keys}
            ok &= exp_sums.stats_pass(stats)
    return ok, details


def _c8_moments(seed):
    details = {}
    ok = True
    for name, k in (("3x13", 10), ("4x5", 6), ("28x", 6)):
        t0 = time.perf_counter()
        tab = _table(name, k, "float")
        m1 = exp_sums.moments(tab, 1)
        seconds = time.perf_counter() - t0
        bound = 10 / math.sqrt(tab.field.q)
        details[f"{name}_q{tab.field.q}"] = {"M1_gap": round(abs(m1 - 1.0), 12),
                                              "bound": bound}
        ok &= abs(m1 - 1.0) <= bound and seconds < 600
    return ok, details


def _c9_classification(seed):
    # the facts are read from the report `hypmono classify` prints
    expected = {
        "3x13": ("orthogonal", 23, 11, "C2^11 : C23"),
        "4x5": ("none", 11, 5, "C3^5 : C11"),
        "28x": ("none", 11, 5, "C3^5 : C11"),
    }
    details, ok = {}, True
    for name, want in expected.items():
        fam = exp_sums.FAMILIES[name]
        spec = hyp_params.build_spec(fam.kind, fam.p, fam.A, fam.B)
        report = hyp_params.classification_report(spec, name, {})
        inertia = report["inertia"]
        N, f = inertia["N"], inertia["f"]
        f_minimal = all(pow(spec.p, d, N) != 1 for d in range(1, f)) and pow(spec.p, f, N) == 1
        details[name] = {
            "primitivity": report["primitivity"], "selfdual": report["selfdual"],
            "det_trivial": report["det_trivial"], "inertia_N": N, "inertia_f": f,
            "group": inertia["group"], "f_minimal": f_minimal,
            "product_hypothesis": inertia["hypothesis_met"],
        }
        ok &= (report["primitivity"] == "NOT_INDUCED" and report["det_trivial"] and f_minimal
               and (report["selfdual"], N, f, inertia["group"]) == want)
    return ok, details


def _c10_cross_evaluator(seed):
    details = {}
    for name, k in (("3x13", 4), ("4x5", 2), ("28x", 2)):
        fam = exp_sums.FAMILIES[name]
        table = _table_cached(name, k, "exact")
        field = table.field
        mismatches = 0
        for s in map(int, field.units()):
            if fam.kind == "AxB":
                direct = exp_sums.trace_axb(field, fam.A, fam.B, s)
            else:
                direct = exp_sums.trace_quartic(field, fam.B, s)
            mismatches += direct != table.value(s)
        details[f"F{field.q}_{name}"] = {"points": field.q - 1, "mismatches": mismatches}
    return all(d["mismatches"] == 0 for d in details.values()), details


CRITERIA = [
    ("C1", "base-2 digit lemma, exhaustive r <= 14 (< 1 s) and r <= 24 (< 60 s)",
     lambda seed: _digit_lemma("3x13", 14, gated=True)),
    ("C2", "base-3 digit lemma, exhaustive r <= 7 (< 1 s) and r <= 14 (< 60 s)",
     lambda seed: _digit_lemma("4x5", 7, gated=True)),
    ("C3", "28-family digit lemma, exhaustive r <= 3 and extension r <= 12",
     lambda seed: _digit_lemma("28", 3, gated=False)),
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
