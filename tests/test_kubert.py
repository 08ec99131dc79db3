import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hypmono.errors import CapExceededError
from hypmono.kubert import (
    bracket,
    bracket_reports,
    bracket_vec,
    check_criterion_Atimes,
    check_criterion_AxB,
    digit_sum,
    digit_sum_vec,
    kubert_v,
    multiplicative_order,
    repunit_scaling_check,
    sequence_AB,
    verify_brackets,
    verify_lemma_28,
    verify_lemma_3x13,
    verify_lemma_4x5,
)


def test_digit_sum_examples():
    assert digit_sum(13, 2) == 3
    assert digit_sum(0, 2) == digit_sum(0, 3) == 0
    assert digit_sum(44, 2) == 3
    assert digit_sum(44, 3) == 6  # 1122_3
    v = digit_sum_vec(np.array([13, 0, 44]), 2)
    assert v.tolist() == [3, 0, 3]
    # the base-3 table kernel against the scalar loop, across several table passes
    rng = np.random.default_rng(5)
    values = np.concatenate([np.arange(3 ** 9), rng.integers(0, 2 ** 62, 5000)])
    assert digit_sum_vec(values, 3).tolist() == [digit_sum(int(v), 3) for v in values]



@pytest.mark.parametrize("p", [2, 3])
def test_digit_sums_refuse_negative_input(p):
    # a negative value would index the base-3 table from its end, and the
    # base-2 population count would read |x|
    with pytest.raises(ValueError):
        digit_sum(-1, p)
    for values in ([-1, -5], [4, -5], -1):
        with pytest.raises(ValueError):
            digit_sum_vec(np.array(values), p)
    assert digit_sum_vec(np.array([], dtype=np.int64), p).tolist() == []


@pytest.mark.parametrize("p", [0, 1])
def test_digit_sums_refuse_a_base_below_two(p):
    # in base 1, n //= p never shrinks n and the digit-sum table never grows
    with pytest.raises(ValueError):
        digit_sum(5, p)
    with pytest.raises(ValueError):
        digit_sum_vec(np.array([5]), p)


@pytest.mark.parametrize("p", [0, 1])
def test_brackets_and_v_refuse_a_base_below_two(p):
    # p^r - 1 is 0 or -1, so a reduction mod it divides by zero or leaves
    # a negative value, and a repunit check of an empty x divides by zero or
    # refuses any x as out of range; the base must be refused first, without
    # a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: bracket(5, p, 2), lambda: bracket_vec(np.array([5]), p, 2),
                     lambda: kubert_v(Fraction(1, 3), p),
                     lambda: repunit_scaling_check(np.array([], dtype=np.int64), 2, 2, p),
                     lambda: repunit_scaling_check(np.array([0]), 2, 2, p)):
            with pytest.raises(ValueError, match="base of at least 2"):
                call()


def test_bracket_examples():
    assert bracket(20, 2, 4) == 2  # 20 mod 15 = 5 = 0101
    assert bracket(2 ** 4 - 1, 2, 4) == 0
    assert bracket(3 ** 5 - 1, 3, 5) == 0
    assert bracket(49, 2, 4) == 1
    # periodicity
    for x in range(40):
        assert bracket(x + 3 ** 3 - 1, 3, 3) == bracket(x, 3, 3)


@pytest.mark.parametrize("p", [2, 3])
def test_brackets_refuse_r_below_one(p):
    # mod p^0 - 1 = 0 there is no residue; the array form used to take % 0
    with pytest.raises(ValueError):
        bracket(5, p, 0)
    with pytest.raises(ValueError):
        bracket_vec(np.arange(4), p, 0)


def test_v_examples():
    assert kubert_v(Fraction(0, 1), 2) == 0
    assert kubert_v(Fraction(1, 3), 2) == Fraction(1, 2)
    assert kubert_v(Fraction(1, 3), 2) + kubert_v(Fraction(2, 3), 2) == 1
    # read mod 1: 4/3 and -2/3 are 1/3, 1 is 0
    assert kubert_v(Fraction(4, 3), 2) == kubert_v(Fraction(-2, 3), 2) == Fraction(1, 2)
    assert kubert_v(1, 2) == 0
    assert kubert_v(Fraction(1, 8), 3) == Fraction(1, 4)
    with pytest.raises(ValueError):
        kubert_v(Fraction(1, 6), 2)


def test_v_reflection_exhaustive_small():
    for p, rmax in ((2, 8), (3, 5)):
        for r in range(1, rmax + 1):
            n = p ** r - 1
            for a in range(1, n):
                assert kubert_v(Fraction(a, n), p) + kubert_v(Fraction(n - a, n), p) == 1


def test_v_triplication_everywhere():
    # V(3x) + 1 = V(x) + V(x + 1/3) + V(x + 2/3), including degenerate x
    third = Fraction(1, 3)
    for r in (1, 2, 3, 4, 5, 6):
        n = 2 ** r - 1
        for a in range(n):
            x = Fraction(a, n)
            lhs = kubert_v(3 * x, 2) + 1
            rhs = (kubert_v(x, 2) + kubert_v(x + third, 2)
                   + kubert_v(x + third + third, 2))
            assert lhs == rhs


def test_v_duplication_everywhere():
    # V(2x) + 1/2 = V(x) + V(x + 1/2), including degenerate x
    half = Fraction(1, 2)
    for r in (1, 2, 3, 4):
        n = 3 ** r - 1
        for a in range(n):
            x = Fraction(a, n)
            assert kubert_v(2 * x, 3) + Fraction(1, 2) == \
                kubert_v(x, 3) + kubert_v(x + half, 3)


def test_v_well_defined_across_levels():
    # evaluating with denominator p^(kr) - 1 agrees with level r
    for p in (2, 3):
        for r in (1, 2, 3):
            n = p ** r - 1
            for k in (2, 3):
                nn = p ** (k * r) - 1
                for a in range(n):
                    assert kubert_v(Fraction(a, n), p) == \
                        kubert_v(Fraction(a * (nn // n), nn), p)


def test_sequence_ab():
    assert sequence_AB(4) == (5, 10)
    assert sequence_AB(3) == (5, 2)
    for r in range(2, 31):
        A_r, B_r = sequence_AB(r)
        for s in range(1, r):
            A_s, B_s = sequence_AB(s)
            A_rs, B_rs = sequence_AB(r - s)
            if s % 2 == 0:
                assert A_r == 2 ** s * A_rs + A_s and B_r == 2 ** s * B_rs + B_s
            else:
                assert A_r == 2 ** s * B_rs + A_s and B_r == 2 ** s * A_rs + B_s


def test_lemma_3x13_small():
    for r in range(1, 11):
        rep = verify_lemma_3x13(r)
        assert rep.passed, rep.to_json_records()
        for v in rep.variants:
            assert sum(v.slack_histogram.values()) == v.checked


def test_lemma_3x13_spot_values():
    # x = 3, r = 4: digit sums computed by the module's own primitives
    A, B = sequence_AB(4)
    lhs = digit_sum(13 * 3 + A, 2) + digit_sum(13 * 3 + B, 2)
    rhs = digit_sum(3, 2) + digit_sum(3 + A, 2) + digit_sum(3 + B, 2)
    assert (lhs, rhs) == (6, 6)
    assert lhs <= rhs + 4
    # x = 0: both offset terms are explicit
    assert digit_sum(A, 2) + digit_sum(B, 2) == 4  # r/2 ones each for even r


def test_lemma_3x13_variant_scopes():
    rep = verify_lemma_3x13(8)
    by_name = {v.variant: v for v in rep.variants}
    assert by_name["plus4"].checked == 2 ** 8
    assert by_name["plus1"].checked == 2 ** 6
    assert by_name["plus0"].checked == 2 ** 4  # leading digits 1010
    assert by_name["plus2"].checked == (16 - 3) * 2 ** 4


def test_lemma_4x5_small():
    for r in range(1, 7):
        rep = verify_lemma_4x5(r)
        assert rep.passed
    # sharp variant genuinely fails on the excluded leading-digit classes
    r = 5
    A = (3 ** r - 1) // 2
    xs = np.arange(3 ** r, dtype=np.int64)
    lead2 = xs // 3 ** (r - 2)
    excluded = np.isin(lead2, (3, 4, 7))
    lhs = digit_sum_vec(5 * xs + A, 3) + digit_sum_vec(10 * xs + A, 3)
    rhs = (digit_sum_vec(xs, 3) + digit_sum_vec(xs + A, 3)
           + digit_sum_vec(2 * xs + A, 3))
    assert np.any(lhs[excluded] > rhs[excluded])
    assert not np.any(lhs[~excluded] > rhs[~excluded])


def test_lemma_28_small():
    for r in range(1, 8):
        assert verify_lemma_28(r).passed


def test_bracket_corollaries():
    assert verify_brackets("3x13", 6)[0].passed
    assert verify_brackets("4x5", 4)[0].passed
    assert verify_brackets("28", 4)[0].passed
    with pytest.raises(ValueError):
        verify_brackets("3x13", 5)  # parity violation
    # the offset points x = A_r, B_r are inside the checked range
    rep = verify_brackets("3x13", 6)[0]
    assert rep.variants[0].checked == 2 ** 6 - 2


def test_sharp_inequalities():
    assert verify_brackets("3x13", 8)[1].passed
    assert verify_brackets("4x5", 5)[1].passed
    assert verify_brackets("28", 5)[1].passed
    with pytest.raises(ValueError):
        verify_brackets("3x13", 7)


def test_bracket_reports_keep_the_stated_r():
    # the 3x13 forms at even r only, the sharp form from r = 2 on
    got = {f: [(rep.lemma.split("-")[0], rep.r) for rep in bracket_reports(f, 4)]
           for f in ("3x13", "28")}
    assert got["3x13"] == [("corollary", 2), ("sharp", 2), ("corollary", 4), ("sharp", 4)]
    assert got["28"] == [("corollary", 1)] + [(form, r) for r in (2, 3, 4)
                                              for form in ("corollary", "sharp")]


def test_r_caps():
    with pytest.raises(CapExceededError):
        verify_lemma_3x13(31)
    with pytest.raises(CapExceededError):
        verify_lemma_4x5(19)
    with pytest.raises(CapExceededError):
        verify_lemma_28(0)


def test_criterion_axb_small():
    rep = check_criterion_AxB(2, 3, 13, 8)
    assert rep.passed
    rep = check_criterion_AxB(3, 4, 5, 6)
    assert rep.passed
    # x = 1/3 spot check: V(39x) + 1 = 1 >= V(3x) + V(13x) = 1/2
    x = Fraction(1, 3)
    lhs = kubert_v(39 * x, 2) + 1
    rhs = kubert_v(3 * x, 2) + kubert_v(13 * x, 2)
    assert lhs == 1 and rhs == Fraction(1, 2)


def test_criterion_atimes_small():
    rep = check_criterion_Atimes(3, 28, 6)
    assert rep.passed
    for A in (49, 770):  # one prime factor, four
        with pytest.raises(ValueError):
            check_criterion_Atimes(3, A, 4)
    # x = 1/2: all terms through the scalar V oracle
    x = Fraction(1, 2)
    lhs = kubert_v(28 * x, 3) + kubert_v(2 * x, 3) + kubert_v(-x, 3)
    rhs = kubert_v(14 * x, 3) + kubert_v(4 * x, 3)
    assert lhs >= rhs


def test_repunit_scaling():
    assert repunit_scaling_check(5, 4, 2, 2)  # [85]_8 = 4 = 2 * [5]_4
    assert repunit_scaling_check(0, 3, 4, 3)
    rng = random.Random(99)
    for _ in range(2000):
        p = rng.choice((2, 3))
        r = rng.randint(1, 10)
        k = rng.randint(1, 3)
        x = rng.randrange(0, p ** r - 1) if p ** r > 2 else 0
        assert repunit_scaling_check(x, r, k, p)
    # arrays: elementwise, with the same range check, refused past int64
    ok = repunit_scaling_check(np.arange(3 ** 5 - 1), 5, 2, 3)
    assert ok.shape == (3 ** 5 - 1,) and ok.all()
    with pytest.raises(ValueError):
        repunit_scaling_check(np.array([0, 3 ** 5 - 1]), 5, 2, 3)
    with pytest.raises(ValueError):
        repunit_scaling_check(-1, 5, 2, 3)
    with pytest.raises(CapExceededError):
        repunit_scaling_check(1, 32, 2, 2)  # 2^64 - 1 leaves int64


def test_slack_identity_links_v_to_brackets():
    # r(p-1) * (V(3x)+V(13x)-V(39x)) equals the bracket-form slack, even r
    for r in (2, 4, 6, 8):
        n = 2 ** r - 1
        A, B = n // 3, 2 * n // 3
        a = np.arange(1, n, dtype=np.int64)
        lhs = (digit_sum_vec(3 * a % n, 2) + digit_sum_vec(13 * a % n, 2)
               - digit_sum_vec(39 * a % n, 2))
        rhs = (bracket_vec(a, 2, r) + bracket_vec(a + A, 2, r)
               + bracket_vec(a + B, 2, r) - bracket_vec(13 * a + A, 2, r)
               - bracket_vec(13 * a + B, 2, r))
        assert np.array_equal(lhs, rhs)
    # 2r * (V(x)+V(4x)+V(14x)-V(28x)-V(2x)) equals the one-sided form
    for r in (1, 2, 3, 4, 5):
        n = 3 ** r - 1
        A = n // 2
        a = np.arange(1, n, dtype=np.int64)
        lhs = (digit_sum_vec(a, 3) + digit_sum_vec(4 * a % n, 3)
               + digit_sum_vec(14 * a % n, 3) - digit_sum_vec(28 * a % n, 3)
               - digit_sum_vec(2 * a % n, 3))
        rhs = (bracket_vec(a, 3, r) + bracket_vec(2 * a + A, 3, r)
               - bracket_vec(14 * a + A, 3, r))
        assert np.array_equal(lhs, rhs)
    # and for the 4x5 family
    for r in (1, 2, 3, 4, 5):
        n = 3 ** r - 1
        A = n // 2
        a = np.arange(1, n, dtype=np.int64)
        lhs = (digit_sum_vec(4 * a % n, 3) + digit_sum_vec(5 * a % n, 3)
               - digit_sum_vec(20 * a % n, 3))
        rhs = (bracket_vec(a, 3, r) + bracket_vec(a + A, 3, r)
               + bracket_vec(2 * a + A, 3, r) - bracket_vec(5 * a + A, 3, r)
               - bracket_vec(10 * a + A, 3, r))
        assert np.array_equal(lhs, rhs)


def test_multiplicative_order():
    assert multiplicative_order(2, 23) == 11
    assert multiplicative_order(3, 11) == 5
    assert multiplicative_order(2, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(3, 6)


def test_v_lands_in_unit_interval():
    for p, rmax in ((2, 10), (3, 6)):
        for r in range(1, rmax + 1):
            n = p ** r - 1
            for a in range(n):
                v = kubert_v(Fraction(a, n), p)
                assert 0 <= v < 1


def _records(report):
    if hasattr(report, "to_json_records"):
        records = report.to_json_records()
    else:
        records = [{"checked": report.checked,
                    "counterexamples": [c.to_json() for c in report.counterexamples]}]
    return [{k: v for k, v in rec.items() if k != "elapsed_ms"} for rec in records]


@pytest.mark.parametrize(
    "scan",
    [
        lambda: verify_lemma_4x5(7),
        lambda: verify_brackets("3x13", 8)[0],
        lambda: verify_brackets("28", 6)[1],
        lambda: check_criterion_AxB(2, 3, 7, 8),  # has counterexamples
    ],
    ids=["lemma-4x5", "corollary-3x13", "sharp-28", "criterion-AxB"],
)
def test_chunk_size_does_not_change_reports(monkeypatch, scan):
    import hypmono.kubert as kb

    baseline = _records(scan())
    monkeypatch.setattr(kb, "_CHUNK", 97)
    assert _records(scan()) == baseline


# The lemmas written out once more, point by point through the scalar
# digit_sum / bracket primitives, as an independent route to the reports.

def _scalar_sides(family, x, r, ds):
    if family == "3x13":
        A, B = sequence_AB(r)
        return (ds(13 * x + A) + ds(13 * x + B),
                ds(x) + ds(x + A) + ds(x + B))
    A = (3 ** r - 1) // 2
    if family == "4x5":
        return (ds(5 * x + A) + ds(10 * x + A),
                ds(x) + ds(x + A) + ds(2 * x + A))
    return ds(14 * x + A), ds(x) + ds(2 * x + A)


def _lemma_scopes(family, x, r):
    """(variant, allowance, in scope) for every variant the lemma states at r."""
    if family == "3x13":
        out = [("plus4", 4, True)]
        if r >= 4:
            top4 = x >> (r - 4)
            out += [("plus2", 2, top4 not in (0b0100, 0b1000, 0b1001)),
                    ("plus0", 0, top4 == 0b1010)]
        return out + [("plus1", 1, 4 * x < 2 ** r)]
    if family == "4x5":
        out = [("plus2", 2, True)]
        if r >= 2:
            out.append(("plus0", 0, x // 3 ** (r - 2) not in (3, 4, 7)))
        return out
    return [("plus1", 1, True)]


def _expected(names, points):
    """Records of the named variants from (variant, x, lhs, rhs) points,
    rhs including the allowance."""
    out = {name: {"variant": name, "checked": 0, "counterexamples": [],
                  "slack_histogram": {}} for name in names}
    for name, x, lhs, rhs in points:
        rec = out[name]
        rec["checked"] += 1
        if rhs < lhs:
            rec["counterexamples"].append({"x": x, "lhs": lhs, "rhs": rhs})
        key = str(min(max(rhs - lhs, -1), 32))
        rec["slack_histogram"][key] = rec["slack_histogram"].get(key, 0) + 1
    return out


def _variant_records(report):
    return {
        rec["variant"]: {k: rec[k] for k in
                         ("variant", "checked", "counterexamples", "slack_histogram")}
        for rec in report.to_json_records()
    }


def _check_scalar_route(family, p, r_max):
    verify = {"3x13": verify_lemma_3x13, "4x5": verify_lemma_4x5,
              "28": verify_lemma_28}[family]
    allowance = {"3x13": 5, "4x5": 6, "28": 3}[family]
    for r in range(1, r_max + 1):
        points = []
        for x in range(p ** r):
            lhs, rhs = _scalar_sides(family, x, r, lambda v: digit_sum(v, p))
            points += [(name, x, lhs, rhs + c)
                       for name, c, inside in _lemma_scopes(family, x, r) if inside]
        names = [name for name, _, _ in _lemma_scopes(family, 0, r)]
        assert _variant_records(verify(r)) == _expected(names, points)

        if family == "3x13" and r % 2:
            continue
        sides = [_scalar_sides(family, x, r, lambda v: bracket(v, p, r))
                 for x in range(1, p ** r - 1)]
        corollary, sharp = verify_brackets(family, r)
        for name, c, report in (
            (f"bracket_plus{allowance}", allowance, corollary),
            ("sharp", 0, sharp),
        ):
            points = [(name, x, lhs, rhs + c)
                      for x, (lhs, rhs) in enumerate(sides, start=1)]
            assert _variant_records(report) == _expected([name], points)


@pytest.mark.parametrize("family,p,r_max", [("3x13", 2, 9), ("4x5", 3, 6), ("28", 3, 6)])
def test_lemma_data_matches_scalar_route(family, p, r_max):
    _check_scalar_route(family, p, r_max)


@pytest.mark.parametrize("family,p,r_max", [("3x13", 2, 9), ("4x5", 3, 6), ("28", 3, 6)])
def test_lemma_data_matches_scalar_route_across_rows(monkeypatch, family, p, r_max):
    # blocks of 8 or 9 split every scan past r = 3 into rows, so the carries
    # and the high offset digits cross block boundaries
    import hypmono.kubert as kb

    monkeypatch.setattr(kb, "_CHUNK", 10)
    _check_scalar_route(family, p, r_max)


@pytest.mark.parametrize("chunk", [None, 10], ids=["one-block", "rows"])
@pytest.mark.parametrize("kernel", ["split", "mod"])
@pytest.mark.parametrize("family,p,r", [("3x13", 2, 8), ("4x5", 3, 5), ("28", 3, 5)])
def test_scan_counterexamples_match_scalar_route(monkeypatch, family, p, r, kernel, chunk):
    # lowered allowances make both kernels report counterexamples
    import hypmono.kubert as kb

    if chunk:
        monkeypatch.setattr(kb, "_CHUNK", chunk)
    variants = [kb.Variant("minus2", -2),
                kb.Variant("minus1", -1, lead=2, allowed=frozenset({1, p + 1}))]
    if kernel == "split":
        n, xs, ds = None, range(p ** r), lambda v: digit_sum(v, p)
    else:
        n, xs, ds = p ** r - 1, range(1, p ** r - 1), lambda v: bracket(v, p, r)
    points = []
    for x in xs:
        lhs, rhs = _scalar_sides(family, x, r, ds)
        points.append(("minus2", x, lhs, rhs - 2))
        if x // p ** (r - 2) in (1, p + 1):
            points.append(("minus1", x, lhs, rhs - 1))
    want = _expected(["minus2", "minus1"], points)
    assert any(rec["counterexamples"] for rec in want.values())
    got = kb._scan(p, r, *kb.LEMMAS[family].forms(r), variants, n)
    assert {
        rep.variant: {"variant": rep.variant, "checked": rep.checked,
                      "counterexamples": [c.to_json() for c in rep.counterexamples],
                      "slack_histogram": {str(k): c for k, c in rep.slack_histogram.items()}}
        for rep in got
    } == want


@pytest.mark.parametrize("family,r_range", [
    ("3x13", range(2, 21, 2)), ("4x5", range(1, 13)), ("28", range(1, 13)),
])
def test_one_bracket_scan_equals_a_scan_per_variant(family, r_range):
    # the ranges of acceptance criterion C4; verify_brackets shares the
    # slacks and their bincounts between its two variants
    import hypmono.kubert as kb

    lemma = kb.LEMMAS[family]
    p, a = lemma.p, lemma.bracket_allowance
    for r in r_range:
        got = [rep.variants for rep in verify_brackets(family, r)]
        want = [kb._scan(p, r, *lemma.forms(r), [v], p ** r - 1)
                for v in (kb.Variant(f"bracket_plus{a}", a), kb.Variant("sharp", 0))]
        assert got == want


@pytest.mark.parametrize("chunk", [None, 10], ids=["one-block", "rows"])
@pytest.mark.parametrize("family,r,mod", [
    ("3x13", 8, False), ("3x13", 15, False), ("3x13", 16, True),
    ("4x5", 5, True), ("4x5", 10, False), ("4x5", 10, True), ("28", 6, True),
])
def test_variants_with_one_scope_share_one_count(monkeypatch, family, r, mod, chunk):
    # two lowered allowances over one leading-digit scope: one scope goes
    # to the class kernel, and each variant's report equals its own scan
    import hypmono.kubert as kb

    if chunk:
        monkeypatch.setattr(kb, "_CHUNK", chunk)
    lemma = kb.LEMMAS[family]
    p = lemma.p
    n = p ** r - 1 if mod else None
    a = 0 if mod else lemma.variants[0].allowance - 1
    scope = {"lead": 2, "allowed": frozenset({0, 1, p + 1})}
    variants = [kb.Variant("loose", a - 1, **scope), kb.Variant("tight", a - 3, **scope)]
    want = [kb._scan(p, r, *lemma.forms(r), [v], n)[0] for v in variants]
    scopes = []
    real = kb._class_counts

    def counted(*args):
        scopes.append(args[4])
        return real(*args)

    monkeypatch.setattr(kb, "_class_counts", counted)
    assert kb._scan(p, r, *lemma.forms(r), variants, n) == want
    assert scopes == [[(variants[0].ranges(p, r), a - 3)]]
    loose, tight = want
    assert loose.slack_histogram.keys() != tight.slack_histogram.keys()
    assert 0 < len(loose.counterexamples) < len(tight.counterexamples)


def test_merged_ranges_cover_the_x_of_the_per_digit_cuts():
    # ascending, disjoint, none adjacent to the next, and together the x
    # whose leading digits lie in `allowed`
    import hypmono.kubert as kb

    variants = [(lemma.p, v) for lemma in kb.LEMMAS.values() for v in lemma.variants]
    variants += [(p, v) for p, _, _, _, vs, _ in _random_scans(1717, 40) for v in vs]
    for p, v in variants:
        for r in range(max(v.min_r, 1), 9 if p == 2 else 6):
            ranges = v.ranges(p, r)
            assert all(b < c for (_, b), (c, _) in zip(ranges, ranges[1:]))
            covered = np.zeros(p ** r, dtype=bool)
            for a, b in ranges:
                covered[a:b] = True
            xs = np.arange(p ** r)
            assert (covered == np.isin(xs * p ** v.lead // p ** r, sorted(v.allowed))).all()
    plus2_3x13, plus0_4x5 = kb.LEMMAS["3x13"].variants[1], kb.LEMMAS["4x5"].variants[1]
    assert len(plus2_3x13.ranges(2, 8)) == 3 and len(plus0_4x5.ranges(3, 6)) == 3


def test_narrow_accumulators_fit_at_r_cap():
    import hypmono.kubert as kb

    criteria = {2: [((3, 13), (39,))],  # (small, big) multipliers of C6
                3: [((4, 5), (20,)), ((14, 4), (28, 2, -1))]}
    for p, r in kb.R_CAP.items():
        n = p ** r - 1
        sides = [(lemma.forms(r), m) for lemma in kb.LEMMAS.values() if lemma.p == p
                 for m in (None, n)]
        sides += [(([(c, 0) for c in small], [(c, 0) for c in big]), n)
                  for small, big in criteria[p]]
        for (lhs, rhs), m in sides:
            off, bins = kb._slack_range(p, r, lhs, rhs, m)  # raises past int16
            assert 0 < off < bins <= 2 ** 15 - 1


@pytest.mark.parametrize("family,r_range", [
    ("3x13", range(25, 31)), ("4x5", range(15, 19)), ("28", range(13, 19)),
])
def test_lemmas_hold_past_the_cli_defaults_up_to_r_cap(family, r_range):
    # every x below 2^30 or 3^18, counted per carry class
    import hypmono.kubert as kb

    verify = {"3x13": verify_lemma_3x13, "4x5": verify_lemma_4x5, "28": verify_lemma_28}[family]
    lemma = kb.LEMMAS[family]
    assert r_range[-1] == kb.R_CAP[lemma.p]
    for r in r_range:
        report = verify(r)
        variants = [v for v in lemma.variants if r >= v.min_r]
        assert [v.variant for v in report.variants] == [v.name for v in variants]
        for got, v in zip(report.variants, variants):
            assert got.counterexamples == []
            assert min(got.slack_histogram) == 0
            assert got.checked == len(v.allowed) * lemma.p ** (r - v.lead)
            assert sum(got.slack_histogram.values()) == got.checked


@pytest.mark.parametrize("family,r_range", [
    ("3x13", range(22, 31, 2)), ("4x5", range(13, 19)), ("28", range(13, 19)),
])
def test_bracket_forms_hold_up_to_r_cap(family, r_range):
    # every 0 < x < 2^30 - 1 or 3^18 - 1, counted per carry class apart
    # from the rows that wrap mod p^r - 1
    import hypmono.kubert as kb

    lemma = kb.LEMMAS[family]
    assert r_range[-1] == kb.R_CAP[lemma.p]
    for r in r_range:
        for report, allowance in zip(verify_brackets(family, r), (lemma.bracket_allowance, 0)):
            (got,) = report.variants
            assert got.counterexamples == []
            assert min(got.slack_histogram) == allowance  # the least slack is 0
            assert got.checked == sum(got.slack_histogram.values()) == lemma.p ** r - 2


def _reference_scan(p, r, lhs, rhs, variants, n=None):
    """The reports of `_scan`, x by x through digit_sum_vec: over [0, p^r),
    or over [1, n) with every c*x + o reduced mod n."""
    import hypmono.kubert as kb

    xs = np.arange(p ** r) if n is None else np.arange(1, n)

    def value(c, o):
        return c * xs + o if n is None else (c * xs + o) % n

    def side(forms):
        return sum((digit_sum_vec(value(c, o), p) for c, o in forms), np.zeros(xs.size, int))

    lhs_sum, rhs_sum = side(lhs), side(rhs)
    reports = []
    for v in variants:
        inside = np.isin(xs * p ** v.lead // p ** r, sorted(v.allowed))
        slack = rhs_sum + v.allowance - lhs_sum
        keys, counts = np.unique(np.clip(slack[inside], -1, 32), return_counts=True)
        cx = [kb.Counterexample(int(xs[i]), int(lhs_sum[i]), int(rhs_sum[i] + v.allowance))
              for i in np.flatnonzero(inside & (slack < 0))]
        reports.append(kb.VariantReport(v.name, int(inside.sum()), cx,
                                        dict(zip(keys.tolist(), counts.tolist()))))
    return reports


def _random_scans(seed, cases, mod=False):
    """Random (p, r, lhs, rhs, variants, n): n is None, or with mod
    p^r - 1, with negative multipliers and ones sharing a factor with n."""
    import hypmono.kubert as kb

    rng = random.Random(seed)
    for _ in range(cases):
        p = rng.choice([2, 3])
        r = rng.randint(1, 9 if p == 2 else 6)
        n = p ** r - 1

        def form():
            if not mod:
                return rng.choice([0, 1, rng.randint(0, 40)]), rng.randrange(p ** r)
            shared = [d for d in range(2, n + 1) if n % d == 0] or [1]  # c*x = 0 at some x
            c = rng.choice([0, 1, -1, rng.randint(-40, 40), rng.choice(shared)])
            return c * rng.choice([1, 1, -1]), rng.randrange(n)

        def forms():
            out = [form() for _ in range(rng.randint(1, 4))]
            return out + out[:rng.choice([0, 0, 1])]  # sometimes a form twice

        variants = []
        for i in range(rng.randint(1, 3)):
            lead = rng.randint(0, r + 1)
            allowed = frozenset(rng.sample(range(p ** lead), rng.randint(1, min(p ** lead, 4))))
            variants.append(kb.Variant(f"v{i}", rng.randint(-3, 3), lead=lead, allowed=allowed))
        yield p, r, forms(), forms(), variants, n if mod else None


@pytest.mark.parametrize("chunk", [None, 10, 97], ids=["default", "chunk10", "chunk97"])
def test_class_counts_match_a_per_x_reference(monkeypatch, chunk):
    # random forms (c = 0 and repeated forms included), leading-digit scopes
    # up to lead = r + 1 and lowered allowances, so counterexamples show;
    # mod n = p^r - 1 also c = -1 and other negative c, c sharing a factor
    # with n so the zero representative is hit, c above 255, offsets below n;
    # without n also c above 255, whose rows are scanned x by x
    import hypmono.kubert as kb

    if chunk:
        monkeypatch.setattr(kb, "_CHUNK", chunk)
    cases = list(_random_scans(1414, 80))
    # 70 forms: the product of their carry widths, 2^70, passes int64
    cases += [(2, 5, [(1, 0)] * 70, [(13, 7), (1, 0)], [kb.Variant("many", 60)], None),
              (3, 4, [(1, o) for o in range(70)], [(2, 40)] * 3,
               [kb.Variant("many", 200), kb.Variant("top", 190, lead=1, allowed=frozenset({2}))],
               None)]
    for i, (p, r, lhs, rhs, variants, _) in enumerate(_random_scans(1515, 24)):
        c = (13, 256, 300, 1000)[i % 4]
        cases.append((p, r, [*lhs, (c, i)], [(c, 2 * i), *rhs], variants, None))
    # c*l passes int32 at P = 3^10 unless the rows are scanned x by x
    cases.append((3, 11, [(40000, 5)], [(1, 0), (2, 1)], [kb.Variant("wide", 8)], None))
    mod_cases = list(_random_scans(1616, 80, mod=True))
    # with rows of P near p^(r/2), only the rows that could wrap are scanned x by x
    for family, r in (("3x13", 18), ("4x5", 11)):
        lemma = kb.LEMMAS[family]
        variants = [kb.Variant("minus1", -1),
                    kb.Variant("top", -2, lead=2, allowed=frozenset({1}))]
        mod_cases.append((lemma.p, r, *lemma.forms(r), variants, lemma.p ** r - 1))
    mod_cases.append((3, 11, [(14, 0), (4, 0)], [(28, 0), (2, 0), (-1, 0)],  # C6's Atimes 28
                      [kb.Variant("minus1", -1)], 3 ** 11 - 1))
    # above p^r = _CHUNK // 4 not every row is scanned x by x, and P is sized
    # from sqrt(K p^r) without n, from sqrt(p^r) mod n; allowances one and
    # three below the lemma's and the sharp form's
    for family, r in (("3x13", 15), ("4x5", 10)):
        lemma = kb.LEMMAS[family]
        for group, a, n in ((cases, lemma.variants[0].allowance, None),
                            (mod_cases, 0, lemma.p ** r - 1)):
            variants = [kb.Variant("tight", a - 1),
                        kb.Variant("top", a - 3, lead=2, allowed=frozenset({1}))]
            group.append((lemma.p, r, *lemma.forms(r), variants, n))
    for group in (cases, mod_cases):
        assert any(rep.counterexamples for case in group for rep in _reference_scan(*case))
    for case in cases + mod_cases:
        assert kb._scan(*case) == _reference_scan(*case)


@pytest.mark.parametrize("lhs,n,r", [
    ([(2 ** 60, 0)], None, 8),          # c*x passes int64
    ([(2 ** 60, 0)], 2 ** 8 - 1, 8),
    ([(2 ** 40000, 0)], None, 8),
    ([(1, 0)] * 1200, None, 30),        # 1200 * 30 digits leave int16
], ids=["int64", "int64-mod", "huge", "int16"])
def test_scan_refuses_forms_that_leave_its_dtypes(lhs, n, r):
    import hypmono.kubert as kb

    with pytest.raises(CapExceededError):
        kb._scan(2, r, lhs, [(1, 0)], [kb.Variant("v", 0)], n)


def test_criteria_match_scalar_route():
    # 3x7 in base 2 fails the criterion, so counterexamples are compared too
    for p, A, B, r_max in ((2, 3, 7, 8), (3, 4, 5, 5)):
        want = []
        for r in range(1, r_max + 1):
            n = p ** r - 1
            for a in range(1, n):
                lhs = bracket(A * B * a, p, r) + r * (p - 1)
                rhs = bracket(A * a, p, r) + bracket(B * a, p, r)
                if lhs < rhs:
                    want.append({"x": str(Fraction(a, n)), "lhs": lhs, "rhs": rhs})
        for a in range(A * B):
            x = Fraction(a, A * B)
            lhs = kubert_v(A * B * x, p) + kubert_v(x, p) + kubert_v(-x, p)
            rhs = kubert_v(A * x, p) + kubert_v(B * x, p)
            if lhs < rhs:
                want.append({"x": str(x), "lhs": str(lhs), "rhs": str(rhs)})
        rep = check_criterion_AxB(p, A, B, r_max)
        assert [c.to_json() for c in rep.counterexamples] == want
        assert rep.passed == (p == 3)
