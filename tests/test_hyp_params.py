import math
import random
from fractions import Fraction

import pytest

from hypmono.finite_field import _prime_factors
from hypmono.hyp_params import (
    BelyiMatch,
    HypSpec,
    belyi_induction_match,
    build_Atimes,
    build_AxB,
    classification_report,
    det_product_check,
    inertia_model,
    kummer_induction_candidates,
    primitivity_verdict,
    _is_prime,
    build_spec,
    selfdual_test,
)


def test_is_prime_matches_trial_division_and_refuses_pseudoprimes():
    assert [n for n in range(-3, 1 << 15) if _is_prime(n)] == [
        n for n in range(2, 1 << 15) if _prime_factors(n) == [n]]
    # strong pseudoprimes to the prime bases up to 7, 23 and 37, a
    # Carmichael number, and primes far beyond trial division
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 561):
        assert not _is_prime(n)
    for n in (10 ** 18 + 3, 2 ** 61 - 1, 2 ** 89 - 1):
        assert _is_prime(n)
    assert build_spec("AxB", 10 ** 18 + 3, 3, 5).p == 10 ** 18 + 3
    with pytest.raises(ValueError, match="not a prime"):
        build_spec("Atimes", 2047, 7)  # 23 * 89, a strong pseudoprime to base 2


def test_build_axb_counts():
    spec = build_AxB(2, 3, 13)
    assert (spec.n, spec.m) == (24, 1)
    assert len(set(spec.upstairs)) == 24  # no repeats
    assert spec.downstairs == (0,)
    spec2 = build_AxB(3, 4, 5)
    assert (spec2.n, spec2.m) == (12, 1)
    with pytest.raises(ValueError):
        build_AxB(2, 4, 6)  # not coprime
    with pytest.raises(ValueError):
        build_AxB(3, 3, 5)  # A divisible by p


def test_build_atimes_counts():
    spec = build_Atimes(3, 28)
    assert spec.n == 12
    spec7 = build_Atimes(2, 7)
    assert spec7.n == 6
    # units are closed under negation
    assert sorted((-r) % 28 for r in spec.upstairs) == list(spec.upstairs)


def test_disjointness_enforced():
    with pytest.raises(ValueError):
        HypSpec(2, 15, (0, 1, 2), (0,))


def test_kummer_empty_for_main_families():
    assert kummer_induction_candidates(build_AxB(2, 3, 13)) == []
    assert kummer_induction_candidates(build_AxB(3, 4, 5)) == []
    assert kummer_induction_candidates(build_Atimes(3, 28)) == []


def test_kummer_detects_synthetic_stability():
    # all residues mod 6 upstairs, nothing downstairs: stable under every
    # shift, so every N dividing 6 and prime to p is a candidate
    spec = HypSpec(5, 6, (0, 1, 2, 3, 4, 5), ())
    assert kummer_induction_candidates(spec) == [2, 3, 6]
    # a shifted copy of the same multiset keeps the stability
    shifted = HypSpec(5, 6, tuple((r + 1) % 6 for r in range(6)), ())
    assert kummer_induction_candidates(shifted) == [2, 3, 6]
    # candidates divisible by p never survive: with M prime to p, a lifted
    # multiset cannot be stable under a shift of p-power order, and the
    # explicit filter enforces the precondition regardless
    spec4 = HypSpec(3, 4, (0, 1, 2, 3), ())
    assert kummer_induction_candidates(spec4) == [2, 4]


def _kummer_by_lifting(spec):
    """The candidates by definition: lift both multisets to the lcm(M, N)
    lattice and test the shift by every j/N, 0 < j < N."""
    limit = spec.n if spec.m == 0 else math.gcd(spec.n, spec.m)
    out = []
    for N in range(2, limit + 1):
        if limit % N or N % spec.p == 0:
            continue
        L = math.lcm(spec.M, N)
        sides = [sorted(r * (L // spec.M) for r in side)
                 for side in (spec.upstairs, spec.downstairs)]
        if all(sorted((r + j * (L // N)) % L for r in side) == side
               for side in sides for j in range(1, N)):
            out.append(N)
    return out


def _random_specs(seed, count):
    """Random specs, half of them unions of cosets of the shifts by 1/d
    for a random d | M, upstairs cosets sometimes repeated."""
    rng = random.Random(seed)
    while count:
        p = rng.choice([2, 3, 5, 7])
        M = rng.choice([m for m in range(2, 41) if m % p])
        if rng.random() < 0.5:
            d = rng.choice([d for d in range(1, M + 1) if M % d == 0])
            step = M // d
            cosets = [[(s + j * step) % M for j in range(d)]
                      for s in rng.sample(range(step), min(step, rng.randint(1, 4)))]
            k = rng.randint(1, len(cosets))
            up, down = sum(cosets[:k], []) * rng.choice([1, 1, 2]), sum(cosets[k:], [])
        else:
            up = rng.sample(range(M), rng.randint(1, M))
            down = rng.sample(sorted(set(range(M)) - set(up)), rng.randint(0, M - len(up)))
        try:
            spec = HypSpec(p, M, tuple(up), tuple(down))
        except ValueError:
            continue
        count -= 1
        yield spec


def test_kummer_matches_the_lifted_definition():
    # one shift by 1/N generates the shifts by every j/N; a spec stable
    # under 2/N alone (N even) is no candidate
    specs = list(_random_specs(1919, 1500))
    want = [_kummer_by_lifting(spec) for spec in specs]
    assert [kummer_induction_candidates(spec) for spec in specs] == want
    assert sum(map(bool, want)) * 3 >= len(specs)
    assert any(N % 2 == 0 for got in want for N in got)


def test_belyi_empty_for_main_families():
    assert belyi_induction_match(build_AxB(2, 3, 13)) == []
    assert belyi_induction_match(build_AxB(3, 4, 5)) == []
    assert belyi_induction_match(build_Atimes(3, 28)) == []


def _split_covering_spec() -> HypSpec:
    """The split-covering shape with exponents (3, 5) in char 2: upstairs
    the cube roots of 1/3 and fifth roots of 1/5, downstairs the unique
    eighth division of their product 8/15."""
    up = [Fraction(1 + 3 * j, 9) for j in range(3)]
    up += [Fraction(1 + 5 * j, 25) for j in range(5)]
    tau = Fraction((8 * pow(8, -1, 15)) % 15, 15)
    M = 225
    return HypSpec(2, M, tuple(int(f * M) % M for f in up), (int(tau * M) % M,))


def test_belyi_roundtrip_synthetic():
    lam, sigma = Fraction(1, 3), Fraction(1, 5)
    spec = _split_covering_spec()
    matches = belyi_induction_match(spec)
    assert any(
        m.case == "a" and {m.A, m.B} == {3, 5} and {m.lam, m.sigma} == {lam, sigma}
        for m in matches
    )
    verdict = primitivity_verdict(spec)
    assert verdict["primitivity"] == "INCONCLUSIVE"  # rank 8 = 2^3, candidates found
    assert verdict["belyi"]


def test_primitivity_not_induced():
    for spec in (build_AxB(2, 3, 13), build_AxB(3, 4, 5), build_Atimes(3, 28)):
        verdict = primitivity_verdict(spec)
        assert verdict["primitivity"] == "NOT_INDUCED"
        assert verdict["kummer"] == [] and verdict["belyi"] == []
        assert verdict["tensor_indecomposable_hypotheses"]


def test_selfdual():
    assert selfdual_test(build_AxB(2, 3, 13)) == "orthogonal"
    assert selfdual_test(build_AxB(3, 4, 5)) == "none"
    assert selfdual_test(build_Atimes(3, 28)) == "none"
    # negation stability holds for both families
    for spec in (build_AxB(2, 3, 13), build_AxB(3, 4, 5)):
        up = list(spec.upstairs)
        assert sorted((-r) % spec.M for r in up) == up
    # a non-symmetric multiset is never self-dual
    lopsided = HypSpec(2, 7, (1, 2, 4), ())
    assert selfdual_test(lopsided) == "none"


def test_det_product():
    assert det_product_check(build_AxB(2, 3, 13))
    assert det_product_check(build_AxB(3, 4, 5))
    assert det_product_check(build_Atimes(3, 28))
    assert not det_product_check(HypSpec(2, 5, (1,), ()))


def test_inertia_models():
    m1 = inertia_model(build_AxB(2, 3, 13))
    assert (m1["N"], m1["f"], m1["group"]) == (23, 11, "C2^11 : C23")
    assert m1["product_case"] == "trivial" and m1["hypothesis_met"]
    m2 = inertia_model(build_AxB(3, 4, 5))
    assert (m2["N"], m2["f"], m2["group"]) == (11, 5, "C3^5 : C11")
    m3 = inertia_model(build_Atimes(3, 28))
    assert (m3["N"], m3["f"], m3["group"]) == (11, 5, "C3^5 : C11")
    # f is minimal
    for m, p in ((m1, 2), (m2, 3)):
        assert all(pow(p, d, m["N"]) != 1 for d in range(1, m["f"]))
        assert pow(p, m["f"], m["N"]) == 1
    with pytest.raises(ValueError):
        inertia_model(HypSpec(2, 15, (1, 2), ()))  # N = 2 divisible by p


def test_classification_report_shape():
    report = classification_report(build_AxB(2, 3, 13), "3x13", {"A": 3, "B": 13})
    assert report["primitivity"] == "NOT_INDUCED"
    assert report["selfdual"] == "orthogonal"
    assert report["det_trivial"] is True
    assert report["inertia"] == {
        "N": 23, "f": 11, "group": "C2^11 : C23",
        "product_case": "trivial", "hypothesis_met": True,
    }
    assert report["n"] == 24 and report["m"] == 1


def test_kummer_empty_for_more_axb_pairs():
    # a single trivial downstairs character forces the candidate list empty
    for p, A, B in ((2, 3, 5), (2, 5, 9), (3, 4, 7), (3, 5, 7), (2, 7, 9)):
        assert kummer_induction_candidates(build_AxB(p, A, B)) == []


def _fiber(target, k):
    return [Fraction(target.numerator + j * target.denominator,
                     target.denominator * k) for j in range(k)]


def test_belyi_roundtrip_wild_cases():
    # one covering exponent carries the wild part: exponents (3, 4) in
    # char 2 with d0 = 1, so seven upstairs characters (the 7th division
    # of the product) and four downstairs ones
    lam, sigma = Fraction(1, 3), Fraction(1, 5)
    prod = lam + sigma  # 8/15
    up = _fiber(prod, 7)
    down = _fiber(lam, 3) + [Fraction(4, 5)]  # sigma / 2^2 in Q/Z
    M = 315
    spec = HypSpec(
        2, M,
        tuple(int(f * M) % M for f in up),
        tuple(int(f * M) % M for f in down),
    )
    matches = belyi_induction_match(spec)
    cases = {m.case for m in matches}
    # the same residue data matches the two mirror-image shapes
    assert "b" in cases and "c" in cases
    mb = next(m for m in matches if m.case == "b")
    assert (mb.A, mb.B, mb.d0, mb.r) == (3, 4, 1, 2)
    assert (mb.lam, mb.sigma) == (lam, sigma)
    mc = next(m for m in matches if m.case == "c")
    assert (mc.A, mc.B, mc.d0, mc.r) == (4, 3, 1, 2)
    assert (mc.lam, mc.sigma) == (sigma, lam)
    assert primitivity_verdict(spec)["primitivity"] == "INCONCLUSIVE"


def _case_a_reference(spec: HypSpec) -> list[BelyiMatch]:
    """Case (a) of the Belyi search with every (lambda, sigma) pair tested
    in full: A + B = d0 p^r = n, the A-th roots of lambda and B-th roots of
    sigma are the upstairs multiset, the d0-th roots of the p^r-division
    of lambda + sigma the downstairs one."""
    p, n, d0 = spec.p, spec.n, spec.m
    up, down = spec.as_fractions()
    up_sorted, down_sorted = sorted(up), sorted(down)
    out = []
    pr, r = p, 1
    while d0 % p and d0 * pr <= n:
        if d0 * pr == n:
            for A in range(1, n):
                B = n - A
                if A % p == 0 or B % p == 0:
                    continue
                for lam in sorted({A * u % 1 for u in up}):
                    lam_fiber = _fiber(lam, A)
                    for sigma in sorted({B * u % 1 for u in up}):
                        if sorted(lam_fiber + _fiber(sigma, B)) != up_sorted:
                            continue
                        prod = (lam + sigma) % 1
                        d = prod.denominator
                        tau = Fraction(prod.numerator * pow(p, -r, d) % d, d)
                        if sorted(_fiber(tau, d0)) == down_sorted:
                            out.append(BelyiMatch("a", A, B, r, d0, lam, sigma))
        pr *= p
        r += 1
    return out


@pytest.mark.parametrize("spec", [build_AxB(2, 5, 9), build_AxB(2, 3, 17), _split_covering_spec()])
def test_belyi_case_a_matches_unfiltered_search(spec):
    # the search keeps only the lambda and sigma whose fibres fit upstairs
    expected = _case_a_reference(spec)
    assert [m for m in belyi_induction_match(spec) if m.case == "a"] == expected
