import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hypmono.cyclotomic import (
    CycNumber,
    _galois_matrix,
    _matmul_checked,
    _mul_rows,
    _rows_matrix,
    cyclotomic_polynomial,
    phi,
)
from hypmono.errors import CapExceededError


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)


def _totient(m):
    """#{1 <= k <= m : gcd(k, m) = 1}, counted directly."""
    return int(np.count_nonzero(np.gcd(np.arange(1, m + 1), m) == 1))


def test_phi_is_the_totient():
    for m in range(1, 200):
        assert phi(m) == _totient(m) == len(cyclotomic_polynomial(m)) - 1
    # the order of a full-order character of F_2^20 times p: it stays fast
    m = 2 * (2**20 - 1)
    assert phi(m) == _totient(m) == 480000


def test_roots_of_unity_basic():
    z6 = CycNumber.root_of_unity(6, 1)
    z6_2 = z6 * z6
    z6_3 = z6_2 * z6
    assert z6_3 * z6_3 == 1
    assert z6_3 == CycNumber.from_rational(-1)
    # alignment across orders: zeta_6^2 is zeta_3
    assert z6_2 == CycNumber.root_of_unity(3, 1)
    assert CycNumber.root_of_unity(2, 1) == -1


def _random_value(rng, m):
    e1, e2 = rng.randrange(m), rng.randrange(m)
    c = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    return (CycNumber.root_of_unity(m, e1) * c
            + CycNumber.root_of_unity(m, e2))


def test_ring_axioms_random_triples():
    rng = random.Random(7)
    for m in (3, 4, 6, 12, 30):
        for _ in range(40):
            a, b, c = (_random_value(rng, m) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_galois_is_ring_homomorphism():
    rng = random.Random(11)
    for m, t in ((12, 5), (12, 7), (30, 7), (15, 4)):
        for _ in range(25):
            a, b = _random_value(rng, m), _random_value(rng, m)
            assert (a + b).galois(t) == a.galois(t) + b.galois(t)
            assert (a * b).galois(t) == a.galois(t) * b.galois(t)


def test_galois_contract():
    z15 = CycNumber.root_of_unity(15, 1)
    assert z15.galois(1) == z15
    assert z15.galois(4) == CycNumber.root_of_unity(15, 4)
    rational = CycNumber.from_rational(Fraction(7, 3))
    assert rational.galois(2) == rational
    with pytest.raises(ValueError):
        CycNumber.root_of_unity(6, 1).galois(3)  # gcd(3, 6) != 1


def test_conjugation_and_abs2():
    # complex conjugation is zeta_m -> zeta_m^(m - 1), and |z|^2 is real
    z = CycNumber.root_of_unity(12, 1) + 2
    a2 = z * z.galois(11)
    assert a2 == a2.galois(11)
    # |zeta|^2 = 1 for any root of unity
    zeta = CycNumber.root_of_unity(30, 7)
    assert zeta * zeta.galois(29) == 1


def test_rationality_and_fraction():
    v = CycNumber.root_of_unity(6, 2) + CycNumber.root_of_unity(6, 4) + 1
    # 1 + zeta_3 + zeta_3^2 = 0
    assert v == 0
    w = CycNumber.from_rational(Fraction(5, 3))
    assert (w.order, w.num, w.den) == (1, (5,), 3) and w == Fraction(5, 3)
    z = CycNumber.root_of_unity(5, 1)
    assert any(z.num[1:]) and z != 1


def test_from_exponent_counts_matches_sum():
    counts = [2, 0, 1, 0, 0, 3]
    v = CycNumber.from_exponent_counts(6, counts, den=4)
    manual = (CycNumber.root_of_unity(6, 0) * 2
              + CycNumber.root_of_unity(6, 2)
              + CycNumber.root_of_unity(6, 5) * 3) * Fraction(1, 4)
    assert v == manual


def test_power_basis_rows_are_powers_of_zeta():
    # the direct evaluator and the exact tables both reduce exponent counts
    # through these rows, so C10 cannot see a wrong one: row e must be
    # zeta_m^e on the basis 1, zeta_m, ..., zeta_m^(phi(m) - 1), in floats
    for m in range(1, 61):
        rows = _rows_matrix(m)
        assert rows.shape[0] >= m and rows.shape[1] == phi(m)
        zeta = np.exp(2j * np.pi * np.arange(rows.shape[0]) / m)
        gap = np.abs(rows @ zeta[:rows.shape[1]] - zeta)
        assert (gap <= 1e-12 * np.abs(rows).sum(axis=1)).all(), m


def _value(order, terms, scale=1):
    """sum of c * zeta_order^(e * scale) over the (e, c) in terms"""
    total = CycNumber.from_rational(0)
    for e, c in terms:
        total = total + CycNumber.root_of_unity(order, e * scale, c)
    return total


_terms = st.lists(
    st.tuples(st.integers(0, 60), st.fractions(min_value=-3, max_value=3, max_denominator=5)),
    min_size=1, max_size=4,
)


@given(m=st.integers(1, 18), k=st.integers(1, 3), extra=st.integers(1, 10),
       terms=_terms, other=_terms)
# 1 against zeta_12^0
@example(m=1, k=12, extra=1, terms=[(0, Fraction(1))], other=[(0, Fraction(1))])
def test_equal_values_have_equal_hashes(m, k, extra, terms, other):
    a = _value(m, terms)
    # the same value written over zeta_(mk), then moved up to lcm(mk, extra)
    z = CycNumber.root_of_unity(extra, 1)
    b = (_value(m * k, terms, k) + z) - z
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    if not any(a.num[1:]):
        assert hash(a) == hash(Fraction(a.num[0], a.den))
    c = _value(m, other)
    if a == c:
        assert hash(a) == hash(c)


@given(m=st.integers(1, 30), i=st.integers(0, 7), j=st.integers(0, 7),
       ta=_terms, tb=_terms, tc=_terms)
def test_ring_laws_and_galois_compatibility(m, i, j, ta, tb, tc):
    units = [u for u in range(1, m + 1) if math.gcd(u, m) == 1]
    u, v = units[i % len(units)], units[j % len(units)]
    a, b, c = _value(m, ta), _value(m, tb), _value(m, tc)
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0 == a - a
    # zeta_m -> zeta_m^u is a ring automorphism, and u -> sigma_u a homomorphism
    assert (a + b).galois(u) == a.galois(u) + b.galois(u)
    assert (a * b).galois(u) == a.galois(u) * b.galois(u)
    assert a.galois(u).galois(v) == a.galois(u * v % m or 1)  # m = 1: the unit 1
    assert a.galois(u).to_complex() == pytest.approx(
        sum(complex(w) * np.exp(2j * np.pi * e * u / m) for e, w in ta), abs=1e-9)


def test_from_exponent_counts_refuses_int64_overflow():
    # zeta_3^2 = -1 - zeta_3, so the constant coordinate would be 2^62 + 2^62
    with pytest.raises(CapExceededError):
        CycNumber.from_exponent_counts(3, [1 << 62, 0, -(1 << 62)])
    half = CycNumber.from_exponent_counts(3, [1 << 61, 0, -(1 << 61)])
    assert half == CycNumber.from_exponent_counts(3, [1 << 62, 1 << 61])


def test_eq_and_arithmetic_refuse_what_is_not_a_number():
    z = CycNumber.root_of_unity(6, 1)
    half = CycNumber.from_rational(Fraction(1, 2))
    assert z != None and z != "a" and z in [None, z] and None not in [z]  # noqa: E711
    # equal values have equal hashes: "1/2" is not the rational 1/2
    assert half != "1/2" and hash(half) != hash("1/2")
    assert half == 0.5 == Fraction(1, 2) and hash(half) == hash(0.5)
    assert half != float("nan")
    for bad in (None, "a", "1/2", [1]):
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
            with pytest.raises(TypeError):
                op(z, bad)
            with pytest.raises(TypeError):
                op(bad, z)


_ARRAY_ORDERS = (1, 2, 3, 4, 6, 12, 15, 28, 30)


@given(m=st.sampled_from(_ARRAY_ORDERS), n=st.integers(1, 4), data=st.data())
def test_power_basis_helpers_match_cycnumber(m, n, data):
    # the array helpers against CycNumber.galois and CycNumber.__mul__,
    # row by row; with den 1 a CycNumber keeps its numerators as given
    deg = phi(m)
    coords = st.lists(st.integers(-(1 << 20), 1 << 20), min_size=deg, max_size=deg)
    x, y = (np.array(data.draw(st.lists(coords, min_size=n, max_size=n)),
                     dtype=np.int64).reshape(n, deg) for _ in range(2))
    product = _mul_rows(x, y, m)
    units = [a for a in range(1, m + 1) if math.gcd(a, m) == 1]
    moved = {a: x @ _galois_matrix(m, a) for a in units}
    for i in range(n):
        a_i, b_i = CycNumber(m, tuple(x[i].tolist())), CycNumber(m, tuple(y[i].tolist()))
        assert tuple(product[i].tolist()) == (a_i * b_i).num
        for a in units:
            assert tuple(moved[a][i].tolist()) == a_i.galois(a).num


def test_power_basis_helpers_guard_int64_per_row():
    # on Q(zeta_3) every reduced power has entries of size at most 1
    x = np.array([[1 << 31, 0]])
    assert _mul_rows(x, x, 3).tolist() == [[1 << 62, 0]]
    with pytest.raises(CapExceededError):
        _mul_rows(2 * x, x, 3)  # 2^63 would wrap
    conj = _galois_matrix(3, 2)
    # each row's sum |x| stays below 2^63 though the whole array's does not
    rows = np.array([[1 << 61, 1 << 61], [-(1 << 61), (1 << 61) + 5]])
    assert _matmul_checked(rows, conj, "test").tolist() == [
        [0, -(1 << 61)], [-(1 << 62) - 5, -(1 << 61) - 5]]
    with pytest.raises(CapExceededError):
        _matmul_checked(np.array([[1 << 62, -(1 << 62)]]), conj, "test")
