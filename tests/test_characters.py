import math

import pytest

from hypmono import characters
from hypmono.characters import (
    _EPS,
    AddChar,
    MultChar,
    gauss_sum,
    gauss_sums,
    hasse_davenport_lift_check,
)
from hypmono.cyclotomic import CycNumber
from hypmono.errors import CapExceededError
from hypmono.finite_field import build_field


def _chi(chi, x):
    """chi(x) as an exact root of unity."""
    return CycNumber.root_of_unity(chi.order, chi.value_exponent(x))


def _psi(psi, x):
    """psi(x) as an exact root of unity."""
    return CycNumber.root_of_unity(psi.field.p, psi.value_exponent(x))


def test_char_order_and_group_law():
    f16 = build_field(2, 4)
    chi = MultChar(f16, 5)  # order 3
    assert chi.order == 3
    assert (chi * chi).exponent == 10
    assert chi.conjugate().exponent == 10
    assert (chi ** 3).is_trivial
    assert MultChar(f16, 0).order == 1


def test_eval_add_examples():
    f4 = build_field(2, 2)
    psi = AddChar(f4)
    assert _psi(psi, 0) == 1
    assert _psi(psi, f4.generator) == -1  # Tr(w) = 1
    f9 = build_field(3, 2)
    assert {AddChar(f9).value_exponent(x) for x in range(9)} == {0, 1, 2}


def test_eval_mult_examples():
    f4 = build_field(2, 2)
    trivial = MultChar(f4, 0)
    for x in (1, 2, 3):
        assert _chi(trivial, x) == 1
    cubic = MultChar(f4, 1)
    assert _chi(cubic, f4.generator) == CycNumber.root_of_unity(3, 1)
    assert _chi(cubic, 1) == 1
    with pytest.raises(ValueError):
        cubic.value_exponent(0)


def test_orthogonality():
    for p, k in ((2, 2), (2, 4), (2, 6), (3, 2), (3, 3)):
        field = build_field(p, k)
        n = field.q - 1
        for e in range(1, n):
            chi = MultChar(field, e)
            total = CycNumber.zero(chi.order)
            for x in field.units():
                total = total + _chi(chi, int(x))
            assert total == 0
        # sum over all characters of chi(x) = (q-1) [x = 1]
        for x in (1, int(field.generator)):
            total = CycNumber.zero(1)
            for e in range(n):
                total = total + _chi(MultChar(field, e), x)
            assert total == (n if x == 1 else 0)


def test_gauss_sum_trivial_char():
    for p, k in ((2, 3), (3, 2)):
        field = build_field(p, k)
        g = gauss_sum(AddChar(field), MultChar(field, 0))
        assert g == -1


def test_gauss_sum_norm_small_fields_exhaustive():
    # exact-mode check |g|^2 = q for every nontrivial character
    for p, kmax in ((2, 6), (3, 4)):
        for k in range(1, kmax + 1):
            field = build_field(p, k)
            n = field.q - 1
            psi = AddChar(field)
            for e in range(1, n):
                assert gauss_sum(psi, MultChar(field, e)).abs2() == field.q


@pytest.mark.parametrize("p,k,exps", [(2, 7, (1, 5, 127 // 7)), (2, 8, (1, 3, 5, 17, 85))])
def test_gauss_sum_norm_boundary_sampled(p, k, exps):
    # the exact-mode cap boundary (q = 128, 256), sampled for runtime
    field = build_field(p, k)
    psi = AddChar(field)
    for e in exps:
        assert gauss_sum(psi, MultChar(field, e)).abs2() == field.q


def test_gauss_sum_float_beyond_cap():
    # |g| = sqrt(q) for nontrivial chi, and the DFT entries are off by <= err
    field = build_field(2, 10)
    values, err = gauss_sums(field)
    for e in (1, 3, 11):
        assert abs(abs(values[e]) - math.sqrt(field.q)) <= err


def test_gauss_sum_conjugation_identity():
    # g(psi, conj(chi)) = chi(-1) * conj(g(psi, chi))
    for p, k in ((2, 4), (3, 2), (3, 3)):
        field = build_field(p, k)
        psi = AddChar(field)
        n = field.q - 1
        for e in range(1, n):
            chi = MultChar(field, e)
            lhs = gauss_sum(psi, chi.conjugate())
            sign = _chi(chi, field.neg(1))
            assert lhs == sign * gauss_sum(psi, chi).conjugate()


def test_hasse_davenport():
    f4 = build_field(2, 2)
    # degree-1 extension is trivially true
    assert hasse_davenport_lift_check(f4, f4, MultChar(f4, 1))
    f16 = build_field(2, 4)
    assert hasse_davenport_lift_check(f4, f16, MultChar(f4, 1))
    f3, f9 = build_field(3, 1), build_field(3, 2)
    assert hasse_davenport_lift_check(f3, f9, MultChar(f3, 1))
    f81 = build_field(3, 4)
    for e in range(1, 8):
        assert hasse_davenport_lift_check(f9, f81, MultChar(f9, e))
    with pytest.raises(ValueError):
        hasse_davenport_lift_check(f16, f4, MultChar(f16, 1))
    # float mode reads both sides from the Gauss DFT of each field, so
    # this ties the DFTs of a field and of its subfields together, here
    # also beyond the exact-mode sizes
    for p, k0, ks in ((2, 1, (3, 8)), (2, 2, (4, 6, 12)), (2, 3, (6, 12)),
                      (3, 1, (2, 5)), (3, 2, (4, 8))):
        sub = build_field(p, k0)
        for k in ks:
            field = build_field(p, k)
            for e in range(sub.q - 1):
                assert hasse_davenport_lift_check(sub, field, MultChar(sub, e),
                                                  mode="float")
    with pytest.raises(ValueError):
        hasse_davenport_lift_check(f4, f16, MultChar(f4, 1), mode="auto")


def test_hasse_davenport_float_refuses_a_mismatched_character(monkeypatch):
    # chi0 o Norm replaced by a character that is no Frobenius conjugate of
    # it: the Gauss sums differ, and both routes say so
    f4, f16 = build_field(2, 2), build_field(2, 4)
    chi0 = MultChar(f4, 1)
    wrong = MultChar(f16, characters.lifted_char(f16, f4, chi0).exponent + 1)
    monkeypatch.setattr(characters, "lifted_char", lambda field, sub, chi: wrong)
    assert not hasse_davenport_lift_check(f4, f16, chi0, mode="float")
    assert not hasse_davenport_lift_check(f4, f16, chi0, mode="exact")


@pytest.mark.parametrize("p, k", [(2, k) for k in range(1, 7)]
                         + [(3, k) for k in range(1, 5)])
def test_gauss_dft_matches_exact_gauss_sums(p, k):
    # every character of every field up to 2^6 and 3^4, within the bound
    field = build_field(p, k)
    values, err = gauss_sums(field)
    psi = AddChar(field)
    for e in range(field.q - 1):
        exact = gauss_sum(psi, MultChar(field, e))
        # to_complex sums len(num) rounded terms of modulus |c| / den
        ref_err = _EPS * (len(exact.num) + 1) * sum(map(abs, exact.num)) / exact.den
        assert abs(values[e] - exact.to_complex()) <= err + ref_err


def test_exact_gauss_sum_refuses_beyond_cap():
    # phi(lcm(2, 1023)) = 600 > EXACT_PHI_CAP
    field = build_field(2, 10)
    with pytest.raises(CapExceededError):
        gauss_sum(AddChar(field), MultChar(field, 1))
