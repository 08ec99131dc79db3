import math

import pytest

from hypmono.characters import (
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
    field = build_field(2, 10)
    psi = AddChar(field)
    for e in (1, 3, 11):
        g = gauss_sum(psi, MultChar(field, e), mode="float")
        assert g.mode == "float"
        assert abs(abs(g.to_complex()) ** 2 - field.q) <= 1e-9 * field.q


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


@pytest.mark.parametrize("p, k", [(2, k) for k in range(1, 7)]
                         + [(3, k) for k in range(1, 5)])
def test_gauss_dft_matches_exact_gauss_sums(p, k):
    # every character of every field up to 2^6 and 3^4, within the bound
    field = build_field(p, k)
    values, err = gauss_sums(field)
    psi = AddChar(field)
    for e in range(field.q - 1):
        exact = gauss_sum(psi, MultChar(field, e), mode="exact")
        assert CycNumber.from_complex(values[e], err).approx_eq(exact, tol=0.0)


def test_auto_mode_switches_to_float():
    # a full-order character over F_2^10 needs phi(lcm(2, 1023)) = 600 > cap
    field = build_field(2, 10)
    g = gauss_sum(AddChar(field), MultChar(field, 1))
    assert g.mode == "float"
    assert math.isclose(abs(g.to_complex()) ** 2, field.q, rel_tol=1e-9)


def test_exact_gauss_sum_refuses_beyond_cap():
    # phi(lcm(2, 1023)) = 600 > EXACT_PHI_CAP: exact mode raises, auto floats
    field = build_field(2, 10)
    psi, chi = AddChar(field), MultChar(field, 1)
    with pytest.raises(CapExceededError):
        gauss_sum(psi, chi, mode="exact")
    assert gauss_sum(psi, chi).mode == "float"


def test_exact_float_paths_agree_per_field():
    # 1000 random character-value products and sums per field, exact vs float
    import random

    rng = random.Random(17)
    for p, k in ((2, 4), (2, 6), (3, 2), (3, 3)):
        field = build_field(p, k)
        n = field.q - 1
        psi = AddChar(field)
        for _ in range(1000):
            chi = MultChar(field, rng.randrange(n))
            x = int(field.antilog[rng.randrange(n)])
            y = int(field.antilog[rng.randrange(n)])
            exact = _chi(chi, x) * _psi(psi, y) + _chi(chi, y)
            approx = (
                CycNumber.from_complex(_chi(chi, x).to_complex())
                * CycNumber.from_complex(_psi(psi, y).to_complex())
                + CycNumber.from_complex(_chi(chi, y).to_complex())
            )
            assert approx.approx_eq(CycNumber.from_complex(exact.to_complex()),
                                    tol=1e-9)
