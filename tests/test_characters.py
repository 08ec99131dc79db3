import math
from functools import cache

import pytest

from hypmono.characters import _EPS, _times, gauss_sum, gauss_sums
from hypmono.cyclotomic import CycNumber
from hypmono.errors import CapExceededError
from hypmono.finite_field import build_field


def test_gauss_sum_trivial_char():
    for p, k in ((2, 3), (3, 2)):
        assert gauss_sum(build_field(p, k), 0) == -1


def test_gauss_sum_norm_small_fields_exhaustive():
    # exact check |g|^2 = q for every nontrivial character
    for p, kmax in ((2, 6), (3, 4)):
        for k in range(1, kmax + 1):
            field = build_field(p, k)
            for e in range(1, field.q - 1):
                g = gauss_sum(field, e)
                assert g * g.galois(g.order - 1) == field.q


@pytest.mark.parametrize("p,k,exps", [(2, 7, (1, 5, 127 // 7)), (2, 8, (1, 3, 5, 17, 85))])
def test_gauss_sum_norm_boundary_sampled(p, k, exps):
    # the exact cap boundary (q = 128, 256), sampled for runtime
    field = build_field(p, k)
    for e in exps:
        g = gauss_sum(field, e)
        assert g * g.galois(g.order - 1) == field.q


def test_gauss_sum_float_beyond_cap():
    # |g| = sqrt(q) for nontrivial chi, and the DFT entries are off by <= err
    field = build_field(2, 10)
    values, err = gauss_sums(field)
    for e in (1, 3, 11):
        assert abs(abs(values[e]) - math.sqrt(field.q)) <= err


def test_gauss_sum_conjugation_identity():
    # G(-e) = chi_e(-1) conj(G(e)), chi_e(-1) = zeta_n^(e log(-1))
    for p, k in ((2, 4), (3, 2), (3, 3)):
        field = build_field(p, k)
        n = field.q - 1
        h = int(field.log[field.neg(1)])
        for e in range(1, n):
            sign = CycNumber.root_of_unity(n, e * h % n)
            g = gauss_sum(field, e)
            assert gauss_sum(field, -e) == sign * g.galois(g.order - 1)


# ----------------------------------------------------------------------
# Hasse-Davenport: -G_K(chi0 o Norm) = (-G_k0(chi0))^d for K over k0 of
# degree d, psi_K = psi_k0 o Tr being the canonical characters of both

def _lifted_exponents(sub, field, e0):
    """The exponents e of chi_e = chi_e0 o Norm, one per root of sub's
    modulus in field: such a root is g^(step j), step = (q - 1)/(q0 - 1),
    and stands for the class of t in sub, so Norm(g) = g^step is sub's
    generator to the power 1/j mod q0 - 1.  The roots are Frobenius
    conjugates, which leave a Gauss sum unchanged, so every e must do."""
    n, n0 = field.q - 1, sub.q - 1
    assert field.p == sub.p and field.k % sub.k == 0
    step = n // n0
    out = []
    for j in range(n0):
        x, acc = int(field.antilog[j * step]), 0
        for c in reversed(sub.modulus):
            acc = field.add(field.mul(acc, x), c)
        if acc == 0:
            out.append(e0 * pow(j, -1, n0) * step % n)
    assert len(out) == sub.k
    return out


def _hd_exact(sub, field, e0, e):
    d = field.k // sub.k
    return -gauss_sum(field, e) == math.prod([-gauss_sum(sub, e0)] * d)


@cache
def _dft(p, k):
    return gauss_sums(build_field(p, k))


def _hd_float(sub, field, e0, e):
    """Both sides from the Gauss DFT of each field, within the sum of their
    bounds, the d-th power bounded factor by factor with `_times`."""
    top, top_err = _dft(field.p, field.k)
    bot, bot_err = _dft(sub.p, sub.k)
    base = -bot[e0:e0 + 1]
    power, power_err = base, bot_err
    for _ in range(field.k // sub.k - 1):
        power, power_err = _times(power, power_err, base, bot_err)
    return bool(abs(top[e] + power[0]) <= top_err + power_err)


def test_hasse_davenport():
    for (p, k0), ks, e0s in (((2, 2), (2, 4), (1,)), ((3, 1), (2,), (1,)),
                             ((3, 2), (4,), range(1, 8))):
        sub = build_field(p, k0)
        for k in ks:
            field = build_field(p, k)
            for e0 in e0s:
                for e in _lifted_exponents(sub, field, e0):
                    assert _hd_exact(sub, field, e0, e)
    # in floats this ties the DFTs of a field and of its subfields
    # together, also beyond the exact sizes
    for p, k0, ks in ((2, 1, (3, 8)), (2, 2, (4, 6, 12)), (2, 3, (6, 12)),
                      (3, 1, (2, 5)), (3, 2, (4, 8))):
        sub = build_field(p, k0)
        for k in ks:
            field = build_field(p, k)
            for e0 in range(sub.q - 1):
                for e in _lifted_exponents(sub, field, e0):
                    assert _hd_float(sub, field, e0, e)


def test_hasse_davenport_float_refuses_a_mismatched_character():
    # a character that is no Frobenius conjugate of chi0 o Norm: the Gauss
    # sums differ, and both routes say so
    f4, f16 = build_field(2, 2), build_field(2, 4)
    wrong = _lifted_exponents(f4, f16, 1)[0] + 1
    assert not _hd_float(f4, f16, 1, wrong)
    assert not _hd_exact(f4, f16, 1, wrong)


@pytest.mark.parametrize("p, k", [(2, k) for k in range(1, 7)]
                         + [(3, k) for k in range(1, 5)])
def test_gauss_dft_matches_exact_gauss_sums(p, k):
    # every character of every field up to 2^6 and 3^4, within the bound
    field = build_field(p, k)
    values, err = gauss_sums(field)
    for e in range(field.q - 1):
        exact = gauss_sum(field, e)
        # to_complex sums len(num) rounded terms of modulus |c| / den
        ref_err = _EPS * (len(exact.num) + 1) * sum(map(abs, exact.num)) / exact.den
        assert abs(values[e] - exact.to_complex()) <= err + ref_err


def test_exact_gauss_sum_refuses_beyond_cap():
    # phi(lcm(2, 1023)) = 600 > EXACT_PHI_CAP
    with pytest.raises(CapExceededError):
        gauss_sum(build_field(2, 10), 1)
