"""Gauss sums of finite fields, indexed by character exponent.

A multiplicative character is its exponent e against the fixed field
generator g: chi_e(g^a) = zeta_{q-1}^(e*a).  The additive character is the
canonical psi(x) = zeta_p^Tr(x).  In these log coordinates the q - 1 Gauss
sums G(e) = g(psi, chi_e) = sum_a psi(g^a) zeta_{q-1}^(e*a) are one DFT of
psi o antilog: `gauss_sums` computes them with a bound on their error and
is the one source of float Gauss sums.  The exact `gauss_sum(field, e)`
counts exponents instead, below the cap EXACT_PHI_CAP on its degree, and is
the reference the DFT is tested against; both take the same e.  `_fft_eta`
and `_times` are the error rules of every certified float bound, here and
in `exp_sums`.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclotomic import EXACT_PHI_CAP, CycNumber, phi
from .errors import CapExceededError
from .finite_field import FieldTable

__all__ = ["gauss_sums", "gauss_sum"]


_U = 2.0 ** -53  # unit roundoff of float64
# the error allowed per rounded entry or product: 2^-50, eight unit roundoffs
_EPS = 2.0 ** -50


def _fft_eta(n: int) -> float:
    """Normwise relative error bound of one pocketfft transform of length n.

    Model (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 24.2, generalised from radix 2 to mixed radix): the transform is a
    product of scaled unitary passes, one per prime factor r of n counted
    with multiplicity; a radix-r pass forms each output as a sum of r
    products with rounded twiddle factors, so its normwise relative error
    is at most (sqrt(r) + 2) * gamma_(r+4), gamma_k = k u / (1 - k u), and
    the pass errors add.  Where pocketfft may switch to Bluestein's
    algorithm (n >= 50 with a prime factor r, r^2 > n), the transform is
    also counted as three transforms of an 11-smooth length N <= 4n (at
    most log2(4n) passes of radix <= 11) plus three chirp products, and the
    larger of the two bounds is used.
    """
    def gamma(k):
        return k * _U / (1 - k * _U)

    direct, rest, r, largest = 0.0, n, 2, 1
    while rest > 1:
        if r * r > rest:
            r = rest
        while rest % r == 0:
            direct += (math.sqrt(r) + 2) * gamma(r + 4)
            rest //= r
            largest = r
        r += 1
    if n < 50 or largest * largest <= n:
        return direct
    bluestein = (3 * math.log2(4 * n) * (math.sqrt(11) + 2) * gamma(15)
                 + 3 * gamma(4))
    return max(direct, bluestein)


def _times(a: np.ndarray, a_err: float, b: np.ndarray, b_err: float):
    """a * b and a bound on the 2-norm of its error, from bounds a_err and
    b_err on those of a and b: with a~ = a + da and b~ = b + db,
    a~ b~ - a b = a~ db + da b, and max|b| <= max|b~| + b_err; _EPS per
    entry covers the rounding of the complex products."""
    prod = a * b
    err = (float(np.abs(a).max()) * b_err
           + a_err * (float(np.abs(b).max()) + b_err)
           + _EPS * float(np.linalg.norm(prod)))
    return prod, err


def gauss_sums(field: FieldTable) -> tuple[np.ndarray, float]:
    """All q - 1 Gauss sums G(e) = g(psi_K, chi_e), e = 0 .. q-2, as one DFT
    of psi o antilog, with a bound on the 2-norm of their error (which also
    bounds the error of each entry).

    Each entry of psi o antilog is a rounded root of unity, off by at most
    _EPS.  The exact DFT of n = q - 1 entries of modulus 1 has 2-norm n, so
    the rounded input adds at most n _EPS to the 2-norm error, the
    transform at most n eta / (1 - eta) with eta = _fft_eta(n), and the
    scalings by 1/n and n together at most another n _EPS.
    """
    n, p = field.q - 1, field.p
    zp = np.exp(2j * np.pi * np.arange(p) / p)
    values = np.fft.ifft(zp[field.trace_powers()])
    values *= n
    eta = _fft_eta(n)
    return values, n * (eta / (1 - eta) + 2 * _EPS)


def gauss_sum(field: FieldTable, e: int) -> CycNumber:
    """G(e) = g(psi_K, chi_e), the entry `gauss_sums(field)[e]`, exactly in
    Q(zeta_m), m = lcm(p, d) with d the order of chi_e.  Raises
    CapExceededError when phi(m) exceeds EXACT_PHI_CAP; `gauss_sums` gives
    every Gauss sum of a field in floats."""
    n, p = field.q - 1, field.p
    e %= n
    d = n // math.gcd(e, n)
    m = math.lcm(p, d)
    deg = phi(m)
    if deg > EXACT_PHI_CAP:
        raise CapExceededError(
            f"an exact Gauss sum in degree phi = {deg} exceeds the cap {EXACT_PHI_CAP}"
        )
    logs = np.arange(n, dtype=np.int64)
    tr = field.trace_powers()
    chi_exp = ((e * logs) % n) * d // n
    counts = np.bincount((tr * (m // p) + chi_exp * (m // d)) % m, minlength=m)
    return CycNumber.from_exponent_counts(m, counts)
