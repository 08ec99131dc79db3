"""Exact arithmetic with roots of unity.

A CycNumber is an exact element of Q(zeta_m), stored as a rational
coefficient vector on the power basis 1, zeta, ..., zeta^(phi(m)-1) reduced
mod the m-th cyclotomic polynomial.  Its operations are +, -, * and
negation, the Galois action zeta_m -> zeta_m^a (`galois`), the embedding
into a larger order (`lift`), `to_complex`, and == with a hash that equal
values share, rationals included.  Values of different orders are aligned
through the canonical embedding Q(zeta_m) -> Q(zeta_lcm) before combining.
A table of values is an (n, phi(m)) int64 array of numerators on that basis
over one denominator (`exp_sums.TraceTable`), which the array helpers reduce,
conjugate and multiply row by row.  Float values are numpy arrays with one
certified error bound (`characters.gauss_sums`, the float tables of `exp_sums`).
"""

from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapExceededError
from .finite_field import _prime_factors

# The largest basis size of an exact Gauss sum (`characters.gauss_sum`
# raises CapExceededError beyond it); coefficient-vector multiplication is
# quadratic in phi(m).
EXACT_PHI_CAP = 256


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (coefficients low to high)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, rem = divmod(c, den[-1])
        if rem:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dd] = q
        for j, dj in enumerate(den):
            num[i - dd + j] -= q * dj
    if any(num[: dd]):
        raise ArithmeticError("nonzero remainder in cyclotomic division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("order must be positive")
    if m == 1:
        return (-1, 1)
    f = [0] * (m + 1)
    f[0], f[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            f = _poly_div_exact(f, cyclotomic_polynomial(d))
    return tuple(f)


@lru_cache(maxsize=None)
def _context(m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Degree phi(m) and reduced power basis rows x^e mod Phi_m.

    Rows cover every exponent needed after reducing products mod x^m = 1:
    e in [0, max(m, 2*phi-1)).
    """
    phi_poly = cyclotomic_polynomial(m)
    deg = len(phi_poly) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(max(m, 2 * deg - 1)):
        rows.append(tuple(cur))
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for j in range(deg):
                nxt[j] -= lead * phi_poly[j]
        cur = nxt
    return deg, tuple(rows)


@lru_cache(maxsize=None)
def _rows_matrix(m: int) -> np.ndarray:
    """The rows of `_context` as a shared, read-only int64 array."""
    _, rows = _context(m)
    out = np.array(rows, dtype=np.int64)
    out.flags.writeable = False
    return out


def _abs_sums(a, axis=None):
    """sum |a| over an int64 array, or along an axis (an object array), in
    Python ints: the 32-bit halves of |a| are summed apart and cannot wrap."""
    u = np.abs(np.asarray(a, dtype=np.int64)).view(np.uint64)
    hi = np.asarray((u >> 32).sum(axis=axis)).astype(object)
    lo = np.asarray((u & 0xFFFFFFFF).sum(axis=axis)).astype(object)
    return hi * (1 << 32) + lo


def _check_int64(bound: int, what: str) -> None:
    """Refuse an int64 accumulation whose partial sums are only known to
    stay below bound."""
    if bound >= 1 << 63:
        raise CapExceededError(
            f"{what} could reach {bound} >= 2^63 and overflow int64"
        )


def _matmul_checked(x: np.ndarray, mat: np.ndarray, what: str) -> np.ndarray:
    """x @ mat in int64, refused unless every row's sum |x| * max |mat|, a
    bound on each of its partial sums, stays below 2^63."""
    _check_int64(_abs_sums(x, axis=-1).max(initial=0)
                 * int(np.abs(mat).max(initial=0)), what)
    return x @ mat


def _galois_matrix(m: int, a: int) -> np.ndarray:
    """x @ this matrix applies zeta_m -> zeta_m^a, gcd(a, m) = 1, to every
    row x of power-basis numerators: its row i is zeta_m^(i a)."""
    rows = _rows_matrix(m)
    return rows[(np.arange(rows.shape[1]) * a) % m]


def _mul_rows(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """x[i] * y[i] in Q(zeta_m) for every row i, refused unless each row's
    sum |x| * sum |y| * max |rows|, a bound on its partial sums, is below 2^63."""
    rows = _rows_matrix(m)
    deg = rows.shape[1]
    _check_int64((_abs_sums(x, axis=-1) * _abs_sums(y, axis=-1)).max(initial=0)
                 * int(np.abs(rows).max(initial=0)), "power-basis product")
    outer = (x[:, :, None] * y[:, None, :]).reshape(len(x), deg * deg)
    return outer @ rows[np.add.outer(np.arange(deg), np.arange(deg)).ravel()]


def phi(m: int) -> int:
    """Euler's totient, the degree of Q(zeta_m), from the primes of m."""
    out = m
    for ell in _prime_factors(m):
        out = out // ell * (ell - 1)
    return out


def _reduce_exponents(m: int, terms) -> tuple[int, ...]:
    """Sum of coef * x^e over (e, coef) pairs, reduced into the power basis."""
    deg, rows = _context(m)
    out = [0] * deg
    for e, coef in terms:
        if coef:
            row = rows[e % m]
            for j, v in enumerate(row):
                if v:
                    out[j] += coef * v
    return tuple(out)


def _binary(op):
    """op with a rational or finite float operand made a CycNumber; NotImplemented
    for any operand that is not one of these or a CycNumber."""
    def wrapper(self, other):
        if isinstance(other, numbers.Rational) or (
                isinstance(other, float) and math.isfinite(other)):
            other = CycNumber.from_rational(other)
        elif not isinstance(other, CycNumber):
            return NotImplemented
        return op(self, other)
    return wrapper


class CycNumber:
    """Exact element of Q(zeta_m): a rational vector on the power basis.

    Values are normalised: gcd of numerators and denominator is 1 and the
    denominator is positive.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, num, den=1):
        self.order = order
        deg, _ = _context(order)
        if len(num) != deg:
            raise ValueError("coefficient vector has wrong length")
        g = math.gcd(*num, den)
        if g == 0:
            g, den = 1, 1
        if den < 0:
            g = -g
        self.num = tuple(v // g for v in num)
        self.den = den // g

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_rational(cls, value) -> "CycNumber":
        fr = Fraction(value)
        return cls(1, (fr.numerator,), fr.denominator)

    @classmethod
    def root_of_unity(cls, order: int, exponent: int, coef=1) -> "CycNumber":
        """coef * zeta_order ** exponent, exact."""
        fr = Fraction(coef)
        num = _reduce_exponents(order, [(exponent % order, fr.numerator)])
        return cls(order, num, fr.denominator)

    @classmethod
    def from_exponent_counts(cls, order: int, counts, den: int = 1) -> "CycNumber":
        """Exact value sum counts[e] * zeta_order**e, divided by den, reduced
        in int64 (CapExceededError where `_matmul_checked` sees overflow)."""
        counts = np.asarray(counts, dtype=np.int64)
        num = _matmul_checked(counts[None], _rows_matrix(order)[: len(counts)],
                              "exponent-count reduction")
        return cls(order, tuple(num[0].tolist()), den)

    # ------------------------------------------------------------------
    # conversions

    def to_complex(self) -> complex:
        total = 0j
        for i, c in enumerate(self.num):
            if c:
                total += c * cmath.exp(2j * math.pi * i / self.order)
        return total / self.den

    def lift(self, order: int) -> "CycNumber":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("target order must be a multiple")
        k = order // self.order
        num = _reduce_exponents(
            order, [((i * k) % order, c) for i, c in enumerate(self.num)]
        )
        return CycNumber(order, num, self.den)

    # ------------------------------------------------------------------
    # arithmetic

    def _align(self, other: "CycNumber"):
        m = self.order * other.order // math.gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    @_binary
    def __add__(self, other):
        a, b = self._align(other)
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return CycNumber(a.order, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.order, tuple(-v for v in self.num), self.den)

    @_binary
    def __sub__(self, other):
        return self + (-other)

    @_binary
    def __rsub__(self, other):
        return (-self) + other

    @_binary
    def __mul__(self, other):
        a, b = self._align(other)
        conv = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        conv[i + j] += x * y
        num = _reduce_exponents(a.order, enumerate(conv))
        return CycNumber(a.order, num, a.den * b.den)

    __rmul__ = __mul__

    def galois(self, a: int) -> "CycNumber":
        """Apply zeta_m -> zeta_m**a; requires gcd(a, m) = 1."""
        if math.gcd(a, self.order) != 1:
            raise ValueError("exponent not coprime to the order")
        num = _reduce_exponents(
            self.order, [((i * a) % self.order, c) for i, c in enumerate(self.num)]
        )
        return CycNumber(self.order, num, self.den)

    # ------------------------------------------------------------------
    # comparison and display

    @_binary
    def __eq__(self, other):
        a, b = self._align(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        """The hash of the mean of the conjugates, Tr(x)/phi(m).  It does not
        depend on the order m that x is written in, and is x itself for a
        rational x, so equal values hash alike.  zeta_m^i has the mean
        mu(d)/phi(d), d = m/gcd(i, m): a product of -1/(l - 1) over the
        primes l of a squarefree d, else 0.  Conjugates, and all values of
        trace zero, share a hash; nothing in hypmono hashes a CycNumber."""
        mean = Fraction(0)
        for i, c in enumerate(self.num):
            d = self.order // math.gcd(i, self.order)
            primes = _prime_factors(d)
            if c and math.prod(primes) == d:
                mean += c * math.prod(Fraction(-1, ell - 1) for ell in primes)
        return hash(mean / self.den)

    def __repr__(self):
        return f"CycNumber(order={self.order}, num={self.num}, den={self.den})"
