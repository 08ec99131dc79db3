"""Exact arithmetic with roots of unity.

A CycNumber is an exact element of Q(zeta_m), stored as a rational
coefficient vector on the power basis 1, zeta, ..., zeta^(phi(m)-1) reduced
mod the m-th cyclotomic polynomial.  Values of different orders are aligned
through the canonical embedding Q(zeta_m) -> Q(zeta_lcm) before combining.
Float values live elsewhere, as numpy arrays with one certified error bound
(`characters.gauss_sums`, the float trace tables of `exp_sums`).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

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
def _rows_matrix(m: int):
    import numpy as np

    _, rows = _context(m)
    return np.array(rows, dtype=np.int64)


def _abs_sum(a) -> int:
    """sum |a| over a numpy array, in Python ints: an int64 sum could wrap
    exactly where an overflow bound matters."""
    return sum(abs(v) for v in a.ravel().tolist())


def _check_int64(bound: int, what: str) -> None:
    """Refuse an int64 accumulation whose partial sums are only known to
    stay below bound."""
    if bound >= 1 << 63:
        raise CapExceededError(
            f"{what} could reach {bound} >= 2^63 and overflow int64"
        )


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


def _minimal_form(order: int, num: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Power-basis coordinates of sum num[j] * zeta_order^j in the smallest
    Q(zeta_d) holding it, found by descending one prime l | order at a time."""
    descended = True
    while descended:
        descended = False
        for ell in _prime_factors(order):
            m = order // ell
            if m % ell == 0:
                # Phi_order(x) = Phi_m(x^l): the subfield is spanned by x^(l*i)
                if any(c for j, c in enumerate(num) if j % ell):
                    continue
                num = num[::ell]
            else:
                # zeta_order = zeta_m^u * zeta_l^v; write the value as
                # sum_b z_b zeta_l^b with z_b in Q(zeta_m), which lies in
                # Q(zeta_m) iff z_1 = ... = z_(l-1), and then equals z_0 - z_(l-1)
                u, v = pow(ell, -1, m), pow(m, -1, ell)
                parts = [[] for _ in range(ell)]
                for j, c in enumerate(num):
                    parts[v * j % ell].append((u * j % m, c))
                z = [_reduce_exponents(m, t) for t in parts]
                if any(zb != z[-1] for zb in z[1:-1]):
                    continue
                num = tuple(a - b for a, b in zip(z[0], z[-1]))
            order, descended = m, True
            break
    return order, num


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
        g = 0
        for v in num:
            g = math.gcd(g, v)
        g = math.gcd(g, den)
        if g == 0:
            g, den = 1, 1
        if den < 0:
            g = -g
        self.num = tuple(v // g for v in num)
        self.den = den // g

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, order: int = 1) -> "CycNumber":
        deg, _ = _context(order)
        return cls(order, (0,) * deg)

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
        """Exact value sum counts[e] * zeta_order**e, divided by den.

        The reduction accumulates in int64; CapExceededError is raised when
        sum |counts| * max |row entry| could reach 2**63.
        """
        import numpy as np

        counts = np.asarray(counts)
        rows = _rows_matrix(order)[: len(counts)]
        # every partial sum of a coordinate is bounded by sum|counts| * max|rows|
        _check_int64(_abs_sum(counts) * int(np.abs(rows).max(initial=0)),
                     "exponent-count reduction")
        num = tuple(int(v) for v in counts.astype(np.int64) @ rows)
        return cls(order, num, den)

    # ------------------------------------------------------------------
    # predicates and conversions

    @property
    def is_rational(self) -> bool:
        return all(v == 0 for v in self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

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

    @staticmethod
    def _coerce(value) -> "CycNumber":
        if isinstance(value, CycNumber):
            return value
        return CycNumber.from_rational(value)

    def _align(self, other: "CycNumber"):
        m = self.order * other.order // math.gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._align(self._coerce(other))
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return CycNumber(a.order, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.order, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        a, b = self._align(self._coerce(other))
        deg, rows = _context(a.order)
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        conv[i + j] += x * y
        out = [0] * deg
        for e, c in enumerate(conv):
            if c:
                for j, v in enumerate(rows[e]):
                    if v:
                        out[j] += c * v
        return CycNumber(a.order, tuple(out), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers not supported")
        out = CycNumber.from_rational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def galois(self, a: int, p: int | None = None) -> "CycNumber":
        """Apply zeta_m -> zeta_m**a; requires gcd(a, m) = 1.

        When the residue characteristic p is given, a must fix zeta_p, i.e.
        a = 1 mod p whenever p divides m; rational values are unchanged.
        """
        if math.gcd(a, self.order) != 1:
            raise ValueError("exponent not coprime to the order")
        if p is not None and self.order % p == 0 and a % p != 1 % p:
            raise ValueError("action does not fix the p-th roots of unity")
        num = _reduce_exponents(
            self.order, [((i * a) % self.order, c) for i, c in enumerate(self.num)]
        )
        return CycNumber(self.order, num, self.den)

    def conjugate(self) -> "CycNumber":
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    def abs2(self) -> "CycNumber":
        """|z|^2 as a CycNumber (self times its complex conjugate)."""
        return self * self.conjugate()

    # ------------------------------------------------------------------
    # comparison and display

    def __eq__(self, other):
        a, b = self._align(self._coerce(other))
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        order, num = _minimal_form(self.order, self.num)
        canon = CycNumber(order, num, self.den)
        if order == 1:
            return hash(Fraction(canon.num[0], canon.den))
        return hash((order, canon.num, canon.den))

    def __repr__(self):
        return f"CycNumber(order={self.order}, num={self.num}, den={self.den})"

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        return {"order": self.order, "num": list(self.num), "den": self.den}

    @classmethod
    def from_json(cls, obj: dict) -> "CycNumber":
        return cls(obj["order"], tuple(obj["num"]), obj["den"])

