"""Characters of finite fields and their Gauss sums.

Multiplicative characters are indexed against the fixed field generator g:
chi_j(g^a) = zeta_{q-1}^(j*a).  The canonical additive character sends x to
zeta_p^Tr(x).  Values are CycNumbers; sums switch between the exact
cyclotomic path and compensated floats depending on the basis size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import EXACT_PHI_CAP, CycNumber, phi
from .finite_field import FieldTable, subfield_norm_map

__all__ = [
    "MultChar",
    "AddChar",
    "eval_mult",
    "eval_add",
    "chars_of_order_dividing",
    "chars_of_exact_order",
    "gauss_sum",
    "lifted_char",
    "hasse_davenport_lift_check",
]


@dataclass(frozen=True)
class MultChar:
    """Multiplicative character chi_j of field^*, j taken mod q-1."""

    field: FieldTable
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % (self.field.q - 1))

    @property
    def order(self) -> int:
        n = self.field.q - 1
        return n // math.gcd(self.exponent, n)

    @property
    def is_trivial(self) -> bool:
        return self.exponent == 0

    def __mul__(self, other: "MultChar") -> "MultChar":
        if other.field is not self.field:
            raise ValueError("characters live on different fields")
        return MultChar(self.field, self.exponent + other.exponent)

    def __pow__(self, e: int) -> "MultChar":
        return MultChar(self.field, self.exponent * e)

    def conjugate(self) -> "MultChar":
        return MultChar(self.field, -self.exponent)

    def value_exponent(self, x) -> int:
        """Exponent a with chi(x) = zeta_d^a, d = self.order; x nonzero."""
        n = self.field.q - 1
        d = self.order
        j = self.exponent
        if np.ndim(x) == 0 and x == 0:
            raise ValueError("multiplicative character at zero")
        return ((j * self.field.log[x]) % n) * d // n


@dataclass(frozen=True)
class AddChar:
    """The canonical additive character psi_K with psi(1) = zeta_p."""

    field: FieldTable

    def value_exponent(self, x) -> int:
        return self.field.trace_to_prime(x)


def eval_mult(chi: MultChar, x: int) -> CycNumber:
    """chi(x) as an exact root of unity of order chi.order; x must be nonzero."""
    if x == 0:
        raise ValueError("multiplicative character at zero; sums skip zero")
    return CycNumber.root_of_unity(chi.order, chi.value_exponent(int(x)))


def eval_add(psi: AddChar, x: int) -> CycNumber:
    """psi_K(x) = zeta_p^Tr(x), exact."""
    return CycNumber.root_of_unity(psi.field.p, psi.value_exponent(int(x)))


def chars_of_order_dividing(
    field: FieldTable, order: int, nontrivial_only: bool = False
) -> list[MultChar]:
    """The characters chi with chi^order trivial, ascending exponent."""
    n = field.q - 1
    if order <= 0 or n % order:
        raise ValueError(f"order {order} does not divide q-1 = {n}")
    start = 1 if nontrivial_only else 0
    return [MultChar(field, j * (n // order)) for j in range(start, order)]


def chars_of_exact_order(field: FieldTable, order: int) -> list[MultChar]:
    """The phi(order) characters of order exactly `order`, ascending exponent."""
    n = field.q - 1
    if order <= 0 or n % order:
        raise ValueError(f"order {order} does not divide q-1 = {n}")
    return [
        MultChar(field, u * (n // order))
        for u in range(1, order + 1)
        if math.gcd(u, order) == 1
    ]


def _gauss_mode(p: int, chi_order: int, mode: str) -> str:
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "auto":
        return mode
    m = p * chi_order // math.gcd(p, chi_order)
    return "exact" if phi(m) <= EXACT_PHI_CAP else "float"


def gauss_sum(psi: AddChar, chi: MultChar, mode: str = "auto") -> CycNumber:
    """g(psi, chi) = sum over nonzero x of psi(x) chi(x)."""
    field = psi.field
    if chi.field is not field:
        raise ValueError("characters live on different fields")
    n = field.q - 1
    d = chi.order
    p = field.p
    mode = _gauss_mode(p, d, mode)
    logs = np.arange(n, dtype=np.int64)
    tr = field.trace_table[field.antilog]
    chi_exp = ((chi.exponent * logs) % n) * d // n
    if mode == "exact":
        m = p * d // math.gcd(p, d)
        e = (tr * (m // p) + chi_exp * (m // d)) % m
        counts = np.bincount(e, minlength=m)
        return CycNumber.from_exponent_counts(m, counts)
    # float path: compensated by numpy pairwise summation; documented error
    # budget q * 2**-50
    vals = np.exp(2j * np.pi * (tr / p + chi_exp / d))
    total = complex(vals.sum())
    return CycNumber.from_complex(total, n * 2.0 ** -50)


def lifted_char(field: FieldTable, sub: FieldTable, chi0: MultChar) -> MultChar:
    """chi0 composed with the norm map field -> sub, as a character of field."""
    if chi0.field is not sub:
        raise ValueError("chi0 must live on the subfield")
    g_norm = subfield_norm_map(field, sub, field.generator)
    n0 = sub.q - 1
    step = (field.q - 1) // n0
    # norm(g) = g0^t, so chi0(norm(g^a)) = zeta_{n0}^(e0 * t * a)
    t = int(sub.log[g_norm])
    return MultChar(field, chi0.exponent * t * step)


def hasse_davenport_lift_check(
    sub: FieldTable, field: FieldTable, chi0: MultChar, mode: str = "exact"
) -> bool:
    """Verify -g(psi_K, chi0 o Norm) = (-g(psi_k0, chi0))^d exactly."""
    d = field.k // sub.k
    if field.k % sub.k or field.p != sub.p:
        raise ValueError("not an extension of the base field")
    chi_lift = lifted_char(field, sub, chi0)
    g_top = gauss_sum(AddChar(field), chi_lift, mode=mode)
    g_bot = gauss_sum(AddChar(sub), chi0, mode=mode)
    if mode == "exact":
        return (-g_top) == (-g_bot) ** d
    return (-g_top).approx_eq((-g_bot) ** d, tol=1e-6)
