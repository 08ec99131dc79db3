"""Trace functions of the hypergeometric descents, evaluated on three routes.

The single-point evaluators expand the defining multi-sum directly: an
outer sum over tuples of nonzero field elements, an additive-character
factor, the character product, and one twisted one-variable sum per tuple
slot.  Every tuple is its own term.  The twisted sums are count vectors
in the group ring Z[Z/p], counted element by element, their products over
all tuples int64 arrays, and the terms are added exactly into counts of
the exponents of zeta_m.  The table builders substitute u for the
product of the tuple and work on the multiplicative group in log
coordinates, Z/(q-1).

The direct evaluators give exact values in Q(zeta_m) (`CycNumber`).  Exact
tables take the twisted sums, the character stages and the additive transform
each from one exact 2-D cyclic convolution on Z/(q-1) x Z/m (`_cyclic_conv2`:
float FFTs on limbs, rounded under a certified bound), O(q log q) below their
cap of 2^10, and reduce the exponent counts once to one (q - 1, phi(m)) int64
array of power-basis numerators over q^nu; each exact check is an array
expression on it.  Float tables are numpy arrays with one a-priori error
bound.  They use that the Mellin transform of the trace function is a product
of Gauss sums (Katz, Exponential Sums and Differential Equations, ch. 8): one
DFT gives all q - 1 Gauss sums (`characters.gauss_sums`), pointwise products
the Mellin coefficients of the table, and one more FFT the table, O(q log q).
The float route forms no counts, so comparing it with the exact route, like
comparing the exact route with the direct evaluator, checks one computation
against an independent one; no equality is assumed.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import _EPS, _fft_eta, _times, gauss_sums
from .cyclotomic import (CycNumber, _abs_sums, _check_int64, _galois_matrix,
                         _matmul_checked, _mul_rows, _rows_matrix)
from .errors import CapExceededError
from .finite_field import FieldTable
from .hyp_params import build_spec
from .kubert import multiplicative_order

_EXACT_Q_CAP = 1 << 10
_DIRECT_TUPLE_CAP = 1 << 20
# float CSV rows formatted and joined per write (about 50 KB of text).  At
# 3^8, blocks of 2048 and 4096 rows wrote 12% and 21% faster, but 4096 rows
# raised the 2^14 job's peak RSS from 37.4 to 38.8 MB, above that of every
# other trace-table job
_CSV_ROWS = 1024


@dataclass(frozen=True)
class FamilyParams:
    """The one record of a family's facts; every consumer reads them here."""

    kind: str  # 'AxB' | 'Atimes'
    p: int
    A: int
    B: int


FAMILIES = {
    "3x13": FamilyParams("AxB", 2, 3, 13),
    "4x5": FamilyParams("AxB", 3, 4, 5),
    "28x": FamilyParams("Atimes", 3, 28, 7),
}


def _formula(field: FieldTable, kind: str, A: int, B: int):
    """The trace formula of a family over this field, validated once for the
    direct evaluator and both table routes: (exps, m, sign, h, q0, rank).

    The family must pass `build_spec` (the A-times family with A = 4B), and
    its auxiliary characters, of order d = A for the product family and the
    conjugate quartic pair otherwise (d = 4), must exist over the field:
    d | q - 1.  exps are their exponents, ascending (chi(g^j) = zeta_n^(e j),
    n = q - 1); the values lie in Q(zeta_m), m = lcm(p, d); sign is
    (-1)^nu for nu = len(exps); h = log(-1); q0 is the size of the base
    field, the least one holding the characters; rank is the spec's n."""
    p, n = field.p, field.q - 1
    if A is None or B is None:
        raise ValueError("A and B must be given")
    if kind == "Atimes" and A != 4 * B:  # the quartic pair times characters of order B
        raise ValueError(f"the A-times family has A = 4B = {4 * B}, not {A}")
    rank = build_spec(kind, p, A, B).n
    d = A if kind == "AxB" else 4
    if n % d:
        raise ValueError(f"F_{field.q} lacks the characters of order {d}: "
                         f"{d} does not divide q - 1 = {n}")
    exps = [j * (n // d) for j in (range(1, d) if kind == "AxB" else (1, 3))]
    sign = -1 if len(exps) % 2 else 1
    h = int(field.log[field.neg(1)])
    return exps, math.lcm(p, d), sign, h, p ** multiplicative_order(p, d), rank


def _check_point(field: FieldTable, s) -> None:
    """Refuse s unless it encodes a nonzero element, 0 < s < q: the field
    tables are indexed by s, from their end for a negative s."""
    if not 0 < s < field.q:
        raise ValueError(f"the point {s} is not a nonzero element of F_{field.q}")


# ----------------------------------------------------------------------
# building-block sums

def _twisted_counts(field: FieldTable, B: int) -> np.ndarray:
    """counts[j, v] = #{x in K : Tr(Bx - x^B / t_j) = v}, t_j = antilog[j],
    including the x = 0 term.

    With x = g^a and w(c) = Tr(g^c), Tr(Bx - x^B / t_j) = B w(a) - w(Ba - j)
    mod p.  With P[l, v1] = #{a : Ba = l mod q-1, B w(a) = v1 mod p} (a -> Ba
    need not be a bijection) and I[d, u] = [w(-d) = -u mod p], the count
    over x = g^a is the exact cyclic convolution of P and I on
    Z/(q-1) x Z/p, for every j at once.
    """
    q, n, p = field.q, field.q - 1, field.p
    logs = np.arange(n, dtype=np.int64)
    w = field.trace_powers()
    pushed = np.bincount((B * logs) % n * p + (B * w) % p, minlength=n * p)
    indicator = np.zeros((n, p), dtype=np.int64)
    indicator[logs, -w[-logs % n] % p] = 1
    counts = _cyclic_conv2(pushed.reshape(n, p), indicator)
    counts[:, 0] += 1  # x = 0 contributes Tr(0) = 0
    if np.any(counts.sum(axis=1) != q):
        raise AssertionError("twisted counts do not sum to q")
    return counts


def _power_sum_counts(field: FieldTable, B: int, ts) -> np.ndarray:
    """counts[j, v] = #{x in K : Tr(Bx - x^B / t_j) = v} for the nonzero
    t_j in ts, element by element: one (len(ts), q) broadcast."""
    xs = field.elements()
    arg = field.add(
        field.neg(field.mul(field.pow(xs, B), field.inv(np.asarray(ts))[:, None])),
        field.scalar_mul(B, xs),
    )
    rows = np.arange(len(ts))[:, None] * field.p
    return np.bincount((field.trace_to_prime(arg) + rows).ravel(),
                       minlength=len(ts) * field.p).reshape(-1, field.p)


# ----------------------------------------------------------------------
# single-point (direct) evaluators

def _trace_direct(field: FieldTable, kind: str, A: int, B: int, points) -> list[CycNumber]:
    """The defining tuple sum of `_formula`'s family at each point s of a
    list, every tuple its own term: (-1)^nu / q^nu times the sum over
    (t_1, ..., t_nu) in (K^*)^nu of psi(-t_1 ... t_nu / s) *
    prod chi_i(t_i) * prod S(t_i), with S(t) = sum over x in K of
    psi(Bx - x^B / t) and chi_i(g^j) = zeta_n^(e_i j).

    S(t) lies in the group ring Z[Z/p]: the count vectors of all t, from
    `_power_sum_counts` (element by element), are formed once per call.  A
    tuple's product of the S(t_i) is a cyclic product of length p, built
    for all n^nu tuples at once with one broadcast per factor.  Its count
    at v lands on the exponent (Tr(-t_1 ... t_nu / s) + v) m/p + sum of
    (e_i j_i mod n) m/n of zeta_m, t_i = g^(j_i), and the counts of all
    tuples are added exactly in int64 into m exponent counts; they total
    (n q)^nu, which is checked against int64 first.  The products, the log
    sums j_1 + ... + j_nu and the character exponents do not depend on s,
    so they are formed once for all the points; the trace, the exponents
    and their counts are formed at each point apart.  Every point is
    checked before any tuple is.  No twisted-count convolution, Gauss sum
    or table transform is used.  This route shares `_formula` with
    `trace_table_all`, and the power-basis rows `_rows_matrix` that reduce
    exponent counts (here via `CycNumber.from_exponent_counts`), so C10
    cannot see a wrong row; `test_cyclotomic` checks the rows.
    """
    exps, m, sign, h, _, _ = _formula(field, kind, A, B)
    q, n, p = field.q, field.q - 1, field.p
    nu = len(exps)
    if n ** nu > _DIRECT_TUPLE_CAP:
        raise CapExceededError(
            f"direct evaluation over {n}^{nu} tuples exceeds the cap"
        )
    for s in points:
        _check_point(field, s)
    _check_int64((n * q) ** nu, "direct tuple sum")
    logs, digits = np.arange(n, dtype=np.int64), np.arange(p)
    counts = _power_sum_counts(field, B, field.antilog)
    # shifted[j, u, v] = counts[j, v - u]: multiplication by S(g^j) in Z[Z/p]
    shifted = counts[:, (digits - digits[:, None]) % p]
    prod, log_sum, char_exp = counts, logs, ((exps[0] * logs) % n) * m // n
    for e in exps[1:]:
        prod = np.einsum("tu,juv->tjv", prod, shifted).reshape(-1, p)
        log_sum = (log_sum[:, None] + logs).ravel()
        char_exp = (char_exp[:, None] + ((e * logs) % n) * m // n).ravel()
    # psi(-t_1 ... t_nu / s) = zeta_p^w(log_sum + h - log s), w = Tr o antilog
    log_sum = (log_sum + h) % n
    lifted = digits * (m // p) + char_exp[:, None]
    trace, values = field.trace_powers(), []
    for s in points:
        w = trace[(log_sum - field.log[s]) % n]
        exponents = (w[:, None] * (m // p) + lifted) % m
        total = np.zeros(m, dtype=np.int64)
        np.add.at(total, exponents.ravel(), prod.ravel())
        values.append(CycNumber.from_exponent_counts(m, sign * total, q ** nu))
    return values


def trace_axb(field: FieldTable, A: int, B: int, s: int) -> CycNumber:
    """Trace at s of the two-parameter family: the (A-1)-fold sum
    psi(-prod t_i / s) * prod chi_i(t_i) * prod of twisted sums,
    times (-1/q)^(A-1)."""
    return _trace_direct(field, "AxB", A, B, [s])[0]


def trace_quartic(field: FieldTable, B: int, s: int) -> CycNumber:
    """Trace at s of the quartic-pair family: the double sum with factor
    chi4(u) * conj(chi4)(v) and the twisted sums for x^B, times (1/q^2)."""
    return _trace_direct(field, "Atimes", 4 * B, B, [s])[0]


# ----------------------------------------------------------------------
# full tables via the log-domain convolution pipeline

@dataclass
class TraceTable:
    """The trace function on K^*, row i at s = g^i.  An exact table holds
    `exact_num`, a read-only (q - 1, phi(m)) int64 array: row i is T(g^i) on
    the power basis of Q(zeta_m), m = `value_order`, as numerators over `den`
    = q^nu; `value`, `value_at_log` and `exact_values` build one `CycNumber`
    per value read.  A float table holds `float_values` within `float_err`;
    where its values are real by the family's parameters (`trace_table_all`),
    their imaginary parts are exactly 0 and `imag_residual` is the largest
    |Im| the transform gave before they were dropped, else None.  `rank` is
    the family's rank, the bound of `purity_check`."""

    family: str  # 'AxB' | 'Atimes'
    p: int
    params: dict
    field: FieldTable
    base_size: int
    rank: int
    mode: str
    nu: int
    value_order: int
    exact_num: np.ndarray | None = None
    float_values: np.ndarray | None = None
    float_err: float = 0.0
    imag_residual: float | None = None

    def __len__(self) -> int:
        return self.field.q - 1

    @property
    def den(self) -> int:
        """q^nu, the common denominator of `exact_num`."""
        return self.field.q ** self.nu

    def value_at_log(self, i: int) -> CycNumber:
        """The exact value at s = g^i; float tables hold `float_values`."""
        if self.exact_num is None:
            raise ValueError("exact values need an exact-mode table")
        row = self.exact_num[i % len(self)].tolist()
        return CycNumber(self.value_order, tuple(row), self.den)

    def value(self, s: int) -> CycNumber:
        _check_point(self.field, s)
        return self.value_at_log(int(self.field.log[s]))

    @property
    def exact_values(self) -> list[CycNumber] | None:
        """Every exact value as a CycNumber, built on read; None if float."""
        if self.exact_num is None:
            return None
        return [self.value_at_log(i) for i in range(len(self))]

    def _lowest_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Each exact row and den over their gcd, as `CycNumber` stores a
        value: (numerator rows, denominator per row)."""
        g = np.gcd(np.gcd.reduce(self.exact_num, axis=1), self.den)
        return self.exact_num // g[:, None], self.den // g

    def complex_values(self) -> np.ndarray:
        """The values as complex numbers: an exact row in lowest terms, its
        columns added in order, bit-identical to `CycNumber.to_complex`."""
        if self.exact_num is None:
            return self.float_values
        num, den = self._lowest_terms()
        out = np.zeros(len(self), dtype=complex)
        for i in range(num.shape[1]):
            out += num[:, i] * cmath.exp(2j * math.pi * i / self.value_order)
        out.real /= den
        out.imag /= den
        return out


def _cyclic_conv2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact 2-D cyclic convolution of nonnegative int64 arrays of one shape
    (n, m): c[i, e] = sum over j, e1 of a[j, e1] * b[i - j, e - e1], the
    indices taken mod n and mod m.

    The operand with the larger entries, `big`, is split into limbs of w
    bits, and each pair of limbs is packed into one complex array x (one
    limb as its real part, the next as its imaginary part).  Its product
    with the spectrum of the other operand y, transformed back, holds the
    convolutions of both limbs with y, which are integers: they are
    rounded and recombined in int64, no partial sum above
    min(sum a * max b, sum b * max a).

    Rounding bound: with N = n m and eta = eta_n + eta_m + eta_n eta_m,
    eta_k = _fft_eta(k) (the 2-D transform is length-m transforms of every
    row, then length-n transforms of every column, each with normwise
    relative error eta_k), the computed spectra have 2-norm errors at most
    e_x = eta sqrt(N) |x|_2 and e_y = eta sqrt(N) |y|_2.  The exact spectra
    have entries at most |x|_1 and |y|_1 and 2-norms sqrt(N) times those of
    x and y, so the product spectrum is off by at most
    eP = (|x|_1 + e_x) e_y + e_x |y|_1
         + _EPS (|y|_1 + e_y) (sqrt(N) |x|_2 + e_x)
    (the last term the rounding of the products) and has 2-norm at most
    nP = |y|_1 sqrt(N) |x|_2 + eP.  The unnormalised inverse transform
    multiplies eP by sqrt(N) and adds eta sqrt(N) nP, its scaling by 1/N
    at most _EPS (1 + eta) sqrt(N) nP; after the division by N the error
    has 2-norm, and so every entry an error, at most
    err = (eP + (eta + _EPS (1 + eta)) nP) / sqrt(N).
    A limb is at most 2^w - 1 and vanishes where big does, so
    |x|_1 <= 2 min(|big|_1, (2^w - 1) nnz(big)) and
    |x|_2 <= sqrt(2) min(|big|_2, (2^w - 1) sqrt(nnz(big))).  w is the
    largest width (at most the bit length of big) with err < 1/4; with
    none, CapExceededError.  Every rounding is checked to lie within err.
    """
    if a.shape != b.shape:
        raise ValueError("the operands must have one shape")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("the operands must be nonnegative")
    a_max, b_max = int(a.max(initial=0)), int(b.max(initial=0))
    a_sum, b_sum = _abs_sums(a), _abs_sums(b)
    _check_int64(min(a_sum * b_max, b_sum * a_max), "exact convolution")
    out = np.zeros(a.shape, dtype=np.int64)
    if a_max == 0 or b_max == 0:
        return out
    big, y, big_sum, y_sum = a, b, a_sum, b_sum
    if a_max < b_max:
        big, y, big_sum, y_sum = b, a, b_sum, a_sum
    n, m = a.shape
    N = n * m
    eta_n, eta_m = _fft_eta(n), _fft_eta(m)
    eta = eta_n + eta_m + eta_n * eta_m
    # float 2-norms, raised by N _EPS to cover the rounding of their sums
    big_l2, y_l2 = (float(np.linalg.norm(v.astype(np.float64))) * (1 + N * _EPS)
                    for v in (big, y))
    nnz = int(np.count_nonzero(big))

    def bound(w: int) -> float:
        top = (1 << w) - 1
        x1 = 2 * min(big_sum, top * nnz)
        x2 = math.sqrt(2) * min(big_l2, top * math.sqrt(nnz))
        e_x, e_y = eta * math.sqrt(N) * x2, eta * math.sqrt(N) * y_l2
        e_p = ((x1 + e_x) * e_y + e_x * y_sum
               + _EPS * (y_sum + e_y) * (math.sqrt(N) * x2 + e_x))
        n_p = y_sum * math.sqrt(N) * x2 + e_p
        return (e_p + (eta + _EPS * (1 + eta)) * n_p) / math.sqrt(N)

    bits = max(a_max, b_max).bit_length()
    w = next((w for w in range(bits, 0, -1) if bound(w) < 0.25), 0)
    if w == 0:
        raise CapExceededError(
            f"no limb width certifies an FFT convolution of shape {a.shape}"
        )
    err = bound(w)
    fy = np.fft.fft2(y.astype(np.complex128))
    mask = (1 << w) - 1
    for k in range(0, bits, 2 * w):
        x = ((big >> k) & mask) + 1j * ((big >> (k + w)) & mask)
        z = np.fft.ifft2(np.fft.fft2(x) * fy)
        for part, shift in ((z.real, k), (z.imag, k + w)):
            rounded = np.rint(part)
            if np.abs(part - rounded).max() > err:
                raise AssertionError("FFT convolution beyond its rounding bound")
            out += rounded.astype(np.int64) << shift
    return out


def _gauss_table(field: FieldTable, exps: list[int], h: int, B: int):
    """Raw float trace sums over Z/n, n = q - 1, from Gauss sums alone, and
    a bound on their largest error; exps and h = log(-1) are `_formula`'s.

    The raw sum at i is sum over l of (f_1 * ... * f_nu)(l) psi(-g^(l-i)),
    * being cyclic convolution, f_k(j) = zeta_n^(e_k j) S(g^j) and
    S(t) = sum over x of psi(Bx - x^B / t).  With
    G(e) = sum_a psi(g^a) zeta_n^(ea) (`characters.gauss_sums`),
    h = log(-1) and lb = log(B mod p), the Mellin coefficients of S are
    M_S(e) = sum_j S(g^j) zeta_n^(ej) = n [e = 0] + zeta_n^(ec) G(eB) G(-e)
    with c = h - B lb (x = 0 gives the first term; for x = g^a the
    substitution j = aB - l splits the rest into two Gauss sums).  The raw
    table is fft(X) / n with X(e) = zeta_n^(eh) G(-e) prod_k M_S(e + e_k).
    The twist zeta_n^(ec) is 1 at e = 0, so M_S(e) = zeta_n^(ec) P(e),
    P(e) = n [e = 0] + G(eB) G(-e), and all the twists of X make one root
    of unity per entry.

    Error bound: the Gauss sums carry a 2-norm error of at most
    n (eta / (1 - eta) + 2 _EPS), eta = _fft_eta(n).  Permuting entries
    keeps a 2-norm; e -> eB hits each of its values gcd(B, n) times, so
    G(eB) carries sqrt(gcd(B, n)) times that.  Every pointwise product
    (nu + 2 of them, the twists an input with elementwise error _EPS) goes
    through _times.  The unnormalised transform multiplies a 2-norm by
    sqrt(n) and adds eta / (1 - eta) of its output norm sqrt(n) ||X||_2;
    after the division by n the 2-norm of the error bounds its largest
    entry.  The Gauss sums are flat (|G(e)| = sqrt(q) for e != 0,
    G(0) = -1), so for a table of values of size about 1 the bound comes to
    about (2 nu + 2) sqrt(n) eta, up to twice that where gcd(B, n) > 1.
    """
    n, p, nu = field.q - 1, field.p, len(exps)
    G, g_err = gauss_sums(field)
    logs = np.arange(n, dtype=np.int64)
    c = (h - B * int(field.log[B % p])) % n
    g_neg = G[-logs]
    # the dels below keep at most four arrays of n complex values alive
    P, p_err = _times(G[(B * logs) % n], math.sqrt(math.gcd(B, n)) * g_err,
                      g_neg, g_err)
    del G
    P[0] += n
    p_err += _EPS * abs(P[0])
    X, x_err = g_neg, g_err
    for e in exps:
        X, x_err = _times(X, x_err, np.roll(P, -e), p_err)
    del P
    twist = np.exp(2j * np.pi * (((h + nu * c) * logs + c * sum(exps)) % n) / n)
    X, x_err = _times(X, x_err, twist, math.sqrt(n) * _EPS)
    del twist
    eta = _fft_eta(n)
    err = (x_err + eta / (1 - eta) * float(np.linalg.norm(X))) / math.sqrt(n)
    raw = np.fft.fft(X)
    raw /= n
    return raw, err


def trace_table_all(
    field: FieldTable,
    kind: str = "AxB",
    A: int | None = None,
    B: int | None = None,
    mode: str = "float",
) -> TraceTable:
    """Full trace table over K^* via the u-substitution, in log coordinates
    on Z/(q-1): an iterated multiplicative convolution of the
    character-twisted one-variable sums, then one additive-character
    transform, on the exact or the float route of the module docstring.
    The exact route is capped at q = 2^10; the float route has the a-priori
    bound of `_gauss_table` as `float_err`, and only the field degree caps
    bound it.  The A-times family has A = 4B, so its A may be left out.

    At p = 2 with exponents closed under e -> -e mod q - 1 (the 3x13
    family), every value is real: psi = +-1 and the characters come in
    conjugate pairs, so conjugation maps the trace formula to itself.  The
    float route checks that no imaginary part exceeds `float_err`, raising
    AssertionError otherwise, and sets them all to 0.  A value projected onto
    the real line is no further from the real true value, so `float_err`
    still bounds it; the largest |Im| dropped is kept as `imag_residual`.
    """
    q, n, p = field.q, field.q - 1, field.p
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and q > _EXACT_Q_CAP:
        raise CapExceededError(
            f"q = {q} exceeds the exact-mode table cap {_EXACT_Q_CAP}"
        )
    if kind == "Atimes" and A is None and B is not None:
        A = 4 * B
    exps, m, sign, h, base_size, rank = _formula(field, kind, A, B)
    params = {"A": A, "B": B}
    nu = len(exps)

    if mode == "exact":
        counts = _twisted_counts(field, B)
        logs = np.arange(n, dtype=np.int64)
        g = None
        for e in exps:
            fe = np.zeros((n, m), dtype=np.int64)
            ce = ((e * logs) % n) * m // n
            for v in range(p):
                fe[logs, (v * (m // p) + ce) % m] += counts[:, v]
            g = fe if g is None else _cyclic_conv2(fe, g)
        # raw[i] = sum over l of g[l] zeta_p^w(h + l - i), w = Tr o antilog,
        # h = log(-1): the convolution of g with the indicator kernel
        # K[d, w(h - d) m / p] = 1
        w = field.trace_powers()
        kernel = np.zeros((n, m), dtype=np.int64)
        kernel[logs, w[(h - logs) % n] * (m // p)] = 1
        raw = _cyclic_conv2(kernel, g)
        num = _matmul_checked(sign * raw, _rows_matrix(m)[:m], "power-basis reduction")
        num.flags.writeable = False
        return TraceTable(kind, p, params, field, base_size, rank, "exact", nu, m,
                          exact_num=num)

    values, err = _gauss_table(field, exps, h, B)
    values *= sign / q ** nu
    total_err = err / q ** nu + float(np.abs(values).max()) * _EPS
    residual = None
    if p == 2 and sorted(-e % n for e in exps) == exps:
        residual = float(np.abs(values.imag).max())
        if residual > total_err:
            raise AssertionError("imaginary parts of a real table beyond its bound")
        values.imag = 0.0
    return TraceTable(kind, p, params, field, base_size, rank, "float", nu, m,
                      float_values=values, float_err=total_err, imag_residual=residual)


# ----------------------------------------------------------------------
# derived operations on tables

def _exact_abs2(table: TraceTable) -> tuple[np.ndarray, int]:
    """|T(s)|^2 on an exact table, as power-basis numerators over one
    denominator: the numerators, over their gcd with q^nu, times their conjugates."""
    m = table.value_order
    g = math.gcd(int(np.gcd.reduce(table.exact_num, axis=None)), table.den)
    x = table.exact_num // g
    conj = _matmul_checked(x, _galois_matrix(m, m - 1), "complex conjugation")
    return _mul_rows(x, conj, m), (table.den // g) ** 2


def moments(table: TraceTable, k: int = 1, exact: bool = False):
    """M_k: the mean of |T(s)|^(2k) over the table."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if exact:
        if table.mode != "exact":
            raise ValueError("exact moments need an exact-mode table")
        a2, den2 = _exact_abs2(table)
        if a2[:, 1:].any():
            raise ValueError("|T|^2 is not rational")
        total = int((a2[:, 0].astype(object) ** k).sum())
        return Fraction(total, den2 ** k * len(table))
    vals = table.complex_values()
    return float((np.abs(vals) ** (2 * k)).mean())


def frobenius_invariance_check(table: TraceTable) -> bool:
    """T(s^(q0)) = T(s) for the base-field size q0: equal numerators (exact;
    an int64 difference could wrap), or within twice the bound (float)."""
    n = len(table)
    moved = (table.base_size * np.arange(n)) % n
    if table.mode == "exact":
        return bool(np.array_equal(table.exact_num[moved], table.exact_num))
    vals = table.float_values
    return bool((np.abs(vals[moved] - vals) <= 2 * table.float_err).all())


def galois_invariance_check(table: TraceTable) -> bool:
    """Invariance of every value under Gal fixing Q(zeta_p): the maps
    zeta_m -> zeta_m^a for a coprime to m, a = 1 mod p; exact mode only."""
    if table.mode != "exact":
        raise ValueError("galois invariance requires an exact-mode table")
    m, num = table.value_order, table.exact_num
    return all(
        np.array_equal(_matmul_checked(num, _galois_matrix(m, a), "Galois action"), num)
        for a in range(2, m) if math.gcd(a, m) == 1 and a % table.p == 1
    )


def purity_check(table: TraceTable) -> bool:
    """Weight-zero bound |T(s)| <= rank for every s: |T|^2 rational and at
    most rank^2 (exact), or |T| within the certified bound (float)."""
    if table.mode == "exact":
        a2, den2 = _exact_abs2(table)
        # a2 is int64, so a bound past int64 is as good as 2^63 - 1
        bound = min(table.rank ** 2 * den2, (1 << 63) - 1)
        return not a2[:, 1:].any() and bool((a2[:, 0] <= bound).all())
    return bool((np.abs(table.float_values) <= table.rank + table.float_err).all())


def rationality_check(table: TraceTable) -> bool:
    """All values rational: power-basis columns 1.. zero; exact mode only.
    A float table whose values are real by its family's parameters has its
    imaginary parts checked within `float_err` as it is built
    (`trace_table_all`)."""
    if table.mode != "exact":
        raise ValueError("rationality requires an exact-mode table")
    return not table.exact_num[:, 1:].any()


def integrality_check(table: TraceTable) -> bool:
    """Every T(s) is an algebraic integer: q^nu divides its numerators, its
    coordinates on the power basis, an integral basis of Z[zeta_m]."""
    if table.mode != "exact":
        raise ValueError("integrality requires an exact-mode table")
    return not (table.exact_num % table.den).any()


def float_gap(table_exact: TraceTable, table_float: TraceTable) -> float:
    """The observed error of a float table: max |exact - float| against the
    exact table of the same family and field."""
    gap = table_exact.complex_values() - table_float.float_values
    return float(np.abs(gap).max())


def table_stats(table: TraceTable, float_table: TraceTable | None = None) -> dict:
    """The `trace-table` report of a table: its moments and the checks its
    mode allows, with `float_err` for a float table, and `imag_residual`
    where it has one.  Given the float table of the same family and field as
    well, an exact table's report adds those of that table, its `float_gap`
    and the `float_gap_over_tol`."""
    vals = table.complex_values()
    exact = table.mode == "exact"
    stats = {
        "family": table.family,
        "p": table.p,
        "A": table.params.get("A"),
        "B": table.params.get("B"),
        "q": table.field.q,
        "M1": moments(table, 1),
        "M2": moments(table, 2),
        "max_abs": float(np.abs(vals).max()),
        "integrality_pass": integrality_check(table) if exact else None,
        "frobenius_pass": frobenius_invariance_check(table),
        "purity_pass": purity_check(table),
    }
    if not exact:
        stats.update(_float_bounds(table))
        return stats
    stats["galois_pass"] = galois_invariance_check(table)
    if table.p == 2:
        stats["rationality_pass"] = rationality_check(table)
    if float_table is not None:
        gap, tol = float_gap(table, float_table), float_table.float_err
        stats.update(_float_bounds(float_table), float_gap=gap,
                     float_gap_over_tol=gap if gap > tol else 0.0)
    return stats


def _float_bounds(table: TraceTable) -> dict:
    """A float table's `float_err`, and its `imag_residual` if it has one."""
    if table.imag_residual is None:
        return {"float_err": table.float_err}
    return {"float_err": table.float_err, "imag_residual": table.imag_residual}


def stats_pass(stats: dict) -> bool:
    """Whether a `table_stats` report holds, the pass rule of C7 and of
    `trace-table`: no `_pass` flag is False (None marks a check the table's
    mode does not allow) and `float_gap_over_tol` is 0 or absent."""
    return not (any(v is False for key, v in stats.items() if key.endswith("_pass"))
                or stats.get("float_gap_over_tol"))


def export_csv(table: TraceTable, path) -> None:
    """(s_log_index, re, im) for float tables, (s_log_index, exact JSON)
    for exact ones, in the bytes of `csv.writer`.  The im column of a real
    float table (3x13) is 0.0 in every row.

    Each distinct value is formatted once and its text gathered into every
    row that holds it: a float keyed on its bit pattern, so that -0.0 and
    0.0 keep their own text, within each block of `_CSV_ROWS` rows, and an
    exact row on its lowest-terms numerators and den."""
    with open(path, "w", newline="") as fh:
        if table.mode == "exact":
            # each value's order, numerators and den in lowest terms, as a
            # CycNumber stores them, without a CycNumber per row
            num, den = table._lowest_terms()

            def quoted(rows):
                out = io.StringIO(newline="")
                csv.writer(out).writerows([json.dumps({"order": table.value_order,
                                                       "num": row, "den": d})]
                                          for *row, d in rows)
                return out.getvalue().splitlines()

            cells = _format_once(list(map(tuple, np.column_stack([num, den]).tolist())), quoted)
            fh.write("s_log_index,exact\r\n")
            fh.write("".join([f"{i},{cell}\r\n" for i, cell in enumerate(cells)]))
        else:
            # csv.writer writes a float as its repr and ends rows with \r\n
            bits = np.ascontiguousarray(table.float_values).view(np.int64)  # re, im, re, ...
            n = len(bits) // 2
            fh.write("s_log_index,re,im\r\n")
            for start in range(0, n, _CSV_ROWS):
                stop = min(start + _CSV_ROWS, n)
                cells = _format_once(bits[2 * start:2 * stop].tolist(), _float_reprs)
                rows = zip(range(start, stop), cells[0::2], cells[1::2])
                fh.write("".join([f"{i},{re},{im}\r\n" for i, re, im in rows]))


def _format_once(keys: list, texts) -> list[str]:
    """The text of each key, from one call of texts on the distinct keys in
    order of first appearance: a dict memo built and read in C."""
    distinct = list(dict.fromkeys(keys))
    return list(map(dict(zip(distinct, texts(distinct))).__getitem__, keys))


def _float_reprs(patterns: list[int]):
    """repr of the float64 with each int64 bit pattern."""
    return map(repr, np.array(patterns, dtype=np.int64).view(np.float64).tolist())
