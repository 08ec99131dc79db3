"""Trace functions of the hypergeometric descents, evaluated two ways.

The single-point evaluators expand the defining multi-sum directly: an
outer sum over tuples of nonzero field elements, an additive-character
factor, the character product, and one twisted one-variable sum per tuple
slot.  The table builder instead substitutes u for the product of the
tuple and works on the multiplicative group in log coordinates, Z/(q-1),
where every stage is a cyclic convolution or correlation: the twisted sums
come from one exact FFT correlation of trace indicators, the float
pipeline multiplies DFTs pointwise and ends in one FFT correlation with
the additive character, O(q log q) overall.  Equality of the two routes is
part of the test surface, never assumed.

Both exact (integer vectors over roots of unity, final division by q^nu)
and float (complex with an a-priori error bound) paths are provided; the
exact stages stay O(q^2) integer convolutions below their cap of 2^10.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import CycNumber, _abs_sum, _check_int64
from .errors import CapExceededError
from .finite_field import FieldTable
from .kubert import (
    Counterexample,
    VariantReport,
    VerificationReport,
    multiplicative_order,
)

_FLOAT_Q_CAP = 1 << 14
_EXACT_Q_CAP = 1 << 10
_DIRECT_TUPLE_CAP = 1 << 20
_EPS = 2.0 ** -50  # generous unit for rounding steps outside the FFTs
_U = 2.0 ** -53  # unit roundoff of float64


class ExtensionAtZero:
    """Marker for the pullback value at s = 0, defined by the unique
    extension across the origin rather than by the sum formula."""

    def __repr__(self):
        return "<defined-by-extension at s=0>"


EXTENSION_AT_ZERO = ExtensionAtZero()


@dataclass(frozen=True)
class FamilyParams:
    name: str
    kind: str  # 'AxB' | 'Atimes'
    p: int
    A: int
    B: int
    rank: int

    @property
    def tame_order(self) -> int:
        # order of the local monodromy at 0: lcm of the upstairs character
        # orders (A*B for the product family, A itself for the A-times one)
        return self.A * self.B if self.kind == "AxB" else self.A

    @property
    def char_order(self) -> int:
        # common order of the auxiliary characters in the trace formula
        return self.A if self.kind == "AxB" else 4

    @property
    def base_degree(self) -> int:
        return multiplicative_order(self.p, self.char_order)


FAMILIES = {
    "3x13": FamilyParams("3x13", "AxB", 2, 3, 13, 24),
    "4x5": FamilyParams("4x5", "AxB", 3, 4, 5, 12),
    "28x": FamilyParams("28x", "Atimes", 3, 28, 7, 12),
}


def _char_exponents(field: FieldTable, kind: str, A: int) -> list[int]:
    """Auxiliary character exponents, ascending, as fixed by the formula:
    the A-1 nontrivial characters of order dividing A for the product
    family; the conjugate pair of quartic characters otherwise."""
    n = field.q - 1
    if kind == "AxB":
        if A < 3 or n % A:
            raise ValueError(f"A = {A} must be >= 3 and divide q-1 = {n}")
        return [j * (n // A) for j in range(1, A)]
    if n % 4:
        raise ValueError(f"q-1 = {n} must be divisible by 4")
    return [n // 4, 3 * n // 4]


def _char_order_of(field: FieldTable, exps: list[int]) -> int:
    """lcm of the orders of the characters with these exponents; the trace
    values lie in Q(zeta_m) for m = lcm(p, this order)."""
    n = field.q - 1
    return math.lcm(*(n // math.gcd(e, n) for e in exps))


# ----------------------------------------------------------------------
# building-block sums

def _twisted_counts(field: FieldTable, B: int) -> np.ndarray:
    """counts[j, v] = #{x in K : Tr(Bx - x^B / t_j) = v}, t_j = antilog[j],
    including the x = 0 term.

    With x = g^a and w(c) = Tr(g^c), Tr(Bx - x^B / t_j) = B w(a) - w(Ba - j)
    mod p.  The indicator of B w(a) = v1, pushed forward along a -> Ba
    (which need not be a bijection), correlated over Z/(q-1) with the
    indicator of w = v2 counts the x with that pair of values for every j
    at once.  The correlations run as float FFTs; their exact values are
    integers, so the result is rounded with the margin checked.
    """
    q, n, p = field.q, field.q - 1, field.p
    logs = np.arange(n, dtype=np.int64)
    w = field.trace_table[field.antilog]
    pushed = np.array([
        np.bincount((B * logs) % n, weights=(B * w) % p == v, minlength=n)
        for v in range(p)
    ])
    indicators = np.array([w == v for v in range(p)], dtype=np.float64)
    fp = np.fft.rfft(pushed, axis=1)
    fi = np.fft.rfft(indicators, axis=1).conj()
    spec = np.array([
        sum(fp[v1] * fi[(v1 - v) % p] for v1 in range(p)) for v in range(p)
    ])
    raw = np.fft.irfft(spec, n=n, axis=1).T
    counts = np.rint(raw)
    if np.abs(raw - counts).max(initial=0.0) >= 0.25:
        raise AssertionError("twisted-count correlation too far from integers")
    counts = counts.astype(np.int64)
    counts[:, 0] += 1  # x = 0 contributes Tr(0) = 0
    if np.any(counts.sum(axis=1) != q):
        raise AssertionError("twisted counts do not sum to q")
    return counts


def _power_sum_counts(field: FieldTable, B: int, t: int) -> np.ndarray:
    """counts[v] = #{x in K : Tr(Bx - x^B / t) = v}, element by element."""
    xs = field.elements()
    arg = field.add(
        field.neg(field.mul(field.pow(xs, B), field.inv(t))),
        field.scalar_mul(B, xs),
    )
    return np.bincount(field.trace_table[arg], minlength=field.p)


def kloosterman_power_sum(field: FieldTable, B: int, t: int, mode: str = "exact"):
    """-sum over x in K of psi_K(-x^B/t + Bx); t nonzero, gcd(B, p) = 1."""
    if t == 0:
        raise ValueError("t must be nonzero")
    if math.gcd(B, field.p) != 1:
        raise ValueError("B must be prime to p")
    p = field.p
    counts = _power_sum_counts(field, B, t)
    if mode == "exact":
        return -CycNumber.from_exponent_counts(p, counts)
    vals = counts @ np.exp(2j * np.pi * np.arange(p) / p)
    return CycNumber.from_complex(-vals, field.q * _EPS)


def kloosterman(field: FieldTable, a: int, mode: str = "exact"):
    """sum over nonzero x of psi_K(x + a/x)."""
    if a == 0:
        raise ValueError("a must be nonzero")
    p = field.p
    xs = field.units()
    arg = field.add(xs, field.mul(a, field.inv(xs)))
    counts = np.bincount(field.trace_table[arg], minlength=p)
    if mode == "exact":
        return CycNumber.from_exponent_counts(p, counts)
    vals = counts @ np.exp(2j * np.pi * np.arange(p) / p)
    return CycNumber.from_complex(vals, field.q * _EPS)


# ----------------------------------------------------------------------
# single-point (direct) evaluators

def _trace_direct(field: FieldTable, exps: list[int], B: int, s: int, mode: str):
    import itertools

    q, n, p = field.q, field.q - 1, field.p
    nu = len(exps)
    if n ** nu > _DIRECT_TUPLE_CAP:
        raise CapExceededError(
            f"direct evaluation over {n}^{nu} tuples exceeds the cap"
        )
    if s == 0:
        raise ValueError("s must be nonzero")
    m = math.lcm(p, _char_order_of(field, exps))
    s_inv_log = (-field.log[s]) % n
    neg_shift = 0 if p == 2 else field.log[field.neg(1)]
    svals = [
        kloosterman_power_sum(field, B, int(field.antilog[j]), mode) * (-1)
        for j in range(n)
    ]
    total = CycNumber.zero(m) if mode == "exact" else CycNumber.from_complex(0j)
    for tlogs in itertools.product(range(n), repeat=nu):
        prod_log = sum(tlogs) % n
        w = int(field.trace_table[field.antilog[(prod_log + neg_shift + s_inv_log) % n]])
        ce = sum(((e * j) % n) * m // n for e, j in zip(exps, tlogs)) % m
        term = CycNumber.root_of_unity(m, (w * (m // p) + ce) % m)
        for j in tlogs:
            term = term * svals[j]
        total = total + term
    sign = -1 if nu % 2 else 1
    if mode == "exact":
        return total * Fraction(sign, q ** nu)
    return total * (sign / q ** nu)


def trace_axb(field: FieldTable, A: int, B: int, s: int, mode: str = "exact"):
    """Trace at s of the two-parameter family: the (A-1)-fold sum
    psi(-prod t_i / s) * prod chi_i(t_i) * prod of twisted sums,
    times (-1/q)^(A-1)."""
    if math.gcd(A, B) != 1 or A < 3 or B < 3:
        raise ValueError("need coprime A, B >= 3")
    if A % field.p == 0 or B % field.p == 0:
        raise ValueError("A and B must be prime to p")
    return _trace_direct(field, _char_exponents(field, "AxB", A), B, s, mode)


def trace_quartic(field: FieldTable, B: int, s: int, mode: str = "exact"):
    """Trace at s of the quartic-pair family: the double sum with factor
    chi4(u) * conj(chi4)(v) and the twisted sums for x^B, times (1/q^2)."""
    if field.p == 2:
        raise ValueError("this family lives in odd characteristic")
    if B % field.p == 0:
        raise ValueError("B must be prime to p")
    return _trace_direct(field, _char_exponents(field, "Atimes", 0), B, s, mode)


# ----------------------------------------------------------------------
# full tables via the log-domain convolution pipeline

@dataclass
class TraceTable:
    family: str  # 'AxB' | 'Atimes' | 'pullback'
    p: int
    params: dict
    field: FieldTable
    base_size: int
    mode: str
    nu: int
    value_order: int
    exact_values: list[CycNumber] | None = None
    float_values: np.ndarray | None = None
    float_err: float = 0.0

    def __len__(self) -> int:
        return self.field.q - 1

    @property
    def prefactor(self) -> Fraction:
        """The literal (-1/q)^nu normalization applied to the raw sums."""
        return Fraction((-1) ** self.nu, self.field.q ** self.nu)

    def value_at_log(self, i: int):
        i %= self.field.q - 1
        if self.exact_values is not None:
            return self.exact_values[i]
        return CycNumber.from_complex(self.float_values[i], self.float_err)

    def value(self, s: int):
        if s == 0:
            raise ValueError("the table is indexed by nonzero s")
        return self.value_at_log(int(self.field.log[s]))

    def complex_values(self) -> np.ndarray:
        if self.float_values is not None:
            return self.float_values
        return np.array([v.to_complex() for v in self.exact_values])


def _conv_exact(fa: np.ndarray, fb: np.ndarray, idx: np.ndarray, m: int) -> np.ndarray:
    # every partial sum of an output entry is bounded by sum|fa| * max|fb|
    _check_int64(_abs_sum(fa) * int(np.abs(fb).max()), "exact convolution")
    out = np.zeros_like(fa)
    for e2 in range(m):
        gathered = fb[:, e2][idx]
        for e1 in range(m):
            col = fa[:, e1]
            if not col.any():
                continue
            out[:, (e1 + e2) % m] += gathered @ col
    return out


def _additive_exact(g: np.ndarray, W: np.ndarray, p: int) -> np.ndarray:
    """raw[i] = sum over l of g[l] * zeta_p^W[i, l], with the exponent of
    zeta_p moved onto the zeta_m axis of g (m = g.shape[1])."""
    # every partial sum of an output entry is bounded by sum|g|
    _check_int64(_abs_sum(g), "exact additive transform")
    m = g.shape[1]
    raw = np.zeros((W.shape[0], m), dtype=np.int64)
    for v in range(p):
        raw += np.roll((W == v).astype(np.int64) @ g, v * (m // p), axis=1)
    return raw


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


def _float_pipeline(svals, twists, psi, svals_err: float):
    """Raw float trace sums over Z/n and a bound on their max error.

    raw[i] = sum over l of (f_1 * ... * f_nu)(l) * psi(l - i), where * is
    cyclic convolution, f_k = svals * twists[k], and svals carries an
    elementwise error of at most svals_err.  Each convolution stage is a
    pointwise product of DFTs and the additive transform is one FFT
    correlation, so the whole table is nu + 2 transforms.

    Error bound: every transform has normwise relative error at most
    eta = _fft_eta(n).  The recurrence tracks a bound E on the 2-norm error
    of the running spectrum S; multiplying in a spectrum X with 2-norm
    error R gives E' = E max|X| + (max|S| + E) R + 8u ||S X||_2 (the last
    term covers the rounding of the complex products).  An input with
    elementwise error e contributes n e to R through the unnormalised DFT,
    and the transform itself eta ||X||_2 / (1 - eta).  The inverse DFT
    divides 2-norms by sqrt(n), and the 2-norm of the final error bounds
    its largest entry.
    """
    n = len(svals)
    eta = _fft_eta(n)
    ratio = eta / (1 - eta) + _EPS  # transform error per unit of output norm
    smax = float(np.abs(svals).max())
    spec = err = None
    for twist in twists:
        x = np.fft.fft(svals * twist)
        xerr = n * (svals_err + smax * _EPS) + ratio * float(np.linalg.norm(x))
        if spec is None:
            spec, err = x, xerr
            continue
        prod = spec * x
        err = (err * float(np.abs(x).max())
               + (float(np.abs(spec).max()) + err) * xerr
               + _EPS * float(np.linalg.norm(prod)))
        spec = prod
    # sum_l g(l) psi(l - i) = ifft(G * K)(i), with K(k) = sum_d psi(d) e^(2 pi i k d / n)
    kern = n * np.fft.ifft(psi)
    kerr = n * _EPS + ratio * float(np.linalg.norm(kern))
    prod = spec * kern
    err = (err * float(np.abs(kern).max())
           + (float(np.abs(spec).max()) + err) * kerr
           + _EPS * float(np.linalg.norm(prod)))
    raw = np.fft.ifft(prod)
    return raw, (err + ratio * float(np.linalg.norm(prod))) / math.sqrt(n)


def trace_table_all(
    field: FieldTable,
    kind: str = "AxB",
    A: int | None = None,
    B: int | None = None,
    mode: str = "float",
) -> TraceTable:
    """Full trace table over K^* via the u-substitution pipeline.

    The tuple sum is restructured as iterated multiplicative convolution of
    the character-twisted one-variable sums, then one additive-character
    transform, all over Z/(q-1) in log coordinates.  The twisted sums come
    from an exact FFT correlation in both modes.  The float path multiplies
    DFTs pointwise and ends in one FFT correlation, O(q log q), with the
    a-priori bound of _float_pipeline; the exact path convolves integer
    vectors over Z[zeta_m], O(q^2), and is capped at q = 2^10.  Spot
    equality with the direct evaluator is enforced by the test suite on
    every supported field size.
    """
    q, n, p = field.q, field.q - 1, field.p
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    cap = _EXACT_Q_CAP if mode == "exact" else _FLOAT_Q_CAP
    if q > cap:
        raise CapExceededError(f"q = {q} exceeds the {mode}-mode table cap {cap}")
    if B is None or math.gcd(B, p) != 1:
        raise ValueError("B must be given and prime to p")
    if kind == "AxB":
        exps = _char_exponents(field, "AxB", A)
        params = {"A": A, "B": B}
    elif kind == "Atimes":
        exps = _char_exponents(field, "Atimes", 0)
        params = {"A": 4 * B, "B": B}
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    nu = len(exps)
    char_order = _char_order_of(field, exps)
    m = math.lcm(p, char_order)
    base_size = p ** multiplicative_order(p, char_order)

    counts = _twisted_counts(field, B)
    logs = np.arange(n, dtype=np.int64)
    sign = -1 if nu % 2 else 1
    neg_shift = 0 if p == 2 else int(field.log[field.neg(1)])
    w_all = field.trace_table[field.antilog]

    if mode == "exact":
        stages = []
        for e in exps:
            fe = np.zeros((n, m), dtype=np.int64)
            ce = ((e * logs) % n) * m // n
            for v in range(p):
                fe[logs, (v * (m // p) + ce) % m] += counts[:, v]
            stages.append(fe)
        idx = (logs[:, None] - logs[None, :]) % n
        g = stages[0]
        for fe in stages[1:]:
            g = _conv_exact(fe, g, idx, m)
        W = w_all[(logs[None, :] + neg_shift - logs[:, None]) % n]
        raw = _additive_exact(g, W, p)
        den = q ** nu
        values = [CycNumber.from_exponent_counts(m, sign * row, den) for row in raw]
        return TraceTable(
            kind, p, params, field, base_size, "exact", nu, m,
            exact_values=values,
        )

    zp = np.exp(2j * np.pi * np.arange(p) / p)
    svals = counts @ zp
    # exact twists: a power of a rounded zeta_n would add error growing with e
    twists = [np.exp(2j * np.pi * ((e * logs) % n) / n) for e in exps]
    psi = zp[w_all[(logs + neg_shift) % n]]
    values, err = _float_pipeline(svals, twists, psi, q * _EPS)
    values *= sign / q ** nu
    total_err = err / q ** nu + float(np.abs(values).max()) * _EPS
    return TraceTable(
        kind, p, params, field, base_size, "float", nu, m,
        float_values=values, float_err=total_err,
    )


# ----------------------------------------------------------------------
# derived operations on tables

def pullback_trace(table: TraceTable, N: int, s: int):
    """Value of the N-th power pullback at s: the table value at s^N.

    At s = 0 the pullback extends across the origin whenever the tame
    local order divides N; the extension value is reported symbolically,
    never extrapolated from the sum formula.
    """
    p = table.p
    if N < 1 or N % p == 0:
        raise ValueError("N must be positive and prime to p")
    if s == 0:
        tame = table.params["A"] * table.params["B"] if table.family == "AxB" \
            else table.params["A"]
        if N % tame:
            raise ValueError(
                f"no extension across s=0: tame order {tame} does not divide N={N}"
            )
        return EXTENSION_AT_ZERO
    return table.value_at_log(int(table.field.log[s]) * N)


def pullback_table(table: TraceTable, N: int) -> TraceTable:
    """The full table of the N-th power pullback over K^*."""
    p = table.p
    if N < 1 or N % p == 0:
        raise ValueError("N must be positive and prime to p")
    n = len(table)
    params = dict(table.params, N=N, base=table.family)
    if table.exact_values is not None:
        values = [table.exact_values[(i * N) % n] for i in range(n)]
        return TraceTable(
            "pullback", p, params, table.field, table.base_size, "exact",
            table.nu, table.value_order, exact_values=values,
        )
    idx = (np.arange(n) * N) % n
    return TraceTable(
        "pullback", p, params, table.field, table.base_size, "float",
        table.nu, table.value_order,
        float_values=table.float_values[idx], float_err=table.float_err,
    )


def moments(table: TraceTable, k: int = 1, exact: bool = False):
    """M_k: the mean of |T(s)|^(2k) over the table."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if exact:
        if table.exact_values is None:
            raise ValueError("exact moments need an exact-mode table")
        total = Fraction(0)
        for v in table.exact_values:
            a2 = v.abs2()
            if k > 1:
                a2 = a2 ** k
            total += a2.as_fraction()
        return total / len(table)
    vals = table.complex_values()
    return float((np.abs(vals) ** (2 * k)).mean())


def frobenius_invariance_check(table: TraceTable, tol: float = 1e-9) -> bool:
    """T(s^(q0)) = T(s) for the base-field size q0."""
    n = len(table)
    q0 = table.base_size
    if table.exact_values is not None:
        return all(
            table.exact_values[(q0 * i) % n] == table.exact_values[i]
            for i in range(n)
        )
    vals = table.float_values
    return bool(np.allclose(vals[(q0 * np.arange(n)) % n], vals, atol=tol, rtol=0))


def galois_invariance_check(table: TraceTable) -> VerificationReport:
    """Invariance of every value under Gal fixing Q(zeta_p): the maps
    zeta_m -> zeta_m^a for a coprime to m, a = 1 mod p; exact mode only."""
    if table.exact_values is None:
        raise ValueError("galois invariance requires an exact-mode table")
    t0 = time.perf_counter()
    m = table.value_order
    p = table.p
    admissible = [
        a for a in range(2, m)
        if math.gcd(a, m) == 1 and a % p == 1 % p
    ]
    variants = []
    for a in admissible:
        cx = []
        for i, v in enumerate(table.exact_values):
            if v.galois(a) != v:
                cx.append(Counterexample(i, str(v.galois(a)), str(v)))
        variants.append(
            VariantReport(f"a={a}", len(table.exact_values), cx, {})
        )
    if not admissible:
        variants.append(VariantReport("identity-only", len(table.exact_values), [], {}))
    return VerificationReport(
        "galois-invariance", p, table.field.k, variants,
        (time.perf_counter() - t0) * 1000.0,
    )


def purity_check(table: TraceTable, rank: int, tol: float = 1e-6) -> bool:
    """Weight-zero bound |T(s)| <= rank for every s."""
    if table.exact_values is not None:
        bound = Fraction(rank) ** 2
        for v in table.exact_values:
            a2 = v.abs2()
            if not a2.is_rational or a2.as_fraction() > bound:
                return False
        return True
    return bool((np.abs(table.float_values) <= rank + tol).all())


def rationality_check(table: TraceTable, tol: float = 1e-9) -> bool:
    """All values rational (exact) or with vanishing imaginary part (float)."""
    if table.exact_values is not None:
        return all(v.is_rational for v in table.exact_values)
    return bool((np.abs(table.float_values.imag) <= tol).all())


def integrality_check(table: TraceTable) -> bool:
    """q^nu * T(s) is an algebraic integer: the reduced denominator of
    every exact value divides q^nu."""
    if table.exact_values is None:
        raise ValueError("integrality requires an exact-mode table")
    den = table.field.q ** table.nu
    return all(den % v.den == 0 for v in table.exact_values)


def table_stats(table: TraceTable) -> dict:
    vals = table.complex_values()
    stats = {
        "family": table.family,
        "p": table.p,
        "A": table.params.get("A"),
        "B": table.params.get("B"),
        "q": table.field.q,
        "M1": moments(table, 1),
        "M2": moments(table, 2),
        "max_abs": float(np.abs(vals).max()),
        "integrality_pass": (
            integrality_check(table) if table.exact_values is not None else None
        ),
        "frobenius_pass": frobenius_invariance_check(table),
    }
    return stats


def export_csv(table: TraceTable, path) -> None:
    """(s_log_index, re, im) for float tables, (s_log_index, exact JSON)
    for exact ones."""
    import json

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if table.exact_values is not None:
            writer.writerow(["s_log_index", "exact"])
            for i, v in enumerate(table.exact_values):
                writer.writerow([i, json.dumps(v.to_json())])
        else:
            writer.writerow(["s_log_index", "re", "im"])
            for i, z in enumerate(table.float_values):
                writer.writerow([i, repr(float(z.real)), repr(float(z.imag))])
