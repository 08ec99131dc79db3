"""Kubert V-function, digit-sum brackets, and exhaustive inequality checks.

The V-function on (Q/Z) prime to p is computed combinatorially: for
x = a/(p^r - 1) in lowest terms with r the multiplicative order of p mod
the denominator, V(x) is the base-p digit sum of a divided by r(p-1).
The digit lemma verifiers check every x below p^r in each leading-digit
variant, recording slack histograms and counterexample lists.

One entry point, `_scan`, checks every x: it counts the slacks of all x
in a histogram and recomputes both sides at an x only when the slack
shows a counterexample.  One class kernel, `_class_counts`, serves the
lemmas and, with every c*x + o reduced mod p^r - 1, the bracket forms
and the criteria.  x = h*P + l has the slack of its l plus that of its
row h and carry class (27 for 3x13, 16 for 4x5, 15 for 28), so the
histograms are exact counts per class and row, and only the rows where
the carry could wrap mod p^r - 1 are scanned x by x.  With P near
sqrt(K p^r) for the lemmas and sqrt(p^r) mod p^r - 1, K = sum(|c| + 1),
a scan takes time about sqrt(p^r); scans of p^r <= 2^14 go x by x.
Forms whose values could leave int64 or int16 raise CapExceededError.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import CapExceededError
from .finite_field import _prime_factors

# the most low values P of a row, and the most x per block scanned x by x
# (a block's int16 slacks fit in L2); a scan of p^r <= _CHUNK // 4 is x by x
_CHUNK = 1 << 16
_SLACK_CAP = 32  # histogram bins: -1 (violation) .. 32 (anything larger clipped)
_CARRY_CAP = 255  # most |c| the carry classes take: they stay few and c*l + u fits int32
_INT16_MAX = int(np.iinfo(np.int16).max)
_INT64_MAX = int(np.iinfo(np.int64).max)

R_CAP = {2: 30, 3: 18}


# ----------------------------------------------------------------------
# digit sums and brackets

def digit_sum(n: int, p: int) -> int:
    """Sum of base-p digits of a nonnegative integer."""
    if n < 0 or p < 2:
        raise ValueError("digit sums need nonnegative integers and a base of at least 2")
    if p == 2:
        return int(n).bit_count()
    s = 0
    while n:
        s += n % p
        n //= p
    return s


@cache
def _digit_sum_table(p: int) -> np.ndarray:
    """uint8 digit sums of 0 .. p^k - 1 for the largest p^k <= 2^15 (3^9 in
    base 3, small enough for the L1 cache), one base-p digit per step."""
    t = np.zeros(1, dtype=np.uint8)
    while len(t) * p <= 1 << 15:
        t = (t[:, None] + np.arange(p, dtype=np.uint8)).ravel()
    t.setflags(write=False)  # shared by every caller
    return t


def _digit_sums(values: np.ndarray, p: int) -> np.ndarray:
    """uint8 digit sums of nonnegative integers (at most 80 below 2^63)."""
    if p == 2:
        return np.bitwise_count(values)
    table = _digit_sum_table(p)
    out = np.zeros(values.shape, dtype=np.uint8)
    while values.max(initial=0) >= len(table):
        high = values // len(table)
        out += table[values - high * len(table)]
        values = high
    return out + table[values]


def digit_sum_vec(values: np.ndarray, p: int) -> np.ndarray:
    """int64 digit sums of nonnegative integers, elementwise."""
    values = np.asarray(values)
    if values.min(initial=0) < 0 or p < 2:
        raise ValueError("digit sums need nonnegative integers and a base of at least 2")
    return _digit_sums(values, p).astype(np.int64)


def _modulus(p: int, r: int) -> int:
    """p^r - 1, the modulus of the brackets."""
    if r < 1 or p < 2:
        raise ValueError("brackets need r of at least 1 and a base of at least 2")
    return p ** r - 1


def bracket(x: int, p: int, r: int) -> int:
    """Digit sum of x reduced mod p^r - 1 into [0, p^r - 1)."""
    return digit_sum(x % _modulus(p, r), p)


def bracket_vec(values: np.ndarray, p: int, r: int) -> np.ndarray:
    """int64 digit sums of the values reduced mod p^r - 1, elementwise."""
    return digit_sum_vec(np.asarray(values) % _modulus(p, r), p)


def multiplicative_order(p: int, m: int) -> int:
    if m <= 0 or math.gcd(p, m) != 1:
        raise ValueError(f"{p} is not invertible mod {m}")
    if m == 1:
        return 1
    r, t = 1, p % m
    while t != 1:
        t = t * p % m
        r += 1
    return r


# ----------------------------------------------------------------------
# the V-function on Q/Z prime to p

def kubert_v(x, p: int) -> Fraction:
    """V(x) for x in (Q/Z) prime to p, any x that `Fraction` takes, read
    mod 1; V(0) = 0."""
    if p < 2:
        raise ValueError("V needs a base of at least 2")
    x = Fraction(x) % 1
    if x == 0:
        return Fraction(0)
    if x.denominator % p == 0:
        raise ValueError(f"denominator {x.denominator} is not prime to {p}")
    r = multiplicative_order(p, x.denominator)
    a = x.numerator * (p ** r - 1) // x.denominator
    return Fraction(digit_sum(a, p), r * (p - 1))


def sequence_AB(r: int) -> tuple[int, int]:
    """The base-2 offsets (A_r, B_r): thirds of 2^r - 1, parity-adjusted."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if r % 2 == 0:
        return (2 ** r - 1) // 3, 2 * (2 ** r - 1) // 3
    return (2 ** (r + 1) - 1) // 3, (2 ** r - 2) // 3


def repunit_scaling_check(x, r: int, k: int, p: int):
    """Digit replication: [x*(p^(kr)-1)/(p^r-1)]_{kr} = k*[x]_r, for one x
    or elementwise for an array of them, in int64."""
    n = _modulus(p, r)
    if p ** (k * r) > _INT64_MAX:
        raise CapExceededError(f"p^(kr) = {p}^{k * r} leaves int64")
    x = np.asarray(x)
    if ((x < 0) | (x >= n)).any():
        raise ValueError("x must lie in [0, p^r - 1)")
    x = x.astype(np.int64)
    rep = x * ((p ** (k * r) - 1) // n)
    ok = bracket_vec(rep, p, k * r) == k * bracket_vec(x, p, r)
    return bool(ok) if ok.ndim == 0 else ok


# ----------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class Counterexample:
    x: object
    lhs: object
    rhs: object

    def to_json(self) -> dict:
        def enc(v):
            return v if isinstance(v, int) else str(v)

        return {"x": enc(self.x), "lhs": enc(self.lhs), "rhs": enc(self.rhs)}


@dataclass
class VariantReport:
    variant: str
    checked: int
    counterexamples: list[Counterexample]
    slack_histogram: dict[int, int]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


@dataclass
class VerificationReport:
    lemma: str
    p: int
    r: int
    variants: list[VariantReport]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.variants)

    @property
    def checked(self) -> int:
        return max((v.checked for v in self.variants), default=0)

    def to_json_records(self) -> list[dict]:
        return [
            {
                "lemma": self.lemma,
                "p": self.p,
                "r": self.r,
                "variant": v.variant,
                "checked": v.checked,
                "counterexamples": [c.to_json() for c in v.counterexamples],
                "slack_histogram": {str(k): n for k, n in sorted(v.slack_histogram.items())},
                "elapsed_ms": round(self.elapsed_ms, 3),
            }
            for v in self.variants
        ]


# ----------------------------------------------------------------------
# the digit lemmas as data

@dataclass(frozen=True)
class Variant:
    """One allowance of a lemma, for r >= min_r, over the x in [0, p^r)
    whose leading `lead` base-p digits, floor(x / p^(r - lead)) with x
    padded to r digits, lie in `allowed`.  The default covers every x;
    lead = 2 with allowed {0} is the scope x < p^(r-2)."""

    name: str
    allowance: int
    lead: int = 0
    allowed: frozenset = frozenset({0})
    min_r: int = 1

    def ranges(self, p: int, r: int) -> list[tuple[int, int]]:
        """The covered x as half-open intervals: leading digits v are the
        x with v * p^r <= x * p^lead < (v + 1) * p^r."""
        def cut(v):
            return -(-v * p ** r // p ** self.lead)

        return [(cut(v), cut(v + 1)) for v in sorted(self.allowed)]


@dataclass(frozen=True)
class Lemma:
    """sum over lhs of [c*x + o] <= sum over rhs of [c*x + o] + allowance.

    Forms are (c, o) with o an offset name: "" is 0, "A" and "B" are A_r
    and B_r (see `offsets`).  The lemma reads [.] as the digit sum of x in
    [0, p^r); the bracket corollary and the sharp form read it mod p^r - 1
    over 0 < x < p^r - 1, with `bracket_allowance` and 0.  `r_ext` is the
    exhaustive range r <= r_ext of C1-C3 and of `verify-digit-lemma` by
    default, beyond the smallest range the proofs need.
    """

    p: int
    lhs: tuple
    rhs: tuple
    variants: tuple
    bracket_allowance: int
    r_ext: int
    even_r_brackets: bool = False  # A_r, B_r are thirds of 2^r - 1 only for even r

    def offsets(self, r: int) -> dict[str, int]:
        """A_r, B_r = sequence_AB(r) in base 2; A_r = (3^r - 1)/2 in base 3."""
        if self.p == 2:
            A, B = sequence_AB(r)
            return {"": 0, "A": A, "B": B}
        return {"": 0, "A": (self.p ** r - 1) // 2}

    def forms(self, r: int) -> tuple[list, list]:
        off = self.offsets(r)
        return ([(c, off[o]) for c, o in self.lhs],
                [(c, off[o]) for c, o in self.rhs])


LEMMAS = {
    "3x13": Lemma(
        2, ((13, "A"), (13, "B")), ((1, ""), (1, "A"), (1, "B")),
        (
            Variant("plus4", 4),
            Variant("plus2", 2, lead=4, min_r=4,
                    allowed=frozenset(range(16)) - {0b0100, 0b1000, 0b1001}),
            Variant("plus0", 0, lead=4, min_r=4, allowed=frozenset({0b1010})),
            Variant("plus1", 1, lead=2, allowed=frozenset({0})),
        ),
        bracket_allowance=5, r_ext=24, even_r_brackets=True,
    ),
    "4x5": Lemma(
        3, ((5, "A"), (10, "A")), ((1, ""), (1, "A"), (2, "A")),
        (
            Variant("plus2", 2),
            Variant("plus0", 0, lead=2, min_r=2,  # away from 10, 11, 21
                    allowed=frozenset(range(9)) - {3, 4, 7}),
        ),
        bracket_allowance=6, r_ext=14,
    ),
    "28": Lemma(
        3, ((14, "A"),), ((1, ""), (2, "A")), (Variant("plus1", 1),),
        bracket_allowance=3, r_ext=12,
    ),
}


# ----------------------------------------------------------------------
# the exhaustive scan

def _slack_range(p: int, r: int, lhs, rhs, n: int | None) -> tuple[int, int]:
    """(off, bins): every slack lies in [-off, bins - off).  A side's
    digit-sum total is at most (p - 1) times the base-p digit count of
    the largest c*x + o, summed over its forms.  Raises CapExceededError
    when some c*x + o could pass int64 or a slack could leave int16."""
    xmax = p ** r - 1 if n is None else n - 1

    def bound(forms):
        total = 0
        for c, o in forms:
            reach = abs(c) * xmax + abs(o)
            if reach > _INT64_MAX:
                raise CapExceededError(f"a form c*x + o passes int64 at r={r}")
            top = reach if n is None else n - 1
            digits = 1
            while top >= p:
                top //= p
                digits += 1
            total += (p - 1) * digits
        return total

    off = bound(lhs)
    bins = off + bound(rhs) + 1
    if bins > _INT16_MAX:
        raise CapExceededError(f"digit-sum totals at r={r} could leave int16")
    return off, bins


def _form_sum(xs: np.ndarray, forms, p: int, n: int | None) -> np.ndarray:
    """int16 sum over the forms of the digit sums of c*x + o (mod n)."""
    total = np.zeros(xs.shape, dtype=np.int16)
    for c, o in forms:
        if (c, o) == (1, 0):
            v = xs  # below n already
        else:
            v = c * xs + o
            if n is not None:
                v -= v // n * n  # numpy's // by a scalar avoids the hardware division % runs
        total += _digit_sums(v, p)
    return total


def _class_counts(p: int, r: int, lhs, rhs, variants, n: int | None, off: int, bins: int):
    """(slack counts, arrays of violating x) per variant, with bin i
    counting slack i - off: over [0, p^r), or over [1, n) with every
    form reduced mod n.

    With x = h*P + l (P a power of p dividing every p^(r - lead), so each
    scope is whole rows), a form's row value c*h*P + o (mod n) is
    hi*P + u, u < P, and c*l + u = q*P + m, m < P.  Wherever
    0 <= hi + q <= G - 2, or always without n, the digit sum of c*x + o is
    s(m) + s(hi + q), so the slack of x is const[l] plus D[h, k] at the
    carries k of l.  u, the low offset plus the row's end-around carry,
    takes few values: consecutive rows with one tuple of u share their
    low tables, in which each carry is monotone in l, so the l with one
    carry tuple form a run, a carry class.  The anti-diagonal sums of
    H.T @ C, with H[k] the histogram of const and C[k] that of D over a
    variant's rows, count its slacks, and only the cells (h, k) whose
    least slack breaks the allowance are expanded to their x.  Mod n the
    rows where hi + q could leave [0, G - 2] and those of x = 0 and x = n
    are scanned x by x, in blocks of at most _CHUNK x, and so are all
    rows of a form with |c| > _CARRY_CAP, and all if p^r <= _CHUNK // 4.
    Both paths add into one histogram per variant.  A scan costs about P
    per low table and per x-by-x row, and K = sum(|c| + 1) per row: P is
    the largest power of p to sqrt(K p^r), or sqrt(p^r) mod n, where about
    K rows wrap."""
    lead = max((v.lead for v in variants), default=0)
    K = sum(abs(c) + 1 for c, _ in [*lhs, *rhs])
    cap = min(_CHUNK, p ** max(r - lead, 0), math.isqrt(p ** r * (K if n is None else 1)))
    P = 1
    while P * p <= cap:
        P *= p
    G = p ** r // P
    forms = np.array([*rhs, *lhs], dtype=np.int64).reshape(-1, 2)
    sign = [1] * len(rhs) + [-1] * len(lhs)
    c, o = forms[:, :1], forms[:, 1:]
    top = c * P * np.arange(G) + o  # each form's value at l = 0, per row
    if n is None:
        if (forms < 0).any():
            raise ValueError("the split kernel needs forms c*x + o with c, o >= 0")
        hi, u = np.divmod(top, P)
        edge = np.zeros(G, dtype=bool)
    else:
        hi, u = np.divmod(top % n, P)
        # the rows where the carry could wrap
        edge = ((hi + np.minimum(c, 0) < 0) | (hi + np.maximum(c, 0) >= G - 1)).any(axis=0)
        edge[[0, -1]] = True
    edge |= bool((np.abs(c) > _CARRY_CAP).any()) or p ** r <= _CHUNK // 4  # scanned x by x
    hists = [np.zeros(bins, dtype=np.int64) for _ in variants]
    found = [[] for _ in variants]

    inner = np.flatnonzero(~edge)
    if inner.size:
        U = u[:, inner]
        new_run = np.ones(inner.size, dtype=bool)
        new_run[1:] = (U[:, 1:] != U[:, :-1]).any(axis=0)
        run, U = np.cumsum(new_run) - 1, U[:, new_run].astype(np.int32)
        low = np.arange(P, dtype=np.int32)  # c*l + u < 2^8 * P fits while _CHUNK < 2^23
        const = np.zeros((U.shape[1], P), dtype=np.int16)
        new = np.zeros(const.shape, dtype=bool)  # the l where some carry steps: a class starts
        new[:, 0] = True
        for sf, cf, uf in zip(sign, c[:, 0].tolist(), U):
            q, m = np.divmod(uf[:, None] + cf * low, P)
            const += sf * _digit_sums(m, p).astype(np.int16)
            new[:, 1:] |= q[:, 1:] != q[:, :-1]
        const, new = const.ravel(), new.ravel()
        starts = np.flatnonzero(new)  # the classes, run by run
        ends = np.append(starts[1:], const.size)
        cls_run = starts // P
        cmin = int(const.min())
        nc = int(const.max()) - cmin + 1
        H = np.bincount((np.cumsum(new) - 1) * nc + const - cmin,
                        minlength=starts.size * nc).reshape(-1, nc)
        kmin = np.minimum.reduceat(const, starts)
        # the cells (row, class of its run), by row, then by class, so their x come out ascending
        first = np.searchsorted(cls_run, np.arange(U.shape[1] + 1))
        width = np.diff(first)[run]
        cell_row = np.repeat(inner, width)
        cell_cls = np.arange(cell_row.size) + np.repeat(first[run] + width - np.cumsum(width),
                                                        width)
        D = np.zeros(cell_row.size, dtype=np.int16)
        for sf, cf, uf, hf in zip(sign, c[:, 0].tolist(), U, hi):
            q = (uf[cls_run] + cf * (starts - cls_run * P)) // P
            D += sf * _digit_sums(hf[cell_row] + q[cell_cls], p).astype(np.int16)
        dmin = int(D.min())
        nd = int(D.max()) - dmin + 1
        key = cell_cls * nd + D - dmin
        least = D + kmin[cell_cls]  # the least slack of each cell
        for v, hist, xs in zip(variants, hists, found):
            rows = np.zeros(G, dtype=bool)
            for a, b in v.ranges(p, r):
                rows[a // P:b // P] = True
            sel = rows[cell_row]
            C = np.bincount(key[sel], minlength=starts.size * nd).reshape(-1, nd)
            # anti-diagonal sums of H.T @ C: rereading padded rows one shorter shifts row i by i
            sums = np.zeros((nc, nc + nd), dtype=np.int64)
            sums[:, :nd] = H.T @ C
            got = sums.ravel()[:nc * (nc + nd - 1)].reshape(nc, -1).sum(axis=0)
            lo = cmin + dmin + off  # the bin of got[0]
            keep = got[max(-lo, 0):max(bins - lo, 0)]
            if keep.sum() != got.sum():
                raise AssertionError("a class count falls outside the slack bounds")
            hist[max(lo, 0):max(lo, 0) + keep.size] += keep
            for cell in np.flatnonzero(sel & (least < -v.allowance)):
                k = cell_cls[cell]
                xs.append(cell_row[cell] * P + starts[k] % P
                          + np.flatnonzero(const[starts[k]:ends[k]] < -v.allowance - D[cell]))

    rows = np.flatnonzero(edge)
    first, last = (0, p ** r) if n is None else (1, n)  # mod n, 0 < x < n
    step = max(_CHUNK // P, 1)
    for i in range(0, rows.size, step):
        xs = (rows[i:i + step, None] * P + np.arange(P)).ravel()
        slack = _form_sum(xs, rhs, p, n) - _form_sum(xs, lhs, p, n)
        for v, hist, bad in zip(variants, hists, found):
            for a, b in v.ranges(p, r):
                part = slice(*np.searchsorted(xs, (max(a, first), min(b, last))))
                got = np.bincount(slack[part] + off, minlength=bins)
                hist += got
                if got[:max(off - v.allowance, 0)].any():
                    bad.append(xs[part][slack[part] < -v.allowance])
    return list(zip(hists, found))


def _scan(p, r, lhs, rhs, variants, n=None) -> list[VariantReport]:
    """Check sum over lhs <= sum over rhs + allowance of every variant at
    each x, where a form (c, o) contributes the base-p digit sum of
    c*x + o.  Without n, x runs over [0, p^r); with n = p^r - 1, over
    [1, n) with every c*x + o reduced mod n."""
    off, bins = _slack_range(p, r, lhs, rhs, n)
    reports = []
    for v, (counts, xs) in zip(variants, _class_counts(p, r, lhs, rhs, variants, n, off, bins)):
        hist = np.zeros(_SLACK_CAP + 2, dtype=np.int64)
        np.add.at(hist, np.clip(np.arange(bins) - off + v.allowance, -1, _SLACK_CAP) + 1, counts)
        cx = []
        if xs:
            xs = np.sort(np.concatenate(xs))
            rhs_total = [t + v.allowance for t in _form_sum(xs, rhs, p, n).tolist()]
            cx = list(map(Counterexample, xs.tolist(),
                          _form_sum(xs, lhs, p, n).tolist(), rhs_total))
        reports.append(VariantReport(v.name, int(hist.sum()), cx,
                                     {b - 1: int(k) for b, k in enumerate(hist) if k}))
    return reports


def _require_r(p: int, r: int) -> None:
    if not 1 <= r <= R_CAP[p]:
        raise CapExceededError(f"r={r} outside 1..{R_CAP[p]} for base {p}")


def _verify_lemma(family: str, r: int) -> VerificationReport:
    t0 = time.perf_counter()
    lemma = LEMMAS[family]
    _require_r(lemma.p, r)
    variants = [v for v in lemma.variants if r >= v.min_r]
    variants = _scan(lemma.p, r, *lemma.forms(r), variants)
    return VerificationReport(f"lemma-{family}", lemma.p, r, variants,
                              (time.perf_counter() - t0) * 1000.0)


def verify_lemma_3x13(r: int) -> VerificationReport:
    """Exhaustive base-2 digit lemma for multiplication by 13.

    For every 0 <= x < 2^r checks
    [13x+A_r] + [13x+B_r] <= [x] + [x+A_r] + [x+B_r] + c
    with c = 4 always, c = 2 away from leading digits 0100/1000/1001,
    c = 1 for x < 2^(r-2), and c = 0 for leading digits 1010 (leading
    digits read after zero-padding to exactly r digits).
    """
    return _verify_lemma("3x13", r)


def verify_lemma_4x5(r: int) -> VerificationReport:
    """Exhaustive base-3 digit lemma for multiplication by 5 and 10.

    For every 0 <= x < 3^r, with A_r = (3^r-1)/2, checks
    [5x+A_r] + [10x+A_r] <= [x] + [x+A_r] + [2x+A_r] + c
    with c = 2 always and c = 0 when the two leading digits avoid
    10, 11, 21.
    """
    return _verify_lemma("4x5", r)


def verify_lemma_28(r: int) -> VerificationReport:
    """Exhaustive base-3 digit lemma for multiplication by 14:
    [14x+A_r] <= [x] + [2x+A_r] + 1 for 0 <= x < 3^r."""
    return _verify_lemma("28", r)


def verify_brackets(family: str, r: int) -> tuple[VerificationReport, VerificationReport]:
    """The bracket corollary and the sharp inequality of a family at r,
    from one scan over 0 < x < p^r - 1.

    Both compare the same forms, reduced mod p^r - 1, and differ only in
    the allowance: `bracket_allowance` for the corollary (variant
    bracket_plus<a>), 0 for the sharp form (variant sharp).  Each report
    carries the scan's elapsed time.  The 3x13 family is stated for even r
    only.  Returns (corollary, sharp).
    """
    t0 = time.perf_counter()
    if family not in LEMMAS:
        raise ValueError(f"unknown family {family!r}")
    lemma = LEMMAS[family]
    p = lemma.p
    _require_r(p, r)
    if lemma.even_r_brackets and r % 2:
        raise ValueError(f"the base-{p} bracket forms require even r")
    allowance = lemma.bracket_allowance
    corollary, sharp = _scan(
        p, r, *lemma.forms(r),
        [Variant(f"bracket_plus{allowance}", allowance), Variant("sharp", 0)],
        p ** r - 1)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return (VerificationReport(f"corollary-{family}", p, r, [corollary], elapsed_ms),
            VerificationReport(f"sharp-{family}", p, r, [sharp], elapsed_ms))


def bracket_reports(family: str, r_max: int) -> list[VerificationReport]:
    """The bracket forms of a family for r <= r_max, in order of r: the
    corollary at every r they are stated for (even r only where
    `even_r_brackets`), and after it the sharp form from r = 2 on."""
    reports = []
    for r in range(1, r_max + 1):
        if LEMMAS[family].even_r_brackets and r % 2:
            continue
        corollary, sharp = verify_brackets(family, r)
        reports += [corollary, sharp] if r >= 2 else [corollary]
    return reports


# ----------------------------------------------------------------------
# finite-monodromy criteria

@dataclass
class CriterionReport:
    checked: int
    counterexamples: list[Counterexample]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _check_criterion(p, r_max, big, small, constant) -> CriterionReport:
    """sum over big of V(cx) + constant >= sum over small of V(cx).

    At x = a/n, n = p^r - 1, r <= r_max, r(p-1) V(cx) is the digit sum of
    c*a mod n.  The hand set x in (1/hand)Z, hand the lcm of the c, checks
    the full statement, with the constant spelled V(x) + V(-x).
    """
    hand = math.lcm(*big, *small)
    checked = 0
    cx: list[Counterexample] = []
    for r in range(1, r_max + 1):
        _require_r(p, r)
        n = p ** r - 1
        (rep,) = _scan(p, r, [(c, 0) for c in small], [(c, 0) for c in big],
                       [Variant("", constant * r * (p - 1))], n)
        checked += rep.checked
        cx += [Counterexample(Fraction(c.x, n), c.rhs, c.lhs) for c in rep.counterexamples]
    for a in range(hand):
        x = Fraction(a, hand)
        lhs = sum(kubert_v(c * x, p) for c in big) + constant * (
            kubert_v(x, p) + kubert_v(-x, p))
        rhs = sum(kubert_v(c * x, p) for c in small)
        checked += 1
        if lhs < rhs:
            cx.append(Counterexample(x, lhs, rhs))
    return CriterionReport(checked, cx)


def check_criterion_AxB(p: int, A: int, B: int, r_max: int) -> CriterionReport:
    """V(ABx) + 1 >= V(Ax) + V(Bx) over denominators p^r - 1, r <= r_max,
    plus the full-statement check on the hand set x in (1/AB)Z."""
    if math.gcd(A * B, p) != 1:
        raise ValueError("A and B must be prime to p")
    return _check_criterion(p, r_max, big=(A * B,), small=(A, B), constant=1)


def check_criterion_Atimes(p: int, A: int, r_max: int) -> CriterionReport:
    """V(Ax) + V(Ax/(p1 p2)) + V(-x) >= V(Ax/p1) + V(Ax/p2) over
    denominators p^r - 1, p1 and p2 the two primes dividing A, plus the
    hand set x in (1/A)Z."""
    if math.gcd(A, p) != 1:
        raise ValueError("A must be prime to p")
    primes = _prime_factors(A)
    if len(primes) != 2:
        raise ValueError(f"A = {A} must have exactly two prime factors, not {primes}")
    p1, p2 = primes
    return _check_criterion(p, r_max, big=(A, A // (p1 * p2), -1),
                            small=(A // p1, A // p2), constant=0)
