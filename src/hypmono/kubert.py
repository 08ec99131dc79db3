"""Kubert V-function, digit-sum brackets, and exhaustive inequality checks.

The V-function on (Q/Z) prime to p is computed combinatorially: for
x = a/(p^r - 1) in lowest terms with r the multiplicative order of p mod
the denominator, V(x) is the base-p digit sum of a divided by r(p-1).
The digit lemma verifiers enumerate every x below p^r and check the
bracket inequalities in all their leading-digit variants, recording slack
histograms and (expected empty) counterexample lists.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import CapExceededError
from .finite_field import _prime_factors

_CHUNK = 1 << 22
_SLACK_CAP = 32  # histogram bins: -1 (violation) .. 32 (anything larger clipped)

R_CAP = {2: 30, 3: 18}


# ----------------------------------------------------------------------
# digit sums and brackets

def digit_sum(n: int, p: int) -> int:
    """Sum of base-p digits of a nonnegative integer."""
    if n < 0:
        raise ValueError("digit sums are defined for nonnegative integers")
    if p == 2:
        return int(n).bit_count()
    s = 0
    while n:
        s += n % p
        n //= p
    return s


@cache
def _digit_sum_table(p: int) -> np.ndarray:
    """Digit sums of 0 .. p^8 - 1, one base-p digit appended per step."""
    t = np.zeros(1, dtype=np.int64)
    for _ in range(8):
        t = (t[:, None] + np.arange(p)).ravel()
    t.setflags(write=False)  # shared by every caller
    return t


def digit_sum_vec(values: np.ndarray, p: int) -> np.ndarray:
    values = np.asarray(values)
    if p == 2:
        return np.bitwise_count(values).astype(np.int64)
    table = _digit_sum_table(p)
    v, low = np.divmod(values.astype(np.int64), len(table))
    out = table[low]
    while v.max(initial=0) > 0:
        v, low = np.divmod(v, len(table))
        out += table[low]
    return out


def bracket(x: int, p: int, r: int) -> int:
    """Digit sum of x reduced mod p^r - 1 into [0, p^r - 1)."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return digit_sum(x % (p ** r - 1), p)


def bracket_vec(values: np.ndarray, p: int, r: int) -> np.ndarray:
    return digit_sum_vec(np.asarray(values) % (p ** r - 1), p)


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
# Q/Z prime to p, and the V-function

@dataclass(frozen=True)
class QmodZ:
    """Element a/m of Q/Z, stored reduced with 0 <= a < m."""

    a: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("denominator must be positive")
        a = self.a % self.m
        g = math.gcd(a, self.m)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "m", self.m // g)

    @classmethod
    def from_fraction(cls, fr) -> "QmodZ":
        fr = Fraction(fr)
        return cls(fr.numerator, fr.denominator)

    def __neg__(self) -> "QmodZ":
        return QmodZ(self.m - self.a, self.m)

    def __add__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ.from_fraction(self.to_fraction() + other.to_fraction())

    def scale(self, n: int) -> "QmodZ":
        return QmodZ(self.a * n, self.m)

    @property
    def is_zero(self) -> bool:
        return self.a == 0

    def to_fraction(self) -> Fraction:
        return Fraction(self.a, self.m)

    def __str__(self):
        return f"{self.a}/{self.m}"


def kubert_v(x, p: int) -> Fraction:
    """V(x) for x in (Q/Z) prime to p; V(0) = 0."""
    if not isinstance(x, QmodZ):
        x = QmodZ.from_fraction(Fraction(x))
    if x.is_zero:
        return Fraction(0)
    if x.m % p == 0:
        raise ValueError(f"denominator {x.m} is not prime to {p}")
    r = multiplicative_order(p, x.m)
    a = x.a * (p ** r - 1) // x.m
    return Fraction(digit_sum(a, p), r * (p - 1))


def sequence_AB(r: int) -> tuple[int, int]:
    """The base-2 offsets (A_r, B_r): thirds of 2^r - 1, parity-adjusted."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if r % 2 == 0:
        return (2 ** r - 1) // 3, 2 * (2 ** r - 1) // 3
    return (2 ** (r + 1) - 1) // 3, (2 ** r - 2) // 3


def repunit_scaling_check(x: int, r: int, k: int, p: int) -> bool:
    """Digit replication: [x*(p^(kr)-1)/(p^r-1)]_{kr} = k*[x]_r."""
    if not 0 <= x < p ** r - 1:
        raise ValueError("x must lie in [0, p^r - 1)")
    rep = x * (p ** (k * r) - 1) // (p ** r - 1)
    return bracket(rep, p, k * r) == k * bracket(x, p, r)


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
    over 0 < x < p^r - 1, with `bracket_allowance` and 0.
    """

    p: int
    lhs: tuple
    rhs: tuple
    variants: tuple
    bracket_allowance: int
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
        bracket_allowance=5, even_r_brackets=True,
    ),
    "4x5": Lemma(
        3, ((5, "A"), (10, "A")), ((1, ""), (1, "A"), (2, "A")),
        (
            Variant("plus2", 2),
            Variant("plus0", 0, lead=2, min_r=2,  # away from 10, 11, 21
                    allowed=frozenset(range(9)) - {3, 4, 7}),
        ),
        bracket_allowance=6,
    ),
    "28": Lemma(
        3, ((14, "A"),), ((1, ""), (2, "A")), (Variant("plus1", 1),),
        bracket_allowance=3,
    ),
}


# ----------------------------------------------------------------------
# the chunked exhaustive scan

def _form_sum(xs: np.ndarray, forms, p: int, n: int | None) -> np.ndarray:
    total = 0
    for c, o in forms:
        v = xs if (c, o) == (1, 0) else c * xs + o
        total = total + digit_sum_vec(v if n is None else v % n, p)
    return total


def _scan(p, r, lo, hi, lhs, rhs, variants, n=None) -> list[VariantReport]:
    """Check sum over lhs <= sum over rhs + allowance of every variant for
    each x in [lo, hi), where a form (c, o) contributes the base-p digit
    sum of c*x + o, reduced mod n when n is given."""
    spans = [v.ranges(p, r) for v in variants]
    checked = [0] * len(variants)
    hists = [np.zeros(_SLACK_CAP + 2, dtype=np.int64) for _ in variants]
    cxs: list[list[Counterexample]] = [[] for _ in variants]
    for start in range(lo, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
        xs = np.arange(start, stop, dtype=np.int64)
        small = _form_sum(xs, lhs, p, n)
        big = _form_sum(xs, rhs, p, n)
        slack = big - small
        for i, v in enumerate(variants):
            for a, b in spans[i]:
                a, b = max(a, start), min(b, stop)
                if a >= b:
                    continue
                sl = slice(a - start, b - start)
                s = slack[sl] + v.allowance
                hists[i] += np.bincount(np.clip(s, -1, _SLACK_CAP) + 1,
                                        minlength=_SLACK_CAP + 2)
                checked[i] += s.size
                bad = np.flatnonzero(s < 0)
                cxs[i] += map(Counterexample, xs[sl][bad].tolist(),
                              small[sl][bad].tolist(),
                              (big[sl][bad] + v.allowance).tolist())
    return [
        VariantReport(v.name, k, cx, {b - 1: int(c) for b, c in enumerate(h) if c})
        for v, k, h, cx in zip(variants, checked, hists, cxs)
    ]


def _require_r(p: int, r: int) -> None:
    if not 1 <= r <= R_CAP[p]:
        raise CapExceededError(f"r={r} outside 1..{R_CAP[p]} for base {p}")


def _verify_lemma(family: str, r: int) -> VerificationReport:
    t0 = time.perf_counter()
    lemma = LEMMAS[family]
    _require_r(lemma.p, r)
    variants = [v for v in lemma.variants if r >= v.min_r]
    variants = _scan(lemma.p, r, 0, lemma.p ** r, *lemma.forms(r), variants)
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


def _verify_brackets(family: str, r: int, sharp: bool) -> VerificationReport:
    t0 = time.perf_counter()
    if family not in LEMMAS:
        raise ValueError(f"unknown family {family!r}")
    lemma = LEMMAS[family]
    p = lemma.p
    _require_r(p, r)
    if lemma.even_r_brackets and r % 2:
        kind = "sharp inequality" if sharp else "bracket corollary"
        raise ValueError(f"the base-{p} {kind} requires even r")
    if sharp:
        name, variant = f"sharp-{family}", Variant("sharp", 0)
    else:
        allowance = lemma.bracket_allowance
        name = f"corollary-{family}"
        variant = Variant(f"bracket_plus{allowance}", allowance)
    n = p ** r - 1
    variants = _scan(p, r, 1, n, *lemma.forms(r), [variant], n)
    return VerificationReport(name, p, r, variants, (time.perf_counter() - t0) * 1000.0)


def verify_bracket_corollaries(family: str, r: int) -> VerificationReport:
    """Bracket-level corollaries over 0 < x < p^r - 1.

    Slack allowances: 5 for the 3x13 family (even r only), 6 for 4x5,
    3 for the 28 family.
    """
    return _verify_brackets(family, r, sharp=False)


def verify_sharp_inequality(family: str, r: int) -> VerificationReport:
    """The zero-slack bracket inequality over 0 < x < p^r - 1.

    This is the finite-level form of the finite-monodromy criterion;
    the 3x13 family is stated for even r only.
    """
    return _verify_brackets(family, r, sharp=True)


# ----------------------------------------------------------------------
# finite-monodromy criteria

@dataclass
class CriterionReport:
    criterion: str
    p: int
    params: tuple
    r_max: int
    checked: int
    counterexamples: list[Counterexample] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "p": self.p,
            "params": list(self.params),
            "r_max": self.r_max,
            "checked": self.checked,
            "counterexamples": [c.to_json() for c in self.counterexamples],
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass(frozen=True)
class Criterion:
    """sum over big of V(cx) + constant >= sum over small of V(cx).

    At x = a/n, n = p^r - 1, r(p-1) V(cx) is the digit sum of c*a mod n.
    The hand set x in (1/hand)Z checks the full statement, with the
    constant spelled V(x) + V(-x).
    """

    name: str
    p: int
    params: tuple
    big: tuple
    small: tuple
    constant: int
    hand: int


def _check_criterion(crit: Criterion, r_max: int) -> CriterionReport:
    t0 = time.perf_counter()
    p = crit.p
    checked = 0
    cx: list[Counterexample] = []
    for r in range(1, r_max + 1):
        _require_r(p, r)
        n = p ** r - 1
        (rep,) = _scan(p, r, 1, n, [(c, 0) for c in crit.small],
                       [(c, 0) for c in crit.big],
                       [Variant("", crit.constant * r * (p - 1))], n)
        checked += rep.checked
        cx += [Counterexample(QmodZ(c.x, n), c.rhs, c.lhs) for c in rep.counterexamples]
    for a in range(crit.hand):
        x = QmodZ(a, crit.hand)
        big = sum(kubert_v(x.scale(c), p) for c in crit.big) + crit.constant * (
            kubert_v(x, p) + kubert_v(-x, p))
        small = sum(kubert_v(x.scale(c), p) for c in crit.small)
        checked += 1
        if big < small:
            cx.append(Counterexample(x, big, small))
    return CriterionReport(crit.name, p, crit.params, r_max, checked, cx,
                           (time.perf_counter() - t0) * 1000.0)


def check_criterion_AxB(p: int, A: int, B: int, r_max: int) -> CriterionReport:
    """V(ABx) + 1 >= V(Ax) + V(Bx) over denominators p^r - 1, r <= r_max,
    plus the full-statement check on the hand set x in (1/AB)Z."""
    if math.gcd(A * B, p) != 1:
        raise ValueError("A and B must be prime to p")
    return _check_criterion(
        Criterion("AxB", p, (A, B), big=(A * B,), small=(A, B), constant=1, hand=A * B),
        r_max)


def check_criterion_Atimes(
    p: int, p1: int, p2: int, A: int, r_max: int
) -> CriterionReport:
    """V(Ax) + V(Ax/(p1 p2)) + V(-x) >= V(Ax/p1) + V(Ax/p2) over
    denominators p^r - 1, plus the hand set x in (1/A)Z."""
    if math.gcd(A, p) != 1:
        raise ValueError("A must be prime to p")
    if set(_prime_factors(A)) != {p1, p2}:
        raise ValueError(f"A = {A} must be divisible by exactly {{{p1}, {p2}}}")
    return _check_criterion(
        Criterion("Atimes", p, (p1, p2, A), big=(A, A // (p1 * p2), -1),
                  small=(A // p1, A // p2), constant=0, hand=A),
        r_max)
