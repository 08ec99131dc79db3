"""Combinatorial classification of hypergeometric parameter sets.

Characters are represented as residues mod a common order lattice M prime
to p (the residue j stands for the character sending a fixed generator to
zeta_M^j), so every test here is arithmetic on multisets of residues or of
fractions in Q/Z: stability detection for Kummer pushforwards, the three
Belyi pushforward shapes, self-duality, determinant triviality, and the
shape of wild inertia at infinity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .kubert import multiplicative_order

__all__ = [
    "HypSpec",
    "BelyiMatch",
    "build_AxB",
    "build_Atimes",
    "build_spec",
    "kummer_induction_candidates",
    "belyi_induction_match",
    "primitivity_verdict",
    "selfdual_test",
    "det_product_check",
    "inertia_model",
    "classification_report",
]


@dataclass(frozen=True)
class HypSpec:
    """Characteristic p, order lattice M, and the two residue multisets."""

    p: int
    M: int
    upstairs: tuple[int, ...]
    downstairs: tuple[int, ...]

    def __post_init__(self):
        if math.gcd(self.M, self.p) != 1:
            raise ValueError("the order lattice must be prime to p")
        up = tuple(sorted(r % self.M for r in self.upstairs))
        down = tuple(sorted(r % self.M for r in self.downstairs))
        if set(up) & set(down):
            raise ValueError("upstairs and downstairs characters must be disjoint")
        if len(up) <= len(down):
            raise ValueError("need more upstairs than downstairs characters")
        object.__setattr__(self, "upstairs", up)
        object.__setattr__(self, "downstairs", down)

    @property
    def n(self) -> int:
        return len(self.upstairs)

    @property
    def m(self) -> int:
        return len(self.downstairs)

    def as_fractions(self) -> tuple[list[Fraction], list[Fraction]]:
        up = [Fraction(r, self.M) for r in self.upstairs]
        down = [Fraction(r, self.M) for r in self.downstairs]
        return up, down


def build_AxB(p: int, A: int, B: int) -> HypSpec:
    """Upstairs: the (A-1)(B-1) products of nontrivial characters of
    orders dividing A and B; downstairs: the trivial character."""
    if math.gcd(A, B) != 1:
        raise ValueError("A and B must be coprime")
    if A < 3 or B < 3 or A % p == 0 or B % p == 0:
        raise ValueError("need A, B >= 3 prime to p")
    M = A * B
    upstairs = [(a * B + b * A) % M for a in range(1, A) for b in range(1, B)]
    if len(set(upstairs)) != (A - 1) * (B - 1):
        raise AssertionError("product characters are not pairwise distinct")
    return HypSpec(p, M, tuple(upstairs), (0,))


def build_Atimes(p: int, A: int) -> HypSpec:
    """Upstairs: the phi(A) characters of exact order A; downstairs
    trivial."""
    if A < 7 or A % p == 0:
        raise ValueError("need A >= 7 prime to p")
    upstairs = [u for u in range(1, A) if math.gcd(u, A) == 1]
    return HypSpec(p, A, tuple(upstairs), (0,))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41, which decides every
    n < 3.3 * 10^24 (Sorenson and Webster 2017); above, n passed 13 strong
    probable-prime tests.  Trial division would take minutes at 10^18."""
    if n < 2 or n in _MR_BASES:
        return n in _MR_BASES
    if any(n % a == 0 for a in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def build_spec(kind: str, p: int, A: int, B: int | None = None) -> HypSpec:
    """The spec of a family kind: `build_AxB(p, A, B)` for 'AxB',
    `build_Atimes(p, A)` for 'Atimes' (which does not read B).  p must be
    a prime."""
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    if kind == "AxB":
        return build_AxB(p, A, B)
    if kind == "Atimes":
        return build_Atimes(p, A)
    raise ValueError(f"unknown family kind {kind!r}")


# ----------------------------------------------------------------------
# Kummer pushforward detection

def kummer_induction_candidates(spec: HypSpec) -> list[int]:
    """Degrees N >= 2 prime to p with N | n, N | m and both residue
    multisets stable under the shift by 1/N, which generates the shifts
    by every character of order dividing N."""
    n, m = spec.n, spec.m
    limit = n if m == 0 else math.gcd(n, m)
    degrees = [N for N in range(2, limit + 1) if limit % N == 0 and N % spec.p]
    sides = [sorted(side) for side in spec.as_fractions()] if degrees else []
    return [N for N in degrees
            if all(sorted((x + Fraction(1, N)) % 1 for x in side) == side for side in sides)]


# ----------------------------------------------------------------------
# Belyi pushforward detection

@dataclass(frozen=True)
class BelyiMatch:
    case: str  # 'a' | 'b' | 'c'
    A: int
    B: int
    r: int
    d0: int
    lam: Fraction
    sigma: Fraction

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "A": self.A,
            "B": self.B,
            "r": self.r,
            "d0": self.d0,
            "lambda": str(self.lam),
            "sigma": str(self.sigma),
        }


def _roots(target: Fraction, k: int) -> list[Fraction]:
    """The k preimages of target under multiplication by k in Q/Z."""
    return [Fraction(target.numerator + j * target.denominator,
                     target.denominator * k) % 1 for j in range(k)]


def _p_division(target: Fraction, p: int, r: int) -> Fraction:
    """The unique prime-to-p preimage under multiplication by p^r."""
    d = target.denominator
    inv = pow(p, -r, d) if d > 1 else 0
    return Fraction(target.numerator * inv, d) % 1


def _multiset(fracs) -> tuple:
    return tuple(sorted(fracs))


def belyi_induction_match(spec: HypSpec) -> list[BelyiMatch]:
    """Exhaustive search over the three pushforward shapes from the
    thrice-punctured line; returns every structural match."""
    p, n, m = spec.p, spec.n, spec.m
    up, down = spec.as_fractions()
    up_set, down_set = _multiset(up), _multiset(down)
    up_count = Counter(up)
    matches = []

    # case (a): A, B prime to p, A + B = d0 * p^r, d0 = #downstairs
    d0 = m
    if d0 >= 1 and d0 % p:
        pr = p
        r = 1
        while d0 * pr <= n:
            if d0 * pr == n:
                for A in range(1, n):
                    B = n - A
                    if A % p == 0 or B % p == 0:
                        continue
                    # each fibre is a sub-multiset of the upstairs one
                    lams = [lam for lam in sorted({(A * u) % 1 for u in up})
                            if Counter(_roots(lam, A)) <= up_count]
                    sigmas = [sigma for sigma in sorted({(B * u) % 1 for u in up})
                              if Counter(_roots(sigma, B)) <= up_count]
                    for lam in lams:
                        for sigma in sigmas:
                            if _multiset(_roots(lam, A) + _roots(sigma, B)) != up_set:
                                continue
                            tau = _p_division((lam + sigma) % 1, p, r)
                            if _multiset(_roots(tau, d0)) == down_set:
                                matches.append(
                                    BelyiMatch("a", A, B, r, d0, lam, sigma)
                                )
            pr *= p
            r += 1

    # cases (b) and (c): the wild part of the covering exponent sits in
    # one variable; d0 * (p^r - 1) = n - m fixes d0.  Case (b) has
    # B = d0 p^r and A = m - d0 prime to p, case (c) A and B swapped, and
    # with them lambda and sigma, so one search serves both
    pr, r = p, 1
    while pr <= n:
        d0, rem = divmod(n - m, pr - 1)
        tame = m - d0
        if rem == 0 and d0 >= 1 and d0 % p and tame >= 1 and tame % p:
            found = []
            for prod in sorted({(n * u) % 1 for u in up}):
                if _multiset(_roots(prod, n)) != up_set:
                    continue
                for x in sorted({(tame * d) % 1 for d in down}):
                    y = (prod - x) % 1
                    if _multiset(_roots(x, tame) + _roots(_p_division(y, p, r), d0)) == down_set:
                        found.append((x, y))
            matches += [BelyiMatch("b", tame, d0 * pr, r, d0, x, y) for x, y in found]
            matches += [BelyiMatch("c", d0 * pr, tame, r, d0, y, x) for x, y in found]
        pr *= p
        r += 1
    return matches


# ----------------------------------------------------------------------
# verdicts

def _p_exponent(n: int, p: int) -> int | None:
    """e with n = p^e, or None when n is not a power of p."""
    e = 0
    while n > 1 and n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else None


def primitivity_verdict(spec: HypSpec) -> dict:
    """The report's primitivity fields: the Kummer and Belyi candidates, the
    verdict and whether the tensor-indecomposability hypotheses hold.  It is
    NOT_INDUCED when a rank corollary applies and both pushforward searches
    come back empty, INCONCLUSIVE otherwise.  A pushforward of type (n, 1)
    forces n to be a power of p, and with m > 1 tame characters no
    pushforward shape has a p-power rank."""
    kummer = kummer_induction_candidates(spec)
    belyi = belyi_induction_match(spec)
    n, m = spec.n, spec.m
    e = _p_exponent(n, spec.p)
    even_power = e is not None and e >= 2 and e % 2 == 0
    tensor_hyp = (n != 4 and not even_power) or (even_power and m > 1)
    corollary = (m == 1 and n >= 2 and e is None) or (m > 1 and e is not None)
    return {
        "kummer": kummer,
        "belyi": [b.to_json() for b in belyi],
        "primitivity": "NOT_INDUCED" if corollary and not kummer and not belyi
                       else "INCONCLUSIVE",
        "tensor_indecomposable_hypotheses": tensor_hyp,
    }


def selfdual_test(spec: HypSpec) -> str:
    """The self-duality kind, 'orthogonal' or 'none', for the families
    covered here: both multisets must be stable under inversion; with a
    single trivial downstairs character and even rank the duality exists
    precisely in characteristic 2, where it is orthogonal."""
    neg_stable = all(
        sorted((-r) % spec.M for r in side) == list(side)
        for side in (spec.upstairs, spec.downstairs)
    )
    return "orthogonal" if neg_stable and spec.p == 2 else "none"


def det_product_check(spec: HypSpec) -> bool:
    """Sum of the upstairs residues vanishes mod M (trivial determinant)."""
    return sum(spec.upstairs) % spec.M == 0


def inertia_model(spec: HypSpec) -> dict:
    """The report's `inertia` field, the shape of the local monodromy image
    at infinity: the wild part is the additive group of F_{p^f} (f the
    order of p mod N), extended by a cyclic group permuting its N
    characters.  `product_case` is 'trivial', 'quadratic' or 'other'."""
    N = spec.n - spec.m
    p = spec.p
    if N % p == 0:
        raise ValueError("wild rank divisible by p is outside this model")
    f = multiplicative_order(p, N)
    product = (sum(spec.upstairs) - sum(spec.downstairs)) % spec.M
    if product == 0:
        case = "trivial"
    elif spec.M % 2 == 0 and product == spec.M // 2:
        case = "quadratic"
    else:
        case = "other"
    return {"N": N, "f": f, "group": f"C{p}^{f} : C{N}", "product_case": case,
            "hypothesis_met": case == ("trivial" if N % 2 else "quadratic")}


def classification_report(spec: HypSpec, label: str, params: dict) -> dict:
    """The report `hypmono classify` prints; C9 checks its facts."""
    return {
        "family": label,
        "p": spec.p,
        "A": params.get("A"),
        "B": params.get("B"),
        "n": spec.n,
        "m": spec.m,
        **primitivity_verdict(spec),
        "selfdual": selfdual_test(spec),
        "det_trivial": det_product_check(spec),
        "inertia": inertia_model(spec),
    }
