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
from dataclasses import dataclass, field
from fractions import Fraction

from .kubert import multiplicative_order

__all__ = [
    "HypSpec",
    "InertiaModel",
    "BelyiMatch",
    "ClassificationVerdict",
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


def build_spec(kind: str, p: int, A: int, B: int | None = None) -> HypSpec:
    """The spec of a family kind: `build_AxB(p, A, B)` for 'AxB',
    `build_Atimes(p, A)` for 'Atimes' (which does not read B)."""
    if kind == "AxB":
        return build_AxB(p, A, B)
    if kind == "Atimes":
        return build_Atimes(p, A)
    raise ValueError(f"unknown family kind {kind!r}")


# ----------------------------------------------------------------------
# Kummer pushforward detection

def kummer_induction_candidates(spec: HypSpec) -> list[int]:
    """Degrees N >= 2 prime to p with N | n, N | m and both residue
    multisets stable under every character of order dividing N."""
    out = []
    n, m = spec.n, spec.m
    limit = n if m == 0 else math.gcd(n, m)
    for N in range(2, limit + 1):
        if limit % N or N % spec.p == 0:
            continue
        M2 = spec.M * N // math.gcd(spec.M, N)
        scale = M2 // spec.M
        up = sorted(r * scale % M2 for r in spec.upstairs)
        down = sorted(r * scale % M2 for r in spec.downstairs)
        step = M2 // N
        stable = True
        for j in range(1, N):
            shift = j * step
            if sorted((r + shift) % M2 for r in up) != up:
                stable = False
                break
            if sorted((r + shift) % M2 for r in down) != down:
                stable = False
                break
        if stable:
            out.append(N)
    return out


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


def _mod1(fr: Fraction) -> Fraction:
    return Fraction(fr.numerator % fr.denominator, fr.denominator)


def _roots(target: Fraction, k: int) -> list[Fraction]:
    """The k preimages of target under multiplication by k in Q/Z."""
    return [_mod1(Fraction(target.numerator + j * target.denominator,
                           target.denominator * k)) for j in range(k)]


def _p_division(target: Fraction, p: int, r: int) -> Fraction:
    """The unique prime-to-p preimage under multiplication by p^r."""
    d = target.denominator
    inv = pow(p, -r, d) if d > 1 else 0
    return _mod1(Fraction(target.numerator * inv, d))


def _multiset(fracs) -> tuple:
    return tuple(sorted(fracs))


def belyi_induction_match(spec: HypSpec) -> list[BelyiMatch]:
    """Exhaustive search over the three pushforward shapes from the
    thrice-punctured line; returns every structural match."""
    p, n, m = spec.p, spec.n, spec.m
    up, down = spec.as_fractions()
    up_set, down_set = _multiset(up), _multiset(down)
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
                    lams = {_mod1(A * u) for u in up}
                    sigmas = {_mod1(B * u) for u in up}
                    for lam in sorted(lams):
                        for sigma in sorted(sigmas):
                            if _multiset(_roots(lam, A) + _roots(sigma, B)) != up_set:
                                continue
                            tau = _p_division(_mod1(lam + sigma), p, r)
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
            for prod in sorted({_mod1(n * u) for u in up}):
                if _multiset(_roots(prod, n)) != up_set:
                    continue
                for x in sorted({_mod1(tame * d) for d in down}):
                    y = _mod1(prod - x)
                    if _multiset(_roots(x, tame) + _roots(_p_division(y, p, r), d0)) == down_set:
                        found.append((x, y))
            matches += [BelyiMatch("b", tame, d0 * pr, r, d0, x, y) for x, y in found]
            matches += [BelyiMatch("c", d0 * pr, tame, r, d0, y, x) for x, y in found]
        pr *= p
        r += 1
    return matches


# ----------------------------------------------------------------------
# verdicts

def _is_p_power(n: int, p: int) -> bool:
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


def _is_even_p_power(n: int, p: int) -> bool:
    e = 0
    while n > 1 and n % p == 0:
        n //= p
        e += 1
    return n == 1 and e >= 2 and e % 2 == 0


@dataclass
class ClassificationVerdict:
    status: str  # 'NOT_INDUCED' | 'INCONCLUSIVE'
    kummer: list[int] = field(default_factory=list)
    belyi: list[BelyiMatch] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)
    tensor_indecomposable_hypotheses: bool = False


def primitivity_verdict(spec: HypSpec) -> ClassificationVerdict:
    """NOT_INDUCED when the rank corollaries apply and both pushforward
    searches come back empty; INCONCLUSIVE (with candidates) otherwise."""
    kummer = kummer_induction_candidates(spec)
    belyi = belyi_induction_match(spec)
    n, m, p = spec.n, spec.m, spec.p
    reasons = []
    tensor_hyp = (n != 4 and not _is_even_p_power(n, p)) or (
        _is_even_p_power(n, p) and m > 1
    )
    corollary = False
    if m == 1 and n >= 2 and not _is_p_power(n, p):
        corollary = True
        reasons.append(
            f"type ({n},1) with rank not a power of {p}: any pushforward "
            f"structure would force a {p}-power rank"
        )
    elif m > 1 and _is_p_power(n, p):
        corollary = True
        reasons.append(
            f"rank {n} is a power of {p} with {m} > 1 tame characters, "
            "which no pushforward shape allows"
        )
    if corollary and not kummer and not belyi:
        status = "NOT_INDUCED"
    else:
        status = "INCONCLUSIVE"
        if kummer or belyi:
            reasons.append("structural pushforward candidates found")
        else:
            reasons.append("no candidates found, but no rank corollary applies")
    return ClassificationVerdict(status, kummer, belyi, reasons, tensor_hyp)


def selfdual_test(spec: HypSpec) -> tuple[bool, str]:
    """(is_selfdual, kind) for the families covered here: requires both
    multisets stable under inversion; with a single trivial downstairs
    character and even rank the duality exists precisely in
    characteristic 2, where it is orthogonal."""
    up = sorted(spec.upstairs)
    down = sorted(spec.downstairs)
    neg_stable = (
        sorted((-r) % spec.M for r in up) == up
        and sorted((-r) % spec.M for r in down) == down
    )
    if not neg_stable:
        return False, "none"
    if spec.p == 2:
        return True, "orthogonal"
    return False, "none"


def det_product_check(spec: HypSpec) -> bool:
    """Sum of the upstairs residues vanishes mod M (trivial determinant)."""
    return sum(spec.upstairs) % spec.M == 0


@dataclass(frozen=True)
class InertiaModel:
    p: int
    N: int
    f: int
    tame: tuple[int, ...]
    group: str
    product_case: str  # 'trivial' | 'quadratic' | 'other'
    hypothesis_met: bool


def inertia_model(spec: HypSpec) -> InertiaModel:
    """Shape of the local monodromy image at infinity: the wild part is
    the additive group of F_{p^f} (f the order of p mod N), extended by a
    cyclic group permuting its N characters."""
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
    hypothesis = case == ("trivial" if N % 2 else "quadratic")
    return InertiaModel(
        p, N, f, spec.downstairs, f"C{p}^{f} : C{N}", case, hypothesis
    )


def classification_report(spec: HypSpec, label: str, params: dict) -> dict:
    verdict = primitivity_verdict(spec)
    _, kind = selfdual_test(spec)
    inertia = inertia_model(spec)
    return {
        "family": label,
        "p": spec.p,
        "A": params.get("A"),
        "B": params.get("B"),
        "n": spec.n,
        "m": spec.m,
        "kummer": verdict.kummer,
        "belyi": [b.to_json() for b in verdict.belyi],
        "primitivity": verdict.status,
        "tensor_indecomposable_hypotheses": verdict.tensor_indecomposable_hypotheses,
        "selfdual": kind,
        "det_trivial": det_product_check(spec),
        "inertia": {
            "N": inertia.N,
            "f": inertia.f,
            "group": inertia.group,
            "product_case": inertia.product_case,
            "hypothesis_met": inertia.hypothesis_met,
        },
    }
