"""Table-based arithmetic in F_{p^k} for p in {2, 3}.

Elements are integers in [0, q) encoding coefficient vectors base p against
a fixed primitive modulus, so the class of t generates the multiplicative
group and discrete logs come from one antilog fill.  Construction is
deterministic: the modulus per (p, k) is the embedded table entry below,
and a rebuild is bit-identical.
"""

from __future__ import annotations

import hashlib
import struct
from functools import cache, lru_cache

import numpy as np

from .errors import DegreeOutOfRangeError, UnsupportedCharacteristicError

DEGREE_CAPS = {2: 24, 3: 15}

# Fixed moduli, coefficients c0..ck low to high: for each (p, k) the monic
# primitive polynomial of degree k whose non-leading coefficient word
# (c_{k-1}, ..., c_0) is lexicographically smallest.  Frozen as data for
# cross-run reproducibility; every build checks again that t has order
# p^k - 1, which is primitivity (FieldTable._validate).
PRIMITIVE_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 17): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 18): (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 19): (1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 20): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 21): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 22): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 23): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 24): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (1, 2, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 0, 1, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (3, 11): (1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 13): (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 14): (2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 15): (1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}

_CACHE_MAGIC = b"HMFT0002"  # body: the antilog table alone
# bits of a word per lookup table in the characteristic-2 fill (2^11 int32
# entries, 8 KB a table): F_{2^20} and F_{2^24} take two and three gathers
# an element
_XOR_CHUNK = 11
# base-3 digits added per lookup in the digit-wise addition table (uint16,
# 3^(2C) entries) at 3^11 and past it: one int32 add of 531k random pairs
# at 3^12 took a median 8 ms with 6 (two blocks, 1.06 MB), 19 ms with 5
# (three blocks, 0.12 MB) and 12 ms with 7 (9.6 MB); 4.8M pairs at 3^13 and
# 3^15 (three blocks at 5 and at 6) took 0.15-0.16 s with 5 and 0.16-0.17 s
# with 6, and with 7 0.14 s at 3^13 (two blocks) but 0.20-0.22 s at 3^15
# (2-core VM).  Smaller fields add in two blocks of ceil(k/2) digits
# (`_add_width`) and never build the 3^12-entry table: a cold
# build_field(3, 6) in a fresh process took a median 2.3 ms with it and
# 1.7 ms with the 729 entries of three-digit blocks
_ADD_DIGITS = 6


def _add_width(k: int) -> int:
    """Digits per table lookup in the base-3 add of F_(3^k): two blocks of
    ceil(k/2) digits up to k = 12, blocks of _ADD_DIGITS digits past it."""
    return min(-(-k // 2), _ADD_DIGITS)


@cache
def _digit_add_table(width: int) -> np.ndarray:
    """Flat 3^C x 3^C table, C = width: entry a * 3^C + b is the digit-wise
    sum mod 3 of the C-digit words a and b.

    Built one top digit at a time from the 3 x 3 table, on the first
    base-3 addition of the process at that width (not at import), and kept
    for the process; read-only, as it is shared.
    """
    one = np.add.outer(np.arange(3, dtype=np.uint16), np.arange(3, dtype=np.uint16)) % 3
    table = one
    for c in range(1, width):
        w = 3 ** c  # [a_top, a_low, b_top, b_low] -> row a_top w + a_low
        table = (one[:, None, :, None] * w + table[None, :, None, :]).reshape(3 * w, 3 * w)
    table = table.ravel()
    table.flags.writeable = False
    return table


def _add_sliced(a1, a2, b1, b2, out1=None, out2=None):
    """Digit-wise sum mod 3 of base-3 words held bit-sliced, as the masks
    (ones, twos) of their digits 1 and 2: seven bitwise operations for all
    digits at once (Kawahara, Aoki and Takagi).  Returns (ones, twos)."""
    t = (a1 | b2) ^ (a2 | b1)
    s1, s2 = a2 | b2, a1 | b1
    return np.bitwise_xor(s1, t, out=out1), np.bitwise_xor(s2, t, out=out2)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------

class FieldTable:
    """Precomputed arithmetic model of F_{p^k}.

    All tables are read-only after construction and every operation is a
    pure read.  Operations accept plain ints or numpy arrays and return the
    matching kind: an int for scalar input, an int64 array otherwise.  The
    one exception is `add` and `neg` of arrays at p = 2, which keep the
    operand's dtype (XOR cannot carry out of it), so that `_validate` adds
    its int32 operands in int32.

    The tables are stored narrow: `antilog` and `log` as int32 (entries
    below q <= 2^24; `log[0]` is -1) and `trace_table` as uint8 (entries
    below p).  Arithmetic on their raw values can wrap, so the operations
    widen what they return, and `trace_powers` gives Tr(g^i) in int64.
    """

    def __init__(self, p: int, k: int, modulus, antilog=None):
        if p not in (2, 3):
            raise UnsupportedCharacteristicError(f"characteristic {p} not supported")
        cap = DEGREE_CAPS[p]
        if not 1 <= k <= cap:
            raise DegreeOutOfRangeError(f"degree {k} outside 1..{cap} for p={p}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = tuple(int(c) % p for c in modulus)
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")

        if antilog is None:  # antilog[i] = t^i for 0 <= i < q - 1
            antilog = self._fill_antilog_xor() if p == 2 else self._fill_antilog_sliced()
        # checked before the int32 narrowing, which would wrap a wide entry
        # or truncate a float one into range; later steps index by them
        antilog = np.asarray(antilog)
        if (antilog.dtype.kind not in "iu" or antilog.shape != (self.q - 1,)
                or antilog.min() < 1 or antilog.max() >= self.q):
            raise AssertionError("antilog entries must be integers in 1..q-1, one per exponent")
        self.antilog = np.ascontiguousarray(antilog, dtype=np.int32)
        self.trace_table = self._fill_trace()
        self.log = self._validate()
        # build_field hands this one object to every caller
        for table in (self.antilog, self.trace_table, self.log):
            table.flags.writeable = False

    # ------------------------------------------------------------------
    # construction: multiplication by a fixed element and the trace are
    # F_p-linear maps of digit words; the trace reads the companion matrix
    # M of the modulus, digits(t * x) = digits(x) @ M mod p

    def _companion(self) -> np.ndarray:
        m = np.eye(self.k, self.k, 1, dtype=np.int64)
        m[-1] = [-c % self.p for c in self.modulus[:-1]]  # t^k = -sum c_i t^i
        return m

    def _fill_antilog_xor(self) -> np.ndarray:
        """antilog[L:2L] = t^L * antilog[:L] for L = 1, 2, 4, ..., p = 2.

        Multiplication by a fixed c is GF(2)-linear on bit words: c x is
        the XOR over the _XOR_CHUNK-bit chunks of x of one lookup each, in
        a table spanned by the images c t^i of that chunk's basis bits.
        Applying the same tables to the images of c gives those of c^2.
        """
        k, n = self.k, self.q - 1
        red = sum(c << i for i, c in enumerate(self.modulus[:-1]))  # t^k
        images = np.array([1 << i for i in range(1, k)] + [red], dtype=np.int32)  # t t^i
        mask = (1 << _XOR_CHUNK) - 1

        def times(tables, x, out):
            np.take(tables[0], x & mask, out=out)
            for j, table in enumerate(tables[1:], 1):
                out ^= table[(x >> (j * _XOR_CHUNK)) & mask]
            return out

        antilog = np.empty(n, dtype=np.int32)
        antilog[0] = 1
        length = 1
        while length < n:
            tables = []
            for start in range(0, k, _XOR_CHUNK):
                chunk = images[start:start + _XOR_CHUNK].tolist()
                table = np.zeros(1 << len(chunk), dtype=np.int32)
                for i, image in enumerate(chunk):  # entry v: XOR of the images at v's bits
                    np.bitwise_xor(table[:1 << i], image, out=table[1 << i:2 << i])
                tables.append(table)
            end = min(2 * length, n)
            times(tables, antilog[:end - length], antilog[length:end])
            images = times(tables, images, np.empty_like(images))
            length = end
        return antilog

    def _fill_antilog_sliced(self) -> np.ndarray:
        """antilog[L:2L] = t^L * antilog[:L] for L = 1, 2, 4, ..., p = 3.

        The powers are held bit-sliced (see `_add_sliced`).  Multiplication
        by a fixed c is F_3-linear, c x = c ones - c twos, so it is two
        lookups in one table pair over the 2^k masks w, entry c w, and one
        sliced add; negation swaps ones and twos.  The table of c = t is
        spanned by the images t t^i, and its own entries times c give the
        table of c^2.  The masks become encodings once, at the end.
        """
        k, n = self.k, self.q - 1
        red = [-c % 3 for c in self.modulus[:-1]]  # the digits of t^k
        images = [(2 << i, 0) for i in range(k - 1)]
        images.append(tuple(sum(1 << i for i, d in enumerate(red) if d == v) for v in (1, 2)))
        c1, c2 = np.zeros((2, 1 << k), dtype=np.int32)
        for i, (b1, b2) in enumerate(images):  # entry w + 2^i: entry w plus t t^i
            _add_sliced(c1[:1 << i], c2[:1 << i], b1, b2, c1[1 << i:2 << i], c2[1 << i:2 << i])

        def times(c1, c2, x1, x2, out1=None, out2=None):
            return _add_sliced(np.take(c1, x1), np.take(c2, x1),
                               np.take(c2, x2), np.take(c1, x2), out1, out2)

        ones, twos = np.zeros((2, n), dtype=np.int32)
        ones[0] = 1
        length = 1
        while length < n:
            end = min(2 * length, n)
            times(c1, c2, ones[:end - length], twos[:end - length],
                  ones[length:end], twos[length:end])
            c1, c2 = times(c1, c2, c1, c2)
            length = end
        value = np.zeros(1 << k, dtype=np.int32)  # mask -> sum of 3^i over its bits
        for i in range(k):
            np.add(value[:1 << i], 3 ** i, out=value[1 << i:2 << i])
        antilog = np.take(value, ones)
        antilog += np.take(2 * value, twos)
        return antilog

    def _fill_trace(self) -> np.ndarray:
        """Tr(x) = sum_j d_j Tr(t^j) mod p, with Tr(t^j) = trace(M^j) mod p.

        One base-p digit at a time: the elements with top digit d_j = d
        are the table so far shifted by d Tr(t^j), written in place: by an
        XOR with Tr(t^j) at p = 2, and at p = 3 by a 3-entry lookup packed
        two bits an entry into one byte and read with shifts, which needs
        no intp copy of the index as a gather would (13 MB at 3^15, kept
        by the allocator past the build's peak); uint8 throughout, in the
        one table of q entries.
        """
        p = self.p
        m = self._companion()
        power = np.eye(self.k, dtype=np.int64)
        trace = np.empty(self.q, dtype=np.uint8)
        trace[0] = 0
        size = 1  # trace[:size] is done
        for _ in range(self.k):
            tr_t = int(np.trace(power)) % p
            for d in range(1, p):
                shifted = trace[d * size:(d + 1) * size]
                if p == 2:
                    np.bitwise_xor(trace[:size], tr_t, out=shifted)
                else:  # v -> v + d Tr(t^j) mod 3, entry v at bits 2v, 2v + 1
                    lookup = np.uint8(sum((v + d * tr_t) % 3 << 2 * v for v in range(3)))
                    np.left_shift(trace[:size], 1, out=shifted)
                    np.right_shift(lookup, shifted, out=shifted)
                    np.bitwise_and(shifted, 3, out=shifted)
            size *= p
            power = power @ m % p
        return trace

    def _validate(self) -> np.ndarray:
        """Check every structural invariant of the tables, independently of
        how they were filled, and return the log table.

        The log is one scatter log[antilog[i]] = i, which is also the
        bijection check: q - 1 entries in 1..q-1 fill every slot 1..q-1
        exactly when no two are equal.  The constructor has checked that
        range already.

        These checks also prove the modulus f primitive, so it needs no
        irreducibility test of its own.  From antilog[0] = 1 the recurrence
        gives antilog[i] = t^i, and its wrap gives t^(q-1) = 1.  By the
        range and bijection checks these q - 1 powers are the nonzero
        residues, each once.  So t has order q - 1, every nonzero residue
        is a unit, F_p[t]/(f) is a field and f is irreducible.

        The recurrence splits the top digit off every t^i with no divmod.
        At p = 2 it builds t^(i+1) in place from two shifts: the carried-out
        bit times 2^k + t^k, XORed into t^i shifted up, clears bit k and adds
        t^k.  At p = 3 it takes the top digit by a floor division by the
        scalar q/3, which numpy computes by a multiply and a shift, and the
        rest by one multiply-subtract, and adds c t^k with `add`.  It adds
        only the p words c t^k, so `add` is also tried on fixed operands:
        every pair of all-d words (d = 0..p-1, whose lowest digit blocks
        are full-width all-d words, so each pair reads the table entry of
        its two digit values at the field's block width) and 32 hashed
        pairs, under the trace's additivity and x + ... + x = 0 (p terms).
        The tables are int32 and uint8, and the steps over all q elements
        compute in int32, apart from the int64 sum `add` returns.
        """
        q, p = self.q, self.p
        antilog = self.antilog
        if antilog[0] != 1:
            raise AssertionError("antilog[0] must be 1")
        # multiply-by-t recurrence in digit arithmetic, independent of the
        # fill: shift every digit up, and a carried-out top digit c adds c t^k
        red = sum(-c % p * p ** i for i, c in enumerate(self.modulus[:-1]))
        if p == 2:  # t^i shifted up, and a carried-out bit k swapped for t^k
            succ = antilog << 1
            lead = antilog >> (self.k - 1)
            lead *= q | red
            succ ^= lead
        else:
            lead = antilog // (q // 3)  # the top digit c of t^i
            rem = lead * -(q // 3)
            rem += antilog
            rem *= 3  # t^i without its top digit, shifted up
            # c -> c t^k in place, in int32 (below 2q): c red, plus at c = 2
            # the gap between the field's 2 t^k and the integer 2 red
            fix = lead >> 1
            fix *= self.scalar_mul(2, red) - 2 * red
            lead *= red
            lead += fix
            del fix
            succ = self.add(rem, lead)  # t^(i+1)
            del rem
        del lead  # before the scatter below
        if not (np.array_equal(succ[:-1], antilog[1:]) and succ[-1] == antilog[0]):
            raise AssertionError("antilog recurrence broken")
        del succ
        # equidistribution of the trace, equivalent to exact cancellation of
        # every nontrivial additive character sum; counted value by value, as
        # a bincount would first widen the uint8 table to int64
        if any(np.count_nonzero(self.trace_table == v) != q // p for v in range(p)):
            raise AssertionError("trace values are not equidistributed")
        words = np.arange(p, dtype=np.int64) * ((q - 1) // (p - 1))  # all-d words
        hashed = np.arange(1, 65, dtype=np.int64) * 2654435761 % q
        a = np.concatenate([np.repeat(words, p), hashed[:32]])
        b = np.concatenate([np.tile(words, p), hashed[32:]])
        lhs = self.trace_table[self.add(a, b)]
        rhs = (self.trace_table[a] + self.trace_table[b]) % p  # at most 2p - 2
        if not np.array_equal(lhs, rhs):
            raise AssertionError("trace is not additive")
        total = a
        for _ in range(p - 1):
            total = self.add(total, a)
        if np.any(total != 0):
            raise AssertionError("a word added to itself p times is not 0")
        log = np.full(q, -1, dtype=np.int32)
        np.put(log, antilog, np.arange(q - 1, dtype=np.int32))
        if np.any(log[1:] < 0):
            raise AssertionError(
                "antilog table is not a bijection onto the nonzero elements; "
                "the generator order is below q-1"
            )
        return log

    # ------------------------------------------------------------------
    # arithmetic

    def add(self, a, b):
        """a + b for field elements: ints or integer arrays with entries in
        [0, q).  Any other operand raises ValueError, since the base-3 digit
        blocks would drop its digits beyond k, wrap it in int32 or truncate
        a float."""
        self._check("add", a, b)
        if self.p == 2:
            return _scalar_int(a ^ b)
        return self._add3(a, b)

    def _check(self, op: str, *operands) -> None:
        if not all(_in_range(x, self.q) for x in operands):
            raise ValueError(f"{op} takes field elements, integers in 0..{self.q - 1}")

    def _add3(self, a, b):
        """Digit-wise sum mod 3, `_add_width(k)` digits per table lookup.

        In int32 (elements are below 3^15 < 2^24): the digit blocks are
        split off by floor division by the scalar base, each row index is
        built in place in one array of the sum's shape, with no temporary,
        and the block sums, lowest first, are joined into the int64 result
        from the top down.  The operands' high parts are freed before that
        result is made, which lowers the peak of a validation at 3^12 by
        1 MB (tracemalloc).
        """
        scalar = np.ndim(a) == 0 and np.ndim(b) == 0
        a = np.asarray(a).astype(np.int32, copy=False)
        b = np.asarray(b).astype(np.int32, copy=False)
        shape = np.broadcast(a, b).shape
        width = _add_width(self.k)
        table, base = _digit_add_table(width), 3 ** width
        sums, row = [], np.empty(shape, dtype=np.int32)
        for _ in range(-(-self.k // width) - 1):
            low_a, low_b = a, b
            a, b = a // base, b // base  # the high parts
            np.multiply(a, -base, out=row)
            row += low_a  # the block of a
            row -= b  # (block - b) base + low_b: the block of b, with no temporary
            row *= base
            row += low_b
            sums.append(np.take(table, row))
            del low_a, low_b
        np.multiply(a, base, out=row)
        row += b  # the top blocks
        del a, b  # before the int64 result is made
        out = np.take(table, row).astype(np.int64)
        for low in reversed(sums):
            out *= base
            out += low
        return int(out) if scalar else out

    def neg(self, a):
        self._check("neg", a)
        if self.p == 2:
            return _scalar_int(a)
        return self._add3(a, a)

    def scalar_mul(self, c: int, a):
        """(c mod p)-fold sum of a."""
        self._check("scalar_mul", a)
        c %= self.p
        if c < 2:
            return _widened(np.asarray(a) * c)
        return self._add3(a, a)  # c = 2, at p = 3 only

    def mul(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        prod = self.antilog[(self.log[a] + self.log[b]) % (self.q - 1)]
        return _widened(np.where((a != 0) & (b != 0), prod, 0))

    def inv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("inversion of zero")
        return _widened(self.antilog[-self.log[a] % (self.q - 1)])

    def pow(self, a, e: int):
        """a^e, with 0^0 = 1; e is reduced mod q - 1 first and the log
        widened to int64 before the product, which reaches 2^48."""
        n = self.q - 1
        a = np.asarray(a)
        if e < 0 and np.any(a == 0):
            raise ZeroDivisionError("inversion of zero")
        logs = self.log[a].astype(np.int64)
        return _widened(np.where(a != 0, self.antilog[logs * (e % n) % n], int(e == 0)))

    def trace_to_prime(self, x):
        return _widened(self.trace_table[x])

    def trace_powers(self) -> np.ndarray:
        """Tr(g^i) for i = 0 .. q-2, in int64: the one source of Tr o antilog
        for callers that negate or scale it, which would wrap in uint8."""
        return self.trace_table[self.antilog].astype(np.int64)

    def elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def units(self) -> np.ndarray:
        return self.antilog.astype(np.int64)

    def __repr__(self):
        return f"FieldTable(p={self.p}, k={self.k}, q={self.q})"


def _in_range(x, q: int) -> bool:
    """Whether x is an integer or an integer array with every entry in
    [0, q); an array of float, bool or object dtype is not, whatever its
    values."""
    if isinstance(x, int):
        return 0 <= x < q
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        return False
    if x.size == 0:
        return True
    if x.dtype.kind == "i" and x.itemsize >= 4:
        # read as unsigned, a negative entry is at least 2^31 > q, so one
        # maximum bounds both ends
        x = x.view(f"u{x.itemsize}")
    elif x.dtype.kind == "i":
        return x.min() >= 0 and x.max() < q
    return x.max() < q


def _scalar_int(out):
    """An int for a scalar, else out itself."""
    return int(out) if np.ndim(out) == 0 else out


def _widened(out):
    """An operation's result from narrow table values: an int for a scalar,
    else an int64 array."""
    return int(out) if np.ndim(out) == 0 else out.astype(np.int64, copy=False)


@lru_cache(maxsize=None)
def build_field(p: int, k: int) -> FieldTable:
    """Deterministic F_{p^k} with the fixed embedded modulus."""
    # an unsupported (p, k) has no modulus; the constructor rejects it first
    return FieldTable(p, k, PRIMITIVE_POLYS.get((p, k)))


# ----------------------------------------------------------------------
# optional binary cache (an optimization only, never a correctness input)

def save_cache(field: FieldTable, path) -> None:
    """Write header, checksum and antilog table, little-endian."""
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<III", field.p, field.k, len(field.modulus)))
        fh.write(np.asarray(field.modulus, dtype="<u4").tobytes())
        # the entries are positive, so their <i4 bytes are their <u4 bytes;
        # no copy on a little-endian machine
        body = field.antilog.astype("<i4", copy=False)
        fh.write(hashlib.sha256(body).digest())
        fh.write(body)


def load_cache(path) -> FieldTable:
    """Load a cached field; every malformed cache raises ValueError.

    The checksum guards file integrity; the FieldTable constructor then
    re-verifies every structural invariant of the antilog (range,
    generator recurrence, bijection), and rebuilds the log and trace
    tables from it and from the modulus.  A cache can therefore
    accelerate startup but never change results.
    """
    with open(path, "rb") as fh:
        if fh.read(8) != _CACHE_MAGIC:
            raise ValueError("bad cache magic")
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError("truncated cache header")
        p, k, nmod = struct.unpack("<III", header)
        modulus = tuple(int(v) for v in np.frombuffer(fh.read(4 * nmod), dtype="<u4"))
        digest = fh.read(32)
        body = fh.read()
    # checked before q = p^k is formed from the unverified header
    if modulus != PRIMITIVE_POLYS.get((p, k)):
        raise ValueError("cache modulus does not match the embedded table")
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("cache checksum mismatch")
    if len(body) != 4 * (p ** k - 1):
        raise ValueError("cache body has the wrong length")
    # read as int32 without a copy: a <u4 entry of 2^31 or more reads
    # negative, and the range check refuses it like any entry >= q
    try:
        return FieldTable(p, k, modulus, antilog=np.frombuffer(body, dtype="<i4"))
    except AssertionError as exc:
        raise ValueError(f"cached tables fail validation: {exc}") from exc
