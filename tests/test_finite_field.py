import copy
import hashlib
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmono.errors import DegreeOutOfRangeError, UnsupportedCharacteristicError
from hypmono.finite_field import (
    PRIMITIVE_POLYS,
    FieldTable,
    build_field,
    load_cache,
    save_cache,
)
from hypmono.kubert import multiplicative_order

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (2, 8), (2, 10),
                (3, 1), (3, 2), (3, 3), (3, 4), (3, 6)]


def test_f4_is_the_unique_quadratic():
    f4 = build_field(2, 2)
    assert f4.modulus == (1, 1, 1)
    w = int(f4.antilog[1])  # class of t
    assert f4.mul(w, w) == f4.add(w, 1)  # w^2 = w + 1


def test_f4_examples():
    f4 = build_field(2, 2)
    w = int(f4.antilog[1])
    assert f4.mul(w, f4.mul(w, w)) == 1  # w * w^2 = 1
    assert f4.pow(w, 13) == w  # 13 mod 3 = 1
    assert f4.inv(1) == 1


def test_trace_examples():
    f4 = build_field(2, 2)
    assert f4.trace_to_prime(int(f4.antilog[1])) == 1
    assert f4.trace_to_prime(0) == 0
    f9 = build_field(3, 2)
    # Tr(1) = k * 1 = 2 in F_3
    assert f9.trace_to_prime(1) == 2
    # Tr(x) = x + x^3 evaluated in the field
    for x in range(9):
        assert f9.trace_to_prime(x) == f9.add(x, f9.pow(x, 3))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_unit_group_order(p, k):
    field = build_field(p, k)
    n = field.q - 1
    units = field.units()
    assert np.all(field.pow(units, n) == 1)
    # log/antilog are mutually inverse
    assert np.array_equal(field.antilog[field.log[units]], units)


@pytest.mark.parametrize("p,k", [(2, 4), (2, 6), (3, 2), (3, 3)])
def test_frobenius_permutes_and_fixes_prime_field(p, k):
    field = build_field(p, k)
    xs = field.elements()
    fr = field.pow(xs, p)
    assert sorted(fr.tolist()) == sorted(xs.tolist())
    fixed = xs[fr == xs]
    assert fixed.tolist() == list(range(p))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_additive_character_cancellation(p, k):
    field = build_field(p, k)
    counts = np.bincount(field.trace_table, minlength=p)
    # equidistributed trace <=> sum of zeta_p^Tr(x) vanishes exactly
    assert counts.tolist() == [field.q // p] * p


def test_rebuild_is_bit_identical():
    a = FieldTable(3, 4, PRIMITIVE_POLYS[(3, 4)])
    b = FieldTable(3, 4, PRIMITIVE_POLYS[(3, 4)])
    assert np.array_equal(a.antilog, b.antilog)
    assert np.array_equal(a.trace_table, b.trace_table)


def test_shared_field_tables_are_read_only():
    # build_field returns one cached object, so a write would reach every
    # later caller
    f9 = build_field(3, 2)
    for name in ("antilog", "trace_table", "log"):
        with pytest.raises(ValueError):
            getattr(f9, name)[1] = 5
    fresh = build_field(3, 2)
    assert fresh.log[1] == 0 and fresh.antilog[1] == 3 and fresh.trace_table[1] == 2


def test_roots_of_unity_extensions():
    # F_2(mu_23) has degree 11, F_3(mu_11) has degree 5
    f = build_field(2, 11)
    assert (f.q - 1) % 23 == 0 and multiplicative_order(2, 23) == 11
    g = build_field(3, 5)
    assert (g.q - 1) % 11 == 0 and multiplicative_order(3, 11) == 5


def test_build_errors():
    with pytest.raises(UnsupportedCharacteristicError):
        build_field(5, 2)
    with pytest.raises(DegreeOutOfRangeError):
        build_field(2, 0)
    with pytest.raises(DegreeOutOfRangeError):
        build_field(2, 25)
    with pytest.raises(DegreeOutOfRangeError):
        build_field(3, 16)
    with pytest.raises(ZeroDivisionError):
        build_field(2, 3).inv(0)


def test_mul_inv_pow_zero_cases_and_return_types():
    f = build_field(3, 4)
    xs = f.elements()
    # an exponent whose product with a log leaves int64 is reduced first
    e = 2 ** 60 + 7
    assert np.array_equal(f.pow(xs, e), f.pow(xs, e % (f.q - 1)))
    assert f.pow(5, e) == f.pow(5, e % (f.q - 1)) and type(f.pow(5, e)) is int
    assert f.pow(0, 0) == 1 and f.pow(0, 3) == 0 and f.pow(xs, 0).tolist() == [1] * f.q
    assert f.mul(0, 7) == 0 and type(f.mul(3, 7)) is int and f.mul(xs, 0).tolist() == [0] * f.q
    assert f.mul(xs[1:], f.inv(xs[1:])).tolist() == [1] * (f.q - 1)
    assert type(f.inv(np.int64(7))) is int and f.inv(xs[1:]).dtype == np.int64
    for bad in (lambda: f.inv(xs), lambda: f.pow(0, -1), lambda: f.pow(xs, -2)):
        with pytest.raises(ZeroDivisionError):
            bad()


@pytest.mark.parametrize("p,k", [(2, 8), (2, 16), (3, 6), (3, 11)])
def test_narrow_tables_and_widened_results(p, k):
    f = build_field(p, k)
    assert (f.antilog.dtype, f.log.dtype, f.trace_table.dtype) == (np.int32, np.int32, np.uint8)
    powers = f.trace_powers()
    assert powers.dtype == np.int64 and np.array_equal(powers, f.trace_table[f.antilog])
    xs = f.elements()
    for out in (f.mul(xs, xs[::-1]), f.inv(xs[1:]), f.pow(xs, 5), f.units(), f.trace_to_prime(xs)):
        assert out.dtype == np.int64
    assert type(f.trace_to_prime(1)) is int


@pytest.mark.parametrize("p,k", [(2, 16), (3, 11)])
def test_pow_where_log_times_exponent_leaves_int32(p, k):
    f = build_field(p, k)
    n = f.q - 1
    e = n - 2  # already reduced
    logs = f.log[1:].tolist()
    assert max(logs) * e >= 2 ** 31
    ref = [int(f.antilog[log * e % n]) for log in logs]  # Python-int products
    assert f.pow(np.arange(1, f.q), e).tolist() == ref
    x = int(f.antilog[n - 1])
    assert f.pow(x, e) == int(f.antilog[(n - 1) * e % n])


@pytest.mark.parametrize("p,k", [(2, 10), (3, 6)])
def test_add_and_neg_of_numpy_scalars_return_int(p, k):
    f = build_field(p, k)
    for x in (np.int32(3), np.int64(3), 3):
        assert type(f.add(x, 5)) is int and type(f.add(5, x)) is int
        assert type(f.neg(x)) is int
    assert f.add(np.int32(3), 5) == f.add(3, 5) and f.neg(np.int32(3)) == f.neg(3)


@pytest.mark.parametrize("p,k", [(2, 10), (3, 6)])
def test_scalar_mul_returns_int_or_int64(p, k):
    f = build_field(p, k)
    narrow = f.antilog[:3]  # int32
    for c in range(2 * p):
        out = f.scalar_mul(c, narrow)
        assert out.dtype == np.int64
        assert out.tolist() == [f.scalar_mul(c, x) for x in narrow.tolist()]
        for x in (np.int32(3), np.int64(3), 3):
            assert type(f.scalar_mul(c, x)) is int
    assert f.scalar_mul(0, narrow).tolist() == [0] * 3
    assert f.scalar_mul(1, narrow).tolist() == narrow.tolist()


def test_add_and_neg_of_arrays_keep_the_operand_dtype_at_p2():
    # the documented exception: XOR stays in its operands' width, which
    # _validate relies on to add int32 tables in int32
    f = build_field(2, 10)
    a, b = f.antilog[:4], f.antilog[4:8]
    assert f.add(a, b).dtype == np.int32 and f.neg(a).dtype == np.int32
    assert f.add(a, b).tolist() == [x ^ y for x, y in zip(a.tolist(), b.tolist())]
    assert f.add(a.astype(np.int64), b).dtype == np.int64


@pytest.mark.parametrize("k", [6, 7, 12])
@pytest.mark.parametrize("wrong", [0, 1])
def test_validate_refuses_a_wrong_digit_add_entry(monkeypatch, k, wrong):
    # two all-2 six-digit words must add to the all-1 word 364; the
    # recurrence check never adds them, the fixed operands of _validate do
    from hypmono import finite_field

    table = finite_field._digit_add_table().copy()
    assert table[728 * 729 + 728] == 364
    table[728 * 729 + 728] = wrong
    monkeypatch.setattr(finite_field, "_digit_add_table", lambda: table)
    with pytest.raises(AssertionError):
        FieldTable(3, k, PRIMITIVE_POLYS[(3, k)])


def _add_reference(a, b, p: int, k: int):
    """Sum of two encodings, one base-p digit at a time (ints or arrays)."""
    return sum((a // p ** i + b // p ** i) % p * p ** i for i in range(k))


# degrees below, at and across the table's block width (_ADD_DIGITS = 6),
# up to the three blocks of 3^13 and the degree cap 3^15; every pair at
# F3^6 reads every table entry
@pytest.mark.parametrize("k,pairs", [(3, None), (5, 3000), (6, None), (7, 3000),
                                     (9, 3000), (11, 3000), (12, 3000), (13, 3000),
                                     (15, 3000)],
                         ids=["F27-all", "F3^5-random", "F3^6-all", "F3^7-random",
                              "F3^9-random", "F3^11-random", "F3^12-random",
                              "F3^13-random", "F3^15-random"])
def test_add_matches_digit_reference(k, pairs):
    # the fields past 3^12 are built uncached, so that their tables (128 MB
    # at 3^15) are freed after the test
    field = build_field(3, k) if k <= 12 else FieldTable(3, k, PRIMITIVE_POLYS[(3, k)])
    q = field.q
    if pairs is None:  # every pair
        a, b = np.divmod(np.arange(q ** 2), q)
    else:  # random pairs, then pairs at and near q - 1
        a, b = np.random.default_rng(k).integers(0, q, size=(2, pairs))
        top = [q - 1, q - 2, q - 1, 0, q - 1, 1, q // 3, 2 * q // 3]
        a = np.concatenate([a, top, top[::-1]])
        b = np.concatenate([b, top[::-1], top])
    ref = _add_reference(a, b, 3, k)
    out = field.add(a, b)
    assert out.dtype == np.int64 and np.array_equal(out, ref)
    x, y = int(a[-1]), int(b[-1])
    assert type(field.add(x, y)) is int and field.add(x, y) == _add_reference(x, y, 3, k)
    # a 2-D array against a scalar, both ways round
    grid = a[:20].reshape(4, 5)
    ref2 = _add_reference(grid, y, 3, k)
    assert field.add(grid, y).dtype == np.int64
    assert np.array_equal(field.add(grid, y), ref2) and np.array_equal(field.add(y, grid), ref2)
    # -x = x + x = 2x
    doubled = _add_reference(a, a, 3, k)
    assert np.array_equal(field.neg(a), doubled) and np.array_equal(field.scalar_mul(2, a), doubled)
    assert type(field.neg(x)) is int and field.neg(x) == field.scalar_mul(2, x) == doubled[-1]
    # int32 operands, as the antilog entries are, alone and with int64 ones
    units = np.resize(field.antilog, len(a))
    assert units.dtype == np.int32
    for u, v in ((units, units[::-1]), (units, b), (b, units)):
        out = field.add(u, v)
        assert out.dtype == np.int64
        assert np.array_equal(out, _add_reference(u.astype(np.int64), v.astype(np.int64), 3, k))


@pytest.mark.parametrize("p,k", [(3, 6), (3, 12), (2, 10)])
def test_add_refuses_operands_outside_the_field(p, k):
    # an operand outside [0, q) would lose its digits past k in the base-3
    # digit blocks, or wrap in int32
    field = build_field(p, k)
    q = field.q
    for bad in (q, q + 5, -1, 2 ** 40 + 7, np.int64(-1), np.int32(q)):
        for a, b in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match="field elements"):
                field.add(a, b)
    for bad in ([2 ** 40 + 7], np.array([3, -1], dtype=np.int32), np.array([q]),
                np.array([q], dtype=np.uint32), np.array([-1], dtype=np.int8),
                np.array([[0, 1], [2, q + 1]])):
        with pytest.raises(ValueError, match="field elements"):
            field.add(bad, np.zeros(np.shape(bad), dtype=np.int64))
        with pytest.raises(ValueError, match="field elements"):
            field.add(1, bad)
    # the edges themselves are elements
    assert field.add(q - 1, 0) == q - 1 and field.add(0, 0) == 0
    assert field.add(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0


# every embedded modulus up to 2^12 and 3^8
REFERENCE_FIELDS = [(p, k) for p, k in PRIMITIVE_POLYS if p ** k <= (4096 if p == 2 else 6561)]


@pytest.mark.parametrize("p,k", REFERENCE_FIELDS)
def test_antilog_matches_scalar_recurrence(p, k):
    # t * x shifts the digits up; a carried-out top digit c adds c t^k
    q = p ** k
    red = sum(-c % p * p ** i for i, c in enumerate(PRIMITIVE_POLYS[(p, k)][:-1]))
    ref, x = [], 1
    for _ in range(q - 1):
        ref.append(x)
        lead, x = divmod(x * p, q)
        for _ in range(lead):
            x = _add_reference(x, red, p, k)
    assert build_field(p, k).antilog.tolist() == ref


@pytest.mark.parametrize("k", range(1, 21))
def test_xor_fill_matches_matmul_fill(k):
    # the digit-matrix fill, kept for p = 3, works for p = 2 as well
    field = build_field(2, k)
    assert np.array_equal(field._fill_antilog_xor(), field._fill_antilog_matmul())


@pytest.mark.parametrize("k", [3, 12])
def test_xor_fill_with_a_wrong_reduction_word_fails_validation(monkeypatch, k):
    # the fill reads t^k off the modulus: with c_1 flipped there it fills
    # the powers of t modulo another polynomial, which the recurrence
    # check of _validate, reading the true modulus, refuses
    fill = FieldTable._fill_antilog_xor

    def wrong_fill(self):
        twin = copy.copy(self)
        twin.modulus = (self.modulus[0], 1 - self.modulus[1], *self.modulus[2:])
        return fill(twin)

    monkeypatch.setattr(FieldTable, "_fill_antilog_xor", wrong_fill)
    with pytest.raises(AssertionError, match="recurrence"):
        FieldTable(2, k, PRIMITIVE_POLYS[(2, k)])


@pytest.mark.parametrize("p,k", REFERENCE_FIELDS)
def test_trace_table_matches_conjugate_sum(p, k):
    # Tr(x) = x + x^p + ... + x^(p^(k-1)), summed in the field
    field = build_field(p, k)
    xs = field.elements()
    acc = np.zeros_like(xs)
    for i in range(k):
        acc = field.add(acc, field.pow(xs, p ** i))
    assert np.array_equal(field.trace_table, acc)


def test_field_axioms_small():
    for p, k in ((2, 3), (3, 2)):
        field = build_field(p, k)
        q = field.q
        for a in range(q):
            for b in range(q):
                assert field.add(a, b) == field.add(b, a)
                assert field.mul(a, b) == field.mul(b, a)
                for c in range(q):
                    assert field.mul(a, field.add(b, c)) == field.add(
                        field.mul(a, b), field.mul(a, c)
                    )


def test_cache_roundtrip(tmp_path):
    field = build_field(3, 4)
    path = tmp_path / "f81.tab"
    save_cache(field, path)
    loaded = load_cache(path)
    assert np.array_equal(loaded.antilog, field.antilog)
    assert np.array_equal(loaded.trace_table, field.trace_table)
    # corruption is rejected
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_cache(path)


def _old_format_blob(field) -> bytes:
    """A well-formed cache of the earlier format: magic HMFT0001 and the
    trace table stored after the antilog."""
    body = field.antilog.astype("<u4").tobytes() + field.trace_table.astype("<u4").tobytes()
    return (b"HMFT0001" + struct.pack("<III", field.p, field.k, len(field.modulus))
            + np.asarray(field.modulus, dtype="<u4").tobytes()
            + hashlib.sha256(body).digest() + body)


def test_cache_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.tab"
    for blob in (b"NOTMAGIC" + b"\0" * 64, _old_format_blob(build_field(3, 4))):
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="magic"):
            load_cache(path)


def _resealed(blob: bytes, field, antilog) -> bytes:
    """The cache blob with a new antilog table under a valid checksum."""
    head = 20 + 4 * len(field.modulus)
    body = antilog.astype("<u4").tobytes()
    return blob[:head] + hashlib.sha256(body).digest() + body


def _changed(a, idx, values):
    a = a.copy()
    a[idx] = values
    return a


MALFORMED = {
    "truncated-header": lambda blob, f: blob[:14],
    "huge-degree": lambda blob, f: blob[:12] + struct.pack("<I", 2 ** 32 - 1) + blob[16:],
    "swapped-antilog": lambda blob, f: _resealed(
        blob, f, _changed(f.antilog, [3, 4], f.antilog[[4, 3]])),
    "antilog-entry-beyond-q": lambda blob, f: _resealed(blob, f, _changed(f.antilog, 5, f.q)),
    "short-body": lambda blob, f: _resealed(blob, f, f.antilog[:-1]),
    # one entry copied over another: every entry in range, one log slot empty
    "duplicate-antilog-entry": lambda blob, f: _resealed(
        blob, f, _changed(f.antilog, 4, f.antilog[3])),
    "zero-antilog-entry": lambda blob, f: _resealed(blob, f, _changed(f.antilog, 5, 0)),
    # the body is read as int32: this <u4 entry reads as a negative one
    "antilog-entry-past-int32": lambda blob, f: _resealed(
        blob, f, _changed(f.antilog.astype(np.uint32), 5, 2 ** 31 + int(f.antilog[5]))),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_cache_rejects_malformed(tmp_path, case):
    # at both characteristics, so that the base-3 and the XOR recurrence
    # check and the log scatter each meet every mutation
    for p, k in ((3, 4), (2, 10)):
        field = build_field(p, k)
        path = tmp_path / f"f{field.q}.tab"
        save_cache(field, path)
        path.write_bytes(MALFORMED[case](path.read_bytes(), field))
        with pytest.raises(ValueError):
            load_cache(path)


# sha256 of the save_cache file as written by the earlier writer, which
# copied the antilog with astype("<u4"): the format and its bytes are fixed
CACHE_SHA256 = {
    (2, 10): "4fd88ede6a37a47659891daadb81f35645f83b967e687da46ceee409581f825d",
    (3, 6): "914188699947611274d4eba79aadde426369bf5c69f8b58d9cb93234977c8df7",
}


@pytest.mark.parametrize("p,k", CACHE_SHA256)
def test_cache_bytes_are_pinned(tmp_path, p, k):
    path = tmp_path / "field.tab"
    save_cache(build_field(p, k), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_SHA256[(p, k)]


def test_negative_antilog_entry_is_rejected():
    # x - q indexes the same log slot as x, so the scatter alone would
    # still fill every slot
    field = build_field(3, 4)
    antilog = _changed(field.antilog, 5, field.antilog[5] - field.q)
    with pytest.raises(AssertionError, match="1..q-1"):
        FieldTable(3, 4, field.modulus, antilog=antilog)


# irreducible but not primitive: t has order 4 in F_9 and 5 in F_16, so the
# recurrence holds and only the log scatter leaves slots empty
@pytest.mark.parametrize("p,modulus", [(3, (1, 0, 1)), (2, (1, 1, 1, 1, 1))])
def test_non_primitive_modulus_fails_the_bijection_check(p, modulus):
    with pytest.raises(AssertionError, match="not a bijection"):
        FieldTable(p, len(modulus) - 1, modulus)


def _t_has_full_order(p: int, modulus) -> bool:
    """Whether t has order p^k - 1 modulo the monic modulus: multiply 1 by
    t, one coefficient list at a time, until it comes back."""
    k = len(modulus) - 1
    one = [1] + [0] * (k - 1)
    x = one
    for step in range(1, p ** k):
        top, x = x[-1], [0] + x[:-1]  # t^k = -(c_0 + ... + c_(k-1) t^(k-1))
        x = [(xi - top * c) % p for xi, c in zip(x, modulus)]
        if x == one:
            return step == p ** k - 1
    return False


def test_modulus_is_accepted_exactly_when_t_has_full_order():
    # every monic modulus up to degree 7 over F_2 and 4 over F_3, among
    # them reducible ones with f(0) = 0 and with a repeated factor
    refused = set()
    for p, k_max in ((2, 7), (3, 4)):
        for k in range(1, k_max + 1):
            for low in itertools.product(range(p), repeat=k):
                modulus = (*low, 1)
                try:
                    FieldTable(p, k, modulus)
                    accepted = True
                except AssertionError:
                    accepted = False
                    refused.add((p, modulus))
                assert accepted == _t_has_full_order(p, modulus), (p, modulus)
    # t (t + 1), (t + 1)^2, t (t + 2)^2 and (t^2 + 1)^2
    for case in ((2, (0, 1, 1)), (2, (1, 0, 1)), (3, (0, 1, 1, 1)), (3, (1, 0, 2, 0, 1))):
        assert case in refused


def test_moduli_table_is_primitive_everywhere():
    # every embedded modulus passes the constructor's full validation
    for (p, k) in PRIMITIVE_POLYS:
        if p ** k <= (2 ** 16 if p == 2 else 3 ** 10):
            FieldTable(p, k, PRIMITIVE_POLYS[(p, k)])


# ----------------------------------------------------------------------
# field laws on random elements, including degrees k > 7

LAW_FIELDS = [(2, 3), (2, 9), (2, 16), (3, 2), (3, 8), (3, 11)]


@st.composite
def elements(draw, n):
    field = build_field(*draw(st.sampled_from(LAW_FIELDS)))
    return (field, *(draw(st.integers(0, field.q - 1)) for _ in range(n)))


@settings(max_examples=150, deadline=None)
@given(elements(3))
def test_ring_laws(args):
    f, a, b, c = args
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0


@settings(max_examples=150, deadline=None)
@given(elements(2))
def test_frobenius_and_trace_laws(args):
    f, a, b = args
    p = f.p  # Frobenius is x -> x^p
    assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))
    assert f.pow(f.mul(a, b), p) == f.mul(f.pow(a, p), f.pow(b, p))
    tr = f.trace_to_prime
    assert tr(f.add(a, b)) == (tr(a) + tr(b)) % f.p
