import csv
import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hypmono.cyclotomic import CycNumber
from hypmono.errors import CapExceededError
from hypmono.exp_sums import (
    FAMILIES,
    _cyclic_conv2,
    _power_sum_counts,
    _trace_direct,
    _twisted_counts,
    export_csv,
    float_gap,
    frobenius_invariance_check,
    galois_invariance_check,
    integrality_check,
    moments,
    purity_check,
    rationality_check,
    table_stats,
    trace_axb,
    trace_quartic,
    trace_table_all,
)
from hypmono.finite_field import build_field
from hypmono.hyp_params import build_spec


@pytest.fixture(scope="module")
def f4():
    return build_field(2, 2)


@pytest.fixture(scope="module")
def f16():
    return build_field(2, 4)


@pytest.fixture(scope="module")
def f9():
    return build_field(3, 2)


@pytest.fixture(scope="module")
def table_f16(f16):
    return trace_table_all(f16, "AxB", A=3, B=13, mode="exact")


def test_twisted_sum_examples(f4):
    # sum over x in F4 of psi(13x - x^13 / t) is 4 at t = 1 and 0 at t = g
    counts = _power_sum_counts(f4, 13, [1, int(f4.antilog[1])])
    assert counts.tolist() == [[4, 0], [2, 2]]
    assert CycNumber.from_exponent_counts(2, counts[0]) == 4
    assert CycNumber.from_exponent_counts(2, counts[1]) == 0


def test_trace_f4_closed_form(f4):
    # T(s) = psi(1/s): only t_1 = t_2 = 1 contribute
    table = trace_table_all(f4, "AxB", A=3, B=13, mode="exact")
    assert trace_axb(f4, 3, 13, 1) == 1
    for s in f4.units():
        expected = CycNumber.root_of_unity(2, f4.trace_to_prime(f4.inv(int(s))))
        assert table.value(int(s)) == expected
        assert trace_axb(f4, 3, 13, int(s)) == expected


def test_trace_f4_brute_force_oracle(f4):
    # fully nested reference sum, no factoring of the inner sum at all
    import itertools

    q = f4.q
    for s in f4.units():
        total = 0.0
        for t1, t2 in itertools.product(range(1, q), repeat=2):
            inner = 0.0
            for x1, x2 in itertools.product(range(q), repeat=2):
                arg = f4.add(
                    f4.add(f4.scalar_mul(13, x1), f4.scalar_mul(13, x2)),
                    f4.add(
                        f4.mul(f4.pow(x1, 13), f4.inv(t1)),
                        f4.mul(f4.pow(x2, 13), f4.inv(t2)),
                    ),
                )
                inner += (-1.0) ** f4.trace_to_prime(arg)
            outer = (-1.0) ** f4.trace_to_prime(
                f4.mul(f4.mul(t1, t2), f4.inv(int(s)))
            )
            zeta3 = np.exp(2j * np.pi / 3)
            chi = zeta3 ** ((f4.log[t1] - f4.log[t2]) % 3)
            total += outer * chi * inner
        total /= q ** 2
        assert abs(total - trace_axb(f4, 3, 13, int(s)).to_complex()) < 1e-9


def test_direct_equals_restructured_f16(f16, table_f16):
    for s in f16.units():
        assert trace_axb(f16, 3, 13, int(s)) == table_f16.value(int(s))


@pytest.mark.parametrize("family, k", [("3x13", 6), ("28x", 4)])
def test_direct_equals_exact_table_at_every_point(family, k):
    fam = FAMILIES[family]
    field = build_field(fam.p, k)
    table = trace_table_all(field, fam.kind, A=fam.A, B=fam.B, mode="exact")
    for s in field.units():
        if fam.kind == "AxB":
            direct = trace_axb(field, fam.A, fam.B, int(s))
        else:
            direct = trace_quartic(field, fam.B, int(s))
        assert direct == table.value(int(s))


def test_f16_table_properties(table_f16, f16):
    assert len(table_f16) == f16.q - 1
    assert rationality_check(table_f16)
    assert integrality_check(table_f16)  # every T(s) in Z[zeta_m]
    assert purity_check(table_f16)
    assert frobenius_invariance_check(table_f16)
    assert galois_invariance_check(table_f16)


def _planted(table, i, row):
    """table with the numerators of row i (over q^nu) replaced by row."""
    num = table.exact_num.copy()
    num[i] = row
    return dataclasses.replace(table, exact_num=num)


@pytest.fixture(scope="module")
def table_f9(f9):
    return trace_table_all(f9, "AxB", A=4, B=5, mode="exact")


def test_integrality_refuses_a_value_with_denominator_two(table_f16):
    # zeta/2 is not an algebraic integer, though 2 divides q^nu = 256
    planted = _planted(table_f16, 5, [0, table_f16.den // 2])
    assert planted.value_at_log(5) == CycNumber.root_of_unity(6, 1, Fraction(1, 2))
    assert not integrality_check(planted)


def test_purity_refuses_a_large_or_irrational_modulus(table_f16, table_f9):
    den = table_f16.den
    assert purity_check(_planted(table_f16, 5, [24 * den, 0]))
    assert not purity_check(_planted(table_f16, 5, [25 * den, 0]))
    # on the basis 1, zeta, zeta^2, zeta^3 of Q(zeta_12): |1 + i|^2 = 2,
    # while |1 + zeta_12|^2 = 2 + sqrt(3) is irrational
    den = table_f9.den
    assert purity_check(_planted(table_f9, 3, [den, 0, 0, den]))
    assert not purity_check(_planted(table_f9, 3, [den, den, 0, 0]))


def test_rationality_refuses_a_zeta_column(table_f16):
    den = table_f16.den
    assert rationality_check(_planted(table_f16, 5, [3 * den, 0]))
    assert not rationality_check(_planted(table_f16, 5, [0, den]))


def test_frobenius_refuses_values_swapped_across_orbits(table_f16):
    # s -> s^4 on F16^*: the orbits of the logs 1 and 3 are {1, 4} and
    # {3, 12}, where T is 1 and -1
    num = table_f16.exact_num
    assert num[1, 0] == num[4, 0] == -num[3, 0] == -num[12, 0]
    swapped = _planted(_planted(table_f16, 1, num[3]), 3, num[1])
    assert not frobenius_invariance_check(swapped)


def test_galois_refuses_a_value_an_admissible_map_moves(table_f9):
    # zeta_12 -> zeta_12^7 = -zeta_12 fixes zeta_3 (7 = 1 mod 3)
    den = table_f9.den
    assert galois_invariance_check(_planted(table_f9, 3, [2 * den, 0, den, 0]))
    assert not galois_invariance_check(_planted(table_f9, 3, [0, den, 0, 0]))


@pytest.mark.parametrize("p, k, family", [(2, 4, "3x13"), (3, 4, "4x5"), (3, 4, "28x")])
def test_exact_table_api_read_by_the_benchmark(p, k, family):
    # perfbench reads these fields and exact_values[i].to_complex(), and
    # leaves A out for the A-times family
    fam = FAMILIES[family]
    A = fam.A if fam.kind == "AxB" else None
    t = trace_table_all(build_field(p, k), fam.kind, A=A, B=fam.B, mode="exact")
    params = {"A": fam.A, "B": fam.B}
    assert (t.family, t.params, t.mode, t.float_err) == (fam.kind, params, "exact", 0.0)
    values = t.complex_values()
    assert len(t.exact_values) == len(values) == p ** k - 1
    assert all(v.to_complex() == values[i] for i, v in enumerate(t.exact_values))
    assert not t.exact_num.flags.writeable


def test_f16_float_agrees(f16, table_f16):
    tf = trace_table_all(f16, "AxB", A=3, B=13, mode="float")
    assert float_gap(table_f16, tf) <= tf.float_err < 1e-9


@pytest.mark.parametrize("p, k, B", [
    (2, 8, 13), (2, 8, 7), (3, 5, 5), (3, 5, 7), (3, 6, 5), (3, 6, 7),
])
def test_twisted_counts_match_per_t_route(p, k, B):
    # gcd(7, 3^6 - 1) = 7: x -> x^B is not a bijection there
    field = build_field(p, k)
    assert np.array_equal(_twisted_counts(field, B), _power_sum_counts(field, B, field.antilog))


# the other fields the suite and the acceptance criteria build exact tables
# on (F16 is test_f16_float_agrees), and 2^8: 255 = 3 * 5 * 17 is a length
# where pocketfft may take Bluestein's route
@pytest.mark.parametrize("p, k, kind, A, B", [
    (2, 2, "AxB", 3, 13), (2, 6, "AxB", 3, 13), (2, 8, "AxB", 3, 13),
    (2, 10, "AxB", 3, 13),
    (3, 2, "AxB", 4, 5), (3, 4, "AxB", 4, 5), (3, 6, "AxB", 4, 5),
    (3, 2, "Atimes", None, 7), (3, 4, "Atimes", None, 7), (3, 6, "Atimes", None, 7),
])
def test_float_table_within_bound_of_exact(p, k, kind, A, B):
    field = build_field(p, k)
    te = trace_table_all(field, kind, A=A, B=B, mode="exact")
    tf = trace_table_all(field, kind, A=A, B=B, mode="float")
    assert float_gap(te, tf) <= tf.float_err < 1e-9


def test_quartic_family_f9(f9):
    table = trace_table_all(f9, "Atimes", B=7, mode="exact")
    for s in f9.units():
        direct = trace_quartic(f9, 7, int(s))
        assert direct == table.value(int(s))
    # every T(s) is an algebraic integer in the cube-root span
    assert integrality_check(table)
    assert galois_invariance_check(table)
    assert frobenius_invariance_check(table)


def test_quartic_inner_sum_factorizes(f9):
    # the two-variable inner sum is the product of two one-variable sums
    import itertools

    B = 7
    for u, v in ((1, 1), (2, 5), (7, 3)):
        inner = 0.0
        zeta3 = np.exp(2j * np.pi / 3)
        for x, y in itertools.product(range(9), repeat=2):
            arg = f9.add(
                f9.add(f9.scalar_mul(B, x), f9.scalar_mul(B, y)),
                f9.neg(
                    f9.add(
                        f9.mul(f9.pow(x, B), f9.inv(u)),
                        f9.mul(f9.pow(y, B), f9.inv(v)),
                    )
                ),
            )
            inner += zeta3 ** f9.trace_to_prime(arg)
        su, sv = (CycNumber.from_exponent_counts(3, c).to_complex()
                  for c in _power_sum_counts(f9, B, [u, v]))
        assert abs(inner - su * sv) < 1e-9


def test_axb_family_f9(f9):
    table = trace_table_all(f9, "AxB", A=4, B=5, mode="exact")
    for s in f9.units():
        assert trace_axb(f9, 4, 5, int(s)) == table.value(int(s))
    assert purity_check(table)
    assert galois_invariance_check(table)


def test_f81_frobenius_and_span():
    f81 = build_field(3, 4)
    for kind, A, B in (("AxB", 4, 5), ("Atimes", None, 7)):
        table = trace_table_all(f81, kind, A=A, B=B, mode="exact")
        assert frobenius_invariance_check(table)  # T(s^9) = T(s)
        assert galois_invariance_check(table)
        assert purity_check(table)


def test_trace_preconditions(f4, f9, f16):
    with pytest.raises(ValueError):
        trace_axb(f16, 3, 13, 0)
    with pytest.raises(ValueError):
        trace_axb(f16, 3, 9, 1)  # gcd(A, B) != 1
    with pytest.raises(ValueError):
        trace_axb(f16, 7, 13, 1)  # 7 does not divide q-1 = 15
    with pytest.raises(ValueError):
        trace_quartic(f4, 13, 1)  # even characteristic
    with pytest.raises(ValueError):
        trace_quartic(f9, 3, 1)  # B divisible by p
    with pytest.raises(ValueError):
        trace_table_all(f16, "AxB", A=None, B=13)
    with pytest.raises(ValueError):
        trace_table_all(f9, "Atimes", A=20, B=7)  # the A-times family has A = 4B


def test_direct_and_tables_refuse_alike():
    # the direct evaluator and both table routes validate one formula: they
    # refuse the same families and accept each of FAMILIES at its base field
    refused = [
        (2, 4, "AxB", 3, 9),  # gcd(A, B) != 1; the tables used to accept it
        (2, 4, "AxB", 3, 3),
        (2, 4, "AxB", None, 13),
        (2, 4, "AxB", 7, 13),  # 7 does not divide q - 1 = 15
        (2, 2, "Atimes", 28, 7),  # the A-times family needs odd p
        (3, 2, "Atimes", 12, 3),  # B = 3 divisible by p
        (3, 2, "Atimes", 20, 7),  # A != 4B
    ]
    for p, k, kind, A, B in refused:
        field = build_field(p, k)
        with pytest.raises(ValueError):
            _trace_direct(field, kind, A, B, 1)
        if kind == "AxB" or A == 4 * B:  # trace_quartic passes A = 4B itself
            with pytest.raises(ValueError):
                trace_axb(field, A, B, 1) if kind == "AxB" else trace_quartic(field, B, 1)
        for mode in ("exact", "float"):
            with pytest.raises(ValueError):
                trace_table_all(field, kind, A=A, B=B, mode=mode)
    for fam in FAMILIES.values():
        field = build_field(fam.p, 2)
        if fam.kind == "AxB":
            assert trace_axb(field, fam.A, fam.B, 1) is not None
        else:
            assert trace_quartic(field, fam.B, 1) is not None
        for mode in ("exact", "float"):
            assert trace_table_all(field, fam.kind, A=fam.A, B=fam.B, mode=mode).mode == mode


def test_points_out_of_range_are_refused(f9):
    # a point is a nonzero element, 0 < s < q; -1 would wrap to s = 8 and
    # s = q would index past the tables
    table = trace_table_all(f9, "AxB", A=4, B=5, mode="exact")
    for s in (-1, 0, 9):
        with pytest.raises(ValueError):
            table.value(s)
        with pytest.raises(ValueError):
            trace_axb(f9, 4, 5, s)


def test_moments(f4, f16):
    table = trace_table_all(f4, "AxB", A=3, B=13, mode="exact")
    assert moments(table, 1) == pytest.approx(1.0)  # values are +-1
    assert moments(table, 1, exact=True) == 1
    tf = trace_table_all(f16, "AxB", A=3, B=13, mode="float")
    assert moments(tf, 1) >= 0
    assert moments(tf, 2) >= 0


def test_galois_check_requires_exact(f16):
    tf = trace_table_all(f16, "AxB", A=3, B=13, mode="float")
    with pytest.raises(ValueError):
        galois_invariance_check(tf)
    with pytest.raises(ValueError):
        tf.value(1)


def test_exact_cap():
    f2048 = build_field(2, 11)
    with pytest.raises(CapExceededError):
        trace_table_all(f2048, "AxB", A=3, B=13, mode="exact")


def test_direct_cap():
    f729 = build_field(3, 6)
    with pytest.raises(CapExceededError):
        trace_axb(f729, 4, 5, 1)  # 728^3 tuples


def test_export_and_stats(tmp_path, f4, f16):
    te = trace_table_all(f4, "AxB", A=3, B=13, mode="exact")
    p1 = tmp_path / "exact.csv"
    export_csv(te, p1)
    with open(p1, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s_log_index", "exact"]
    assert len(rows) == 1 + 3
    payload = json.loads(rows[1][1])
    assert CycNumber(payload["order"], tuple(payload["num"]), payload["den"]) == te.value_at_log(0)
    # every row is the order, numerators and den of its CycNumber, in lowest terms
    assert rows[1:] == [
        [str(i), json.dumps({"order": v.order, "num": list(v.num), "den": v.den})]
        for i, v in enumerate(te.exact_values)]
    tf = trace_table_all(f16, "AxB", A=3, B=13, mode="float")
    p2 = tmp_path / "float.csv"
    export_csv(tf, p2)
    lines = p2.read_text().splitlines()
    assert lines[0] == "s_log_index,re,im"
    assert lines[1:] == [f"{i},{z.real!r},{z.imag!r}" for i, z in enumerate(tf.float_values.tolist())]
    stats = table_stats(te)
    assert stats["q"] == 4 and stats["M1"] == pytest.approx(1.0)
    assert stats["frobenius_pass"] is True


def test_float_csv_reads_back_with_float(tmp_path, f16):
    tf = trace_table_all(f16, "AxB", A=3, B=13, mode="float")
    path = tmp_path / "float.csv"
    export_csv(tf, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    read_back = np.array([complex(float(re), float(im)) for _, re, im in rows])
    assert np.array_equal(read_back, tf.float_values)


def _csv_writer_bytes(header, rows) -> bytes:
    """The bytes csv.writer gives header and rows, one row at a time."""
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return ref.getvalue().encode()


def test_float_csv_bytes_match_csv_writer(tmp_path, f16, monkeypatch):
    from hypmono import exp_sums

    monkeypatch.setattr(exp_sums, "_CSV_ROWS", 4)  # 15 rows: three full blocks and a short one
    tf = trace_table_all(f16, "AxB", A=3, B=13, mode="float")
    odd = [-0.0, float("nan"), float("inf"), 5e-324, 1e16, -1 / 3, 0.1 + 0.2]
    values = tf.float_values.copy()
    values[:len(odd)] = [complex(x, -x) for x in odd]
    # -0.0 and 0.0 (keyed apart by their bits) and NaN again in later blocks
    values[9] = complex(0.0, float("nan"))
    values[13] = complex(float("nan"), -0.0)
    tf = dataclasses.replace(tf, float_values=values)
    path = tmp_path / "float.csv"
    export_csv(tf, path)
    rows = zip(range(len(values)), values.real.tolist(), values.imag.tolist())
    assert path.read_bytes() == _csv_writer_bytes(["s_log_index", "re", "im"], rows)
    lines = path.read_text().splitlines()
    assert lines[1] == "0,-0.0,0.0" and lines[10] == "9,0.0,nan" and lines[14] == "13,nan,-0.0"


def test_float_csv_bytes_across_blocks(tmp_path):
    # 6560 rows, several blocks of the real _CSV_ROWS, with values repeated
    # within and across blocks
    from hypmono import exp_sums

    fam = FAMILIES["4x5"]
    tf = trace_table_all(build_field(3, 8), fam.kind, A=fam.A, B=fam.B, mode="float")
    assert len(tf) > 2 * exp_sums._CSV_ROWS
    values = tf.float_values
    path = tmp_path / "float.csv"
    export_csv(tf, path)
    rows = zip(range(len(values)), values.real.tolist(), values.imag.tolist())
    assert path.read_bytes() == _csv_writer_bytes(["s_log_index", "re", "im"], rows)


@pytest.mark.parametrize("family,k", [("3x13", 10), ("4x5", 6), ("28x", 6)])
def test_exact_csv_bytes_match_per_row_json(tmp_path, family, k):
    fam = FAMILIES[family]
    te = trace_table_all(build_field(fam.p, k), fam.kind, A=fam.A, B=fam.B, mode="exact")
    path = tmp_path / "exact.csv"
    export_csv(te, path)
    # these tables repeat rows, so the written cells are gathered
    values = te.exact_values
    assert len(set(values)) < len(values) // 10
    rows = ([i, json.dumps({"order": v.order, "num": list(v.num), "den": v.den})]
            for i, v in enumerate(values))
    assert path.read_bytes() == _csv_writer_bytes(["s_log_index", "exact"], rows)


def test_family_registry():
    fam = FAMILIES["3x13"]
    assert (fam.p, fam.A, fam.B) == (2, 3, 13)
    # the base field, the least holding the characters of the trace formula,
    # and the rank, the spec's n
    tables = {name: trace_table_all(build_field(f.p, 2), f.kind, A=f.A, B=f.B)
              for name, f in FAMILIES.items()}
    assert {name: t.base_size for name, t in tables.items()} == {"3x13": 4, "4x5": 9, "28x": 9}
    assert {name: t.rank for name, t in tables.items()} == {"3x13": 24, "4x5": 12, "28x": 12}
    # the spec's M is the order of the local monodromy at 0
    specs = {name: build_spec(f.kind, f.p, f.A, f.B) for name, f in FAMILIES.items()}
    assert {name: spec.M for name, spec in specs.items()} == {"3x13": 39, "4x5": 20, "28x": 28}


def test_f256_float_table_bounded_and_real():
    f256 = build_field(2, 8)
    table = trace_table_all(f256, "AxB", A=3, B=13, mode="float")
    vals = table.float_values
    assert np.abs(vals).max() <= 24 + 1e-6
    assert not vals.imag.any() and not np.signbit(vals.imag).any()  # all +0.0
    assert 0.0 < table.imag_residual <= table.float_err
    assert frobenius_invariance_check(table)


def test_real_table_refuses_imaginary_parts_beyond_its_bound(f16, monkeypatch):
    from hypmono import exp_sums

    gauss_table = exp_sums._gauss_table

    def planted(*args):
        raw, err = gauss_table(*args)
        # 1e-6 of the largest value, far above float_err (below 1e-9 here)
        raw[5] += 1e-6j * np.abs(raw).max()
        return raw, err

    monkeypatch.setattr(exp_sums, "_gauss_table", planted)
    with pytest.raises(AssertionError, match="beyond its bound"):
        trace_table_all(f16, "AxB", A=3, B=13, mode="float")


@pytest.mark.parametrize("family", ["4x5", "28x"])
def test_char3_float_table_keeps_its_imaginary_parts(family):
    # the values lie in Z[zeta_3], not in R: nothing is projected, and their
    # imaginary parts, multiples of sqrt(3) / 2, stay
    fam = FAMILIES[family]
    table = trace_table_all(build_field(3, 4), fam.kind, A=fam.A, B=fam.B, mode="float")
    assert table.imag_residual is None
    assert np.abs(table.float_values.imag).max() > 0.8
    assert "imag_residual" not in table_stats(table)


def test_real_table_stats_report_the_dropped_residual(table_f16, f16):
    tf = trace_table_all(f16, "AxB", A=3, B=13, mode="float")
    for stats in (table_stats(tf), table_stats(table_f16, tf)):
        assert stats["imag_residual"] == tf.imag_residual
        assert 0.0 < stats["imag_residual"] <= stats["float_err"] == tf.float_err
    with pytest.raises(ValueError):
        rationality_check(tf)  # exact mode only; the build checked it


def _naive_conv2(a, b):
    """c[i, e] = sum over j, e1 of a[j, e1] * b[i - j, e - e1], one shifted
    copy of b per nonzero entry of a, in int64."""
    out = np.zeros_like(b)
    for j, e1 in zip(*np.nonzero(a)):
        out += a[j, e1] * np.roll(b, (j, e1), axis=(0, 1))
    return out


# n = 15 is 3 * 5, 728 = 2^3 * 7 * 13 and 1023 = 3 * 11 * 31 are mixed
# radix, 2047 = 23 * 89 a length where pocketfft may take Bluestein's route;
# the dense operand's 40-bit entries need several limbs at every n
@pytest.mark.parametrize("n", [15, 728, 1023, 2047])
@pytest.mark.parametrize("m", [1, 6, 12])
def test_cyclic_conv2_matches_naive(n, m):
    rng = np.random.default_rng(n * 100 + m)
    dense = rng.integers(0, 1 << 40, (n, m))
    sparse = np.zeros((n, m), dtype=np.int64)
    nnz = min(n * m, 40)
    flat = rng.choice(n * m, nnz, replace=False)
    sparse.flat[flat] = rng.integers(1, 1 << 12, nnz)
    expected = _naive_conv2(sparse, dense)
    assert np.array_equal(_cyclic_conv2(sparse, dense), expected)
    assert np.array_equal(_cyclic_conv2(dense, sparse), expected)
    # the larger entries on the sparse side: it is the one split into limbs
    big = sparse << 28
    small = rng.integers(0, 1 << 12, (n, m))
    assert np.array_equal(_cyclic_conv2(big, small), _naive_conv2(big, small))


def test_cyclic_conv2_refuses_bad_input():
    a = np.ones((3, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        _cyclic_conv2(a, -a)
    with pytest.raises(ValueError):
        _cyclic_conv2(a, np.ones((2, 3), dtype=np.int64))
    assert not _cyclic_conv2(a, 0 * a).any()


def test_cyclic_conv2_refuses_int64_overflow():
    fa = np.zeros((3, 2), dtype=np.int64)
    fb = np.zeros((3, 2), dtype=np.int64)
    fa[0, 0] = fb[0, 0] = 1 << 32  # the product 2^64 would wrap
    with pytest.raises(CapExceededError):
        _cyclic_conv2(fa, fb)


def test_additive_kernel_refuses_int64_overflow():
    # the additive transform with Tr o antilog = 0: K[d, 0] = 1 for every d
    kernel = np.zeros((2, 2), dtype=np.int64)
    kernel[:, 0] = 1
    g = np.zeros((2, 2), dtype=np.int64)
    g[:, 0] = 1 << 62  # two rows summing to 2^63 would wrap
    with pytest.raises(CapExceededError):
        _cyclic_conv2(kernel, g)
    assert np.array_equal(_cyclic_conv2(kernel, g // 2), [[1 << 62, 0]] * 2)


def test_cyclic_conv2_refuses_uncertified_rounding():
    # within int64, but even one-bit limbs leave a rounding bound above 1/4
    small = np.full((2047, 12), 1 << 26, dtype=np.int64)
    big = np.zeros_like(small)
    big[0, 0] = 1 << 27
    with pytest.raises(CapExceededError):
        _cyclic_conv2(big, small)


def test_large_float_table_q4096():
    # 4095 = 3^2 * 5 * 7 * 13: a mixed-radix transform with odd radices
    f4096 = build_field(2, 12)
    table = trace_table_all(f4096, "AxB", A=3, B=13, mode="float")
    assert purity_check(table)
    assert frobenius_invariance_check(table)
    assert not table.float_values.imag.any()
    assert abs(moments(table, 1) - 1.0) <= 10 / math.sqrt(4096)
