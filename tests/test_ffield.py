import hashlib
import random

import numpy as np
import pytest

from hyperquad._gfkernel import mult_matrix
from hyperquad.ffield import (
    FieldConstructionError,
    FieldDesc,
    FieldParseError,
    UnsupportedCharacteristicError,
    f27_preset,
    format_element,
    frobenius,
    frobenius_inverse,
    make_field,
    parse_element,
)

from checks import degree_over_prime

SAMPLE_FIELDS = [(3, 1), (3, 3), (5, 1), (5, 2), (7, 1)]


def sample(field, rng, n):
    pool = list(field.elements())
    return [rng.choice(pool) for _ in range(n)]


def test_construction_errors():
    with pytest.raises(UnsupportedCharacteristicError):
        make_field(2, 1)
    with pytest.raises(FieldConstructionError):
        make_field(9, 1)
    with pytest.raises(FieldConstructionError):
        # X^3 + 1 = (X+1)^3 in characteristic 3
        make_field(3, 3, [1, 0, 0, 1])
    with pytest.raises(FieldConstructionError):
        make_field(3, 2, [1, 0, 2])  # not monic
    with pytest.raises(FieldConstructionError):
        make_field(3, 2, [1, 1])  # degree mismatch


def test_extension_degree_above_the_bound_is_rejected_at_once(monkeypatch):
    from hyperquad import ffield

    def refuse(*args):
        raise AssertionError("the field was searched for or built")

    for name in ("_default_modulus", "_modulus_is_irreducible", "FieldDesc"):
        monkeypatch.setattr(ffield, name, refuse)
    for modulus in (None, [1] * (10**6 + 1)):
        with pytest.raises(FieldConstructionError, match="extension degree"):
            make_field(3, 10**6, modulus)
    with pytest.raises(FieldConstructionError):
        make_field(3, ffield._S_BOUND + 1)
    monkeypatch.undo()
    assert make_field(3, ffield._S_BOUND).s == ffield._S_BOUND


def test_prime_field_defaults():
    f3 = make_field(3, 1)
    assert list(f3.modulus) == [0, 1]
    assert (f3.from_int(2) + f3.from_int(2)).coeffs == (1,)


def test_field_cache_identity():
    assert make_field(5, 2) is make_field(5, 2)
    assert f27_preset() is f27_preset()


def test_f27_preset_matches_hand_reductions():
    f = f27_preset()
    u = f.u
    assert (u**13) == -f.one
    assert (u**3).coeffs == (2, 1, 2)
    assert -f.one + u**3 == u**4
    assert (u**6).coeffs == (1, 0, 1)
    assert u**26 == f.one


def test_f27_nonzero_elements_are_signed_powers():
    f = f27_preset()
    signed_powers = set()
    for i in range(13):
        signed_powers.add((f.u**i).coeffs)
        signed_powers.add((-(f.u**i)).coeffs)
    everything = {x.coeffs for x in f.nonzero_elements()}
    assert signed_powers == everything
    assert len(everything) == 26


@pytest.mark.parametrize("p,s", SAMPLE_FIELDS)
def test_field_axioms_on_samples(p, s):
    field = make_field(p, s)
    rng = random.Random(1000 * p + s)
    xs = sample(field, rng, 30)
    ys = sample(field, rng, 30)
    zs = sample(field, rng, 30)
    for x, y, z in zip(xs, ys, zs):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == field.zero
        if not x.is_zero():
            assert x * x.inverse() == field.one
            assert (x / x) == field.one


@pytest.mark.parametrize("p,s", SAMPLE_FIELDS)
def test_frobenius_is_automorphism(p, s):
    field = make_field(p, s)
    rng = random.Random(2000 * p + s)
    for t in (1, 2, 3):
        for x, y in zip(sample(field, rng, 20), sample(field, rng, 20)):
            assert frobenius(x + y, t) == frobenius(x, t) + frobenius(y, t)
            assert frobenius(x * y, t) == frobenius(x, t) * frobenius(y, t)
            assert frobenius(x, t) == x ** (p**t)
            assert frobenius_inverse(frobenius(x, t), t) == x
            assert frobenius(frobenius_inverse(x, t), t) == x
    for x in sample(field, rng, 10):
        assert frobenius(x, field.s) == x


def test_frobenius_fixes_prime_field():
    field = make_field(7, 1)
    for x in field.elements():
        assert frobenius(x, 3) == x


@pytest.mark.parametrize("p,s", SAMPLE_FIELDS)
def test_degree_over_prime_divides_s(p, s):
    field = make_field(p, s)
    for x in field.elements():
        assert s % degree_over_prime(x) == 0


def test_degree_over_prime_in_f27():
    f = f27_preset()
    assert degree_over_prime(f.u) == 3
    assert degree_over_prime(f.from_int(2)) == 1
    # no intermediate subfield between F_3 and F_27
    for x in f.elements():
        assert degree_over_prime(x) in (1, 3)


def test_parse_format_round_trip():
    f = f27_preset()
    for x in f.elements():
        assert parse_element(f, format_element(x)) == x
    assert format_element(f.u**7) == "u^7"
    assert format_element(-(f.u**2)) == "-u^2"
    assert format_element(f.zero) == "0"
    assert format_element(f.one) == "1"
    assert format_element(-f.one) == "-1"
    assert parse_element(f, "2,0,1") == f.from_int(2) + f.u**2
    assert parse_element(f, "u") == f.u
    assert parse_element(f, "-u") == -f.u


def test_parse_format_prime_field():
    f7 = make_field(7, 1)
    assert format_element(f7.from_int(6)) == "-1"
    assert format_element(f7.from_int(3)) == "3"
    assert parse_element(f7, "-2") == f7.from_int(5)
    for x in f7.elements():
        assert parse_element(f7, format_element(x)) == x


def test_parse_errors_carry_position():
    f = f27_preset()
    with pytest.raises(FieldParseError):
        parse_element(f, "u^")
    with pytest.raises(FieldParseError):
        parse_element(f, "1,2")
    with pytest.raises(FieldParseError):
        parse_element(f, "v^3")
    with pytest.raises(FieldParseError):
        parse_element(f, "")
    f3 = make_field(3, 1)
    with pytest.raises(FieldParseError):
        parse_element(f3, "u^2")


def test_mixed_field_operations_rejected():
    a = make_field(3, 1).one
    b = make_field(5, 1).one
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ZeroDivisionError):
        _ = a / make_field(3, 1).zero


def test_larger_field_without_table_formats_vectors():
    # beyond the display-table bound: 3^11 = 177147 > 2^16
    field = make_field(3, 11)
    x = field.u ** 5 + field.one
    text = format_element(x)
    assert "," in text
    assert parse_element(field, text) == x


def test_default_moduli_are_the_least_irreducibles():
    # low-degree-first lexicographic order over monics with nonzero constant
    assert make_field(3, 4).modulus == (1, 0, 1, 1, 1)
    assert make_field(5, 2).modulus == (1, 1, 1)
    assert make_field(13, 2).modulus == (1, 3, 1)


def test_default_modulus_at_a_large_characteristic():
    # the search never enumerates the p elements of F_p
    assert make_field(33554393, 3).modulus == (1, 0, 4, 1)


# ---------------------------------------------------------------------------
# table arithmetic against the coordinate product
# ---------------------------------------------------------------------------


def ref_mul(field, a, b):
    """Schoolbook product of coordinate tuples, reduced by the modulus."""
    p, s = field.p, field.s
    raw = [0] * (2 * s - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] = (raw[i + j] + x * y) % p
    # the modulus is monic: u^s = -(m_0 + ... + m_{s-1} u^{s-1})
    for top in range(2 * s - 2, s - 1, -1):
        c = raw[top]
        raw[top] = 0
        for j in range(s):
            raw[top - s + j] = (raw[top - s + j] - c * field.modulus[j]) % p
    return tuple(raw[:s])


def ref_pow(field, a, e):
    """a^e by repeated squaring on ref_mul; e < 0 through Fermat's inverse."""
    if e < 0:
        a = ref_pow(field, a, field.order - 2)
        e = -e
    result = field.one.coeffs
    for bit in bin(e)[2:]:
        result = ref_mul(field, result, result)
        if bit == "1":
            result = ref_mul(field, result, a)
    return result


# F_9 under two moduli (u is not primitive under X^2 + 1), then the default
# moduli of F_25 and F_49 (u is not primitive either), the F_27 preset and
# the defaults of F_125, F_343 and F_81; with the sha256 of the display text
# of every element, in elements() order, recorded before the tables existed
TABLE_FIELDS = [
    ((3, 2, (2, 2, 1)), "a833f39230e04a1d922099beedbbacbd09b34ad3ef1f0563c80d1f247dfa66fb"),
    ((3, 2, (1, 0, 1)), "38083083b260bdc291bfcaf0a10274a20f8cb4e181a8b080eef917c5fafa7c02"),
    ((5, 2, None), "33c94f7630e42f5f1b8134b326db67e2a5c28388031a78162769a93ebe9e88a3"),
    (None, "083657c8d89f0286f032c50e7132b3c95b31a450365a5884562f1a747b49389f"),
    ((7, 2, None), "5e2b3d8842c4f75e127e3c493d5cafb23df9647c26df2694e8ea91523ffdd7c8"),
    ((5, 3, None), "b6b82b03f8e08818b085011673d36c2ab59189b4b6b989914ca0ee4ec5d15af6"),
    ((7, 3, None), "ef4a949bf7790fc2091deca87a81f326fa5bd05b06f268ea075aeba71f7fb2e9"),
    ((3, 4, None), "2c4057b70b5a00f03afd0c7ebd765b296ade3c6901a1be1d02c075035bd9b3f5"),
]


def _table_field(spec):
    return f27_preset() if spec is None else make_field(*spec)


def _pairs(field, seed):
    elements = list(field.elements())
    if field.order**2 <= 10**5:
        return [(x, y) for x in elements for y in elements]
    rng = random.Random(seed)
    return [(rng.choice(elements), rng.choice(elements)) for _ in range(3000)]


@pytest.mark.parametrize("spec", [spec for spec, _ in TABLE_FIELDS])
def test_table_arithmetic_matches_coordinate_product(spec):
    field = _table_field(spec)
    assert field._log is not None and len(field._log) == field.order - 1
    for x, y in _pairs(field, field.order):
        assert (x * y).coeffs == ref_mul(field, x.coeffs, y.coeffs)
    p, q = field.p, field.order
    for x in field.elements():
        for e in (0, 1, 2, p, q - 1, q, -1, -5, 12345):
            if x.is_zero() and e < 0:
                continue
            assert (x**e).coeffs == ref_pow(field, x.coeffs, e), (x.coeffs, e)
        if not x.is_zero():
            assert x.inverse().coeffs == ref_pow(field, x.coeffs, q - 2)


@pytest.mark.parametrize("spec, digest", TABLE_FIELDS)
def test_display_text_is_unchanged(spec, digest):
    field = _table_field(spec)
    texts = [format_element(x) for x in field.elements()]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


def test_display_text_of_f9():
    primitive_u = make_field(3, 2, (2, 2, 1))
    assert [format_element(x) for x in primitive_u.elements()] == [
        "0", "u", "-u", "1", "u^2", "u^3", "-1", "-u^3", "-u^2",
    ]
    # u has order 4 under X^2 + 1, so four elements are not signed u-powers
    order_4_u = make_field(3, 2, (1, 0, 1))
    assert [format_element(x) for x in order_4_u.elements()] == [
        "0", "u", "-u", "1", "1,1", "1,2", "-1", "2,1", "2,2",
    ]


# F_9 with u primitive and with u of order 4, F_3^10 and F_251^2 (neither u
# primitive; the first primitive elements() reaches is the 35th and 257th)
@pytest.mark.parametrize("spec", [(3, 2, (2, 2, 1)), (3, 2, (1, 0, 1)), (3, 10, None), (251, 2, None)])
def test_power_tables_list_each_unit_once(spec):
    # a fresh descriptor, so the tables are built here and not read off the cache
    field = FieldDesc(*spec[:2], make_field(*spec).modulus)
    n, p = field.order - 1, field.p
    exp = field._exp
    assert len(exp) == 2 * n and exp[:n] == exp[n:]
    rows = np.array(exp[:n], dtype=np.int64)
    # row k + 1 is g times row k, cyclically, so g = exp[1] has order n
    g = mult_matrix(field, rows[1])
    assert (rows @ g.T % p == np.roll(rows, -1, axis=0)).all()
    assert exp[0] == field.one.coeffs
    assert len(set(exp[:n])) == n and not any(set(exp[:n]) & {field.zero.coeffs})
    assert field._log == {c: i for i, c in enumerate(exp[:n])}
    if spec[2] == (2, 2, 1):
        assert exp[1] == field.u.coeffs


@pytest.mark.parametrize("p, s", [(5, 1), (3, 2), (257, 2)])
def test_zero_powers(p, s):
    field = make_field(p, s)
    assert field.zero**0 == field.one
    assert field.zero**3 == field.zero
    with pytest.raises(ZeroDivisionError):
        _ = field.zero ** -1
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_field_above_the_table_bound_uses_the_coordinate_product():
    # 257^2 = 66049 > 2^16
    field = make_field(257, 2)
    assert field._log is None and field._log_table is None
    rng = random.Random(257)
    for _ in range(300):
        a = tuple(rng.randrange(257) for _ in range(2))
        b = tuple(rng.randrange(257) for _ in range(2))
        x, y = field.el(a), field.el(b)
        assert (x * y).coeffs == ref_mul(field, a, b)
        for e in (0, 1, 2, 257, 12345, -1, -5):
            if any(a) or e >= 0:
                assert (x**e).coeffs == ref_pow(field, a, e)
        if any(a):
            assert x * x.inverse() == field.one
