from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperquad.ffield import f27_preset, make_field
from hyperquad.fpoly import (
    QQ,
    FactorMultiset,
    Poly,
    RationalFunction,
    factor,
    format_poly,
    irreducibles,
    is_irreducible,
    parse_poly,
    polynomial_part,
)

F3 = make_field(3, 1)
F5 = make_field(5, 1)


def P(field, *coeffs):
    return Poly(field, coeffs)


def test_divmod_examples():
    # T^5 = (T^2 - 1)(T^3 + T) + T over F_5
    q, r = divmod(P(F5, 0, 0, 0, 0, 0, 1), P(F5, -1, 0, 1))
    assert q == P(F5, 0, 1, 0, 1)
    assert r == P(F5, 0, 1)
    p = P(F5, 2, 3, 1)
    q, r = divmod(p, p)
    assert q == Poly.one(F5)
    assert r.is_zero()
    q, r = divmod(P(F3, -1, 0, 1), P(F3, 0, 1))
    assert q == P(F3, 0, 1)
    assert r == P(F3, -1)


def test_divmod_rational_coefficients():
    a = Poly(QQ, [Fraction(1), Fraction(0), Fraction(1, 2)])
    b = Poly(QQ, [Fraction(1), Fraction(1)])
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree() < b.degree()


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P(F3, 1), Poly.zero(F3))


@st.composite
def gf_poly(draw, field, max_deg=8):
    n = draw(st.integers(min_value=0, max_value=max_deg + 1))
    coeffs = draw(st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n))
    return Poly(field, [field.from_int(c) for c in coeffs])


@given(gf_poly(F5), gf_poly(F5))
def test_divmod_round_trip(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree() < b.degree()


def test_polynomial_part_examples():
    f = RationalFunction(P(F5, 0, 0, 0, 0, 0, 1), P(F5, -1, 0, 1))
    assert polynomial_part(f) == P(F5, 0, 1, 0, 1)
    g = RationalFunction(P(F5, 2, 1), Poly.one(F5))
    assert polynomial_part(g) == P(F5, 2, 1)
    h = RationalFunction(P(F5, 0, 1), P(F5, -1, 0, 1))
    assert polynomial_part(h).is_zero()


def test_rational_function_normalization():
    # (2T^2 + 2T) / (2T) reduces to (T + 1) / 1
    f = RationalFunction(P(F3, 0, 2, 2), P(F3, 0, 2))
    assert f.num == P(F3, 1, 1)
    assert f.den == Poly.one(F3)
    assert f.den.leading() == F3.one


def test_factor_examples():
    r = factor(P(F3, 1, 0, 1))
    assert r.unit == F3.one
    assert r.factors == ((P(F3, 1, 0, 1), 1),)
    r = factor(P(F3, 1, 0, 0, 1))
    assert r.factors == ((P(F3, 1, 1), 3),)
    r = factor(P(F3, 0, 2))
    assert r.unit == F3.from_int(2)
    assert r.factors == ((P(F3, 0, 1), 1),)


def test_factor_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        factor(Poly.zero(F3))


def test_factor_extension_field_rejected():
    f27 = f27_preset()
    with pytest.raises(ValueError):
        factor(Poly(f27, [f27.one, f27.u]))


@settings(max_examples=60)
@given(gf_poly(F3, 10), gf_poly(F3, 5))
def test_factor_remultiplies(a, b):
    f = a * b
    if f.is_zero():
        return
    res = factor(f)
    assert res.expand() == f
    for g, m in res.factors:
        assert m >= 1
        assert g.leading() == F3.one
        assert is_irreducible(g)


@settings(max_examples=30)
@given(gf_poly(F5, 9))
def test_factor_over_f5(f):
    if f.is_zero():
        return
    res = factor(f)
    assert res.expand() == f


def test_factor_deterministic():
    f = P(F3, 1, 2, 0, 1, 1, 0, 2, 1)
    assert factor(f) == factor(f)


def test_irreducible_counts():
    assert irreducibles(3, 1) == 3
    assert irreducibles(3, 2) == 3
    assert irreducibles(3, 4) == 18
    assert irreducibles(5, 1) == 5
    assert irreducibles(2, 3) == 2  # necklace formula sanity: (8-2)/3


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_count_matches_enumeration(p, d):
    listed = irreducibles(p, d, mode="enumerate")
    assert len(listed) == irreducibles(p, d, mode="count")
    for f in listed:
        assert f.leading().coeffs == (1,)
        assert is_irreducible(f)


def test_enumeration_size_guard():
    with pytest.raises(ValueError):
        irreducibles(3, 40, mode="enumerate")


def test_format_parse_round_trip_gf():
    f27 = f27_preset()
    cases = [
        P(F3, 1, 0, 2),
        P(F3, -1),
        Poly.zero(F3),
        Poly(f27, [f27.u ** 7, f27.one]),
        Poly(f27, [f27.from_int(2) + f27.u ** 2, f27.u]),
    ]
    for f in cases:
        assert parse_poly(f.field, format_poly(f)) == f


def test_format_examples():
    assert format_poly(P(F3, 2, 0, 1)) == "T^2 - 1"
    assert format_poly(P(F3, 0, 1)) == "T"
    assert format_poly(Poly.zero(F3)) == "0"
    f27 = f27_preset()
    assert format_poly(Poly(f27, [f27.zero, f27.u ** 7])) == "u^7*T"


def test_format_parse_round_trip_qq():
    f = Poly(QQ, [Fraction(3, 4), Fraction(-1, 3), Fraction(2)])
    assert parse_poly(QQ, format_poly(f)) == f
    assert parse_poly(QQ, "3*T") == Poly(QQ, [0, 3])
    assert parse_poly(QQ, "-T^2 + 1/2") == Poly(QQ, [Fraction(1, 2), 0, -1])


def test_parse_var_x():
    assert parse_poly(F3, "x^2 + 2", var="x") == P(F3, 2, 0, 1)
    assert format_poly(P(F3, 2, 0, 1), var="x") == "x^2 - 1"


def test_factor_multiset_sorted():
    f = P(F3, 0, 1) * P(F3, 1, 1) ** 2 * P(F3, 1, 0, 1)
    res = factor(f)
    degs = [g.degree() for g, _ in res.factors]
    assert degs == sorted(degs)
    assert isinstance(res, FactorMultiset)


@pytest.mark.parametrize("field", [F3, make_field(3, 2), QQ], ids=["F3", "F9", "QQ"])
def test_monomial_matches_list_built_form(field):
    """T^e scaled by c equals the former [0]*e + [c] build for every e."""
    extra = Fraction(-3, 7) if field is QQ else field.u
    scalars = [None, field.zero, field.one, field.from_int(-1), extra]
    for e in (-2, 0, 1, 5, 300):
        for c in scalars:
            want = Poly(field, [field.zero] * e + [field.one if c is None else c])
            got = Poly.monomial(field, e) if c is None else Poly.monomial(field, e, c)
            assert got == want, (e, c)
            assert got.degree() == want.degree()
