import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hyperquad import _gfkernel
from hyperquad.ffield import f27_preset, format_element, make_field
from hyperquad.fpoly import FactorMultiset, Poly, factor, format_poly, irreducibles

F3 = make_field(3, 1)
F5 = make_field(5, 1)


def P(field, *coeffs):
    return Poly(field, coeffs)


def _expand(res: FactorMultiset) -> Poly:
    """The unit times each irreducible to its multiplicity."""
    acc = Poly.constant(res.unit.field, res.unit)
    for f, m in res.factors:
        acc = acc * f**m
    return acc


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
    assert a - b == a + (-b)
    assert (a - a).is_zero()
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree() < b.degree()


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
    assert _expand(res) == f
    for g, m in res.factors:
        assert m >= 1
        assert g.leading() == F3.one
        assert _gfkernel.is_irreducible(g.block(), g.field)


@settings(max_examples=30)
@given(gf_poly(F5, 9))
def test_factor_over_f5(f):
    if f.is_zero():
        return
    res = factor(f)
    assert _expand(res) == f


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
    # the Rabin test over all p^d monic candidates against the Moebius count
    field = make_field(p, 1)
    found = sum(
        _gfkernel.is_irreducible(Poly(field, [*low, 1]).block(), field)
        for low in itertools.product(range(p), repeat=d)
    )
    assert found == irreducibles(p, d)


def test_format_examples():
    assert format_poly(P(F3, 2, 0, 1)) == "T^2 - 1"
    assert format_poly(P(F3, 0, 1)) == "T"
    assert format_poly(Poly.zero(F3)) == "0"
    f27 = f27_preset()
    assert format_poly(Poly(f27, [f27.zero, f27.u ** 7])) == "u^7*T"
    big = make_field(5, 7)  # past the log-table bound: coordinate text
    assert format_poly(Poly(big, [-big.u, big.zero, big.one])) == (
        "(1,0,0,0,0,0,0)*T^2 + (0,4,0,0,0,0,0)"
    )


def test_parse_var_x():
    # the variable name is the caller's; parse_poly, which read it back, is gone
    assert format_poly(P(F3, 2, 0, 1), var="x") == "x^2 - 1"
    assert format_poly(P(F3, 1, 2), var="x") == "-x + 1"


def _format_by_coefficients(f, var="T"):
    """The former format_poly, reading every coefficient: the reference."""
    terms = []
    for e in range(f.degree(), -1, -1):
        c = f.coefficient(e)
        if c.is_zero():
            continue
        text = format_element(c)
        text = f"({text})" if "," in text else text
        sign, body = ("-", text[1:]) if text.startswith("-") else ("+", text)
        mono = "" if e == 0 else var if e == 1 else f"{var}^{e}"
        term = body if not mono else mono if body == "1" else f"{body}*{mono}"
        terms.append((sign, term))
    if not terms:
        return "0"
    head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return head + "".join(f" {sign} {term}" for sign, term in terms[1:])


@st.composite
def sparse_poly(draw, fields):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(min_value=0, max_value=40))
    pool = [field.zero] * 3 + [field.one, -field.one, field.u, -(field.u ** 5)]
    coeffs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return Poly(field, coeffs)


@settings(max_examples=150)
@given(sparse_poly([F3, F5, make_field(3, 2), f27_preset(), make_field(5, 7)]))
def test_format_matches_coefficient_walk(f):
    assert format_poly(f) == _format_by_coefficients(f)
    assert format_poly(f, var="x") == _format_by_coefficients(f, var="x")


def test_factor_multiset_sorted():
    f = P(F3, 0, 1) * P(F3, 1, 1) ** 2 * P(F3, 1, 0, 1)
    res = factor(f)
    degs = [g.degree() for g, _ in res.factors]
    assert degs == sorted(degs)
    assert isinstance(res, FactorMultiset)


@pytest.mark.parametrize("field", [F3, make_field(3, 2)], ids=["F3", "F9"])
def test_monomial_matches_list_built_form(field):
    """T^e scaled by c equals the former [0]*e + [c] build for every e."""
    scalars = [None, field.zero, field.one, field.from_int(-1), field.u]
    for e in (-2, 0, 1, 5, 300):
        for c in scalars:
            want = Poly(field, [field.zero] * e + [field.one if c is None else c])
            got = Poly.monomial(field, e) if c is None else Poly.monomial(field, e, c)
            assert got == want, (e, c)
            assert got.degree() == want.degree()
