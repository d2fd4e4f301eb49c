import random

import pytest

from hyperquad import ffield
from hyperquad.ffield import (
    FieldConstructionError,
    FieldParseError,
    UnsupportedCharacteristicError,
    degree_over_prime,
    f27_preset,
    format_element,
    frobenius,
    frobenius_inverse,
    make_field,
    parse_element,
)

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
