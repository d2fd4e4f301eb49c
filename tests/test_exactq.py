import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hyperquad import exactq


def test_vp_basics():
    assert exactq.vp(9, 3) == 2
    assert exactq.vp(Fraction(3, 8), 2) == -3
    assert exactq.vp(Fraction(3, 8), 3) == 1
    assert exactq.vp(0, 5) == exactq.PADIC_INFINITY
    assert exactq.vp(-45, 3) == 2


def test_vp_rejects_composite_modulus():
    with pytest.raises(ValueError):
        exactq.vp(10, 6)


@given(
    st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
    st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_vp_is_additive(a, b, p):
    assert exactq.vp(a * b, p) == exactq.vp(a, p) + exactq.vp(b, p)
    assert exactq.vp(Fraction(a, b), p) == exactq.vp(a, p) - exactq.vp(b, p)


def test_v_sequence_first_levels():
    assert exactq.v_sequence_rational(1) == [Fraction(1), Fraction(-1)]
    assert exactq.v_sequence_rational(2) == [
        Fraction(3),
        Fraction(1, 3),
        Fraction(-3, 4),
        Fraction(-4, 3),
    ]


@given(st.integers(min_value=1, max_value=12))
def test_v_sequence_recursion_and_symmetry(k):
    v = exactq.v_sequence_rational(k)
    assert len(v) == 2 * k
    assert v[0] == 2 * k - 1
    theta, omega = exactq.theta_omega_rational(k)
    for i in range(1, 2 * k):
        lhs = v[i] * v[i - 1]
        rhs = Fraction((2 * k - 2 * i - 1) * (2 * k - 2 * i + 1), i * (2 * k - i))
        assert lhs == rhs
    # reflection pairs terms i and 2k+1-i through the square-root-free unit omega
    for i in range(1, 2 * k + 1):
        mirror = v[2 * k - i]
        expected = v[i - 1] * omega ** ((-1) ** (i + 1))
        assert mirror == expected


def test_theta_omega_small_levels():
    assert exactq.theta_omega_rational(1) == (Fraction(-1, 2), Fraction(-1))
    assert exactq.theta_omega_rational(2) == (Fraction(3, 8), Fraction(-4, 9))


def test_q_coefficients_small_levels():
    assert exactq.q_coefficients_rational(1) == [Fraction(1)]
    assert exactq.q_coefficients_rational(2) == [Fraction(-1), Fraction(1, 3)]
    # derivative of sum b_i T^(2i+1) is (T^2-1)^(k-1)
    for k in range(1, 8):
        b = exactq.q_coefficients_rational(k)
        deriv = {2 * i: b[i] * (2 * i + 1) for i in range(k)}
        for j in range(k):
            expected = Fraction((-1) ** (k - 1 - j) * math.comb(k - 1, j))
            assert deriv.get(2 * j, Fraction(0)) == expected


@given(st.integers(min_value=1, max_value=12))
def test_value_at_one_matches_reciprocal_unit(k):
    b = exactq.q_coefficients_rational(k)
    theta, _ = exactq.theta_omega_rational(k)
    assert sum(b) == Fraction(-1) / (2 * k * theta)


def test_w_sequence():
    assert exactq.w_sequence_int(1) == [1, -1]
    assert exactq.w_sequence_int(2) == [1, -3, 3, -1]
    # consecutive differences reproduce the alternating next binomial row
    for k in range(1, 8):
        w = exactq.w_sequence_int(k)
        for i in range(1, 2 * k):
            assert w[i] - w[i - 1] == (-1) ** i * math.comb(2 * k, i)


def test_reduce_mod():
    assert exactq.reduce_mod(Fraction(1, 2), 3) == 2
    assert exactq.reduce_mod(Fraction(-3, 4), 7) == 1
    assert exactq.reduce_mod(10, 7) == 3
    with pytest.raises(ValueError):
        exactq.reduce_mod(Fraction(1, 3), 3)
