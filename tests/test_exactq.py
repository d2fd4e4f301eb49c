import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hyperquad import exactq


def _smallest_prime_factors(n):
    """Sieve of Eratosthenes: entry m is the least prime dividing m, for 2 <= m < n."""
    spf = list(range(n))
    for d in range(2, math.isqrt(n - 1) + 1):
        if spf[d] == d:
            for m in range(d * d, n, d):
                if spf[m] == m:
                    spf[m] = d
    return spf


def test_primes_and_prime_divisors_match_a_sieve():
    n_max = 10**5
    spf = _smallest_prime_factors(n_max)
    assert [n for n in range(-2, n_max) if exactq.is_prime(n)] == [
        n for n in range(2, n_max) if spf[n] == n
    ]
    for n in range(1, n_max):
        want, m = [], n
        while m > 1:
            want.append(spf[m])
            while m % want[-1] == 0:
                m //= want[-1]
        assert exactq.prime_divisors(n) == want, n


@pytest.mark.parametrize(
    "n, divisors",
    # 2^25 - 1 = 31 * 601 * 1801; the primes just below and above 2^25
    [(2**25 - 1, [31, 601, 1801]), (33_554_393, [33_554_393]),
     (33_554_467, [33_554_467])],
)
def test_primes_near_the_field_bound(n, divisors):
    assert exactq.prime_divisors(n) == divisors
    assert math.prod(divisors) == n
    # plain trial division over every candidate, as an independent reference
    assert all(n % d for d in range(2, math.isqrt(n) + 1)) == (divisors == [n])
    assert exactq.is_prime(n) == (divisors == [n])


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
