"""Exact rational arithmetic shared by the other modules.

Everything here is characteristic-zero bookkeeping: p-adic valuations of
integers and fractions, and the small families of rational constants that
later get reduced into a prime field.  All values are exact (`fractions.Fraction`); nothing is floated.
"""

from __future__ import annotations

import math
from fractions import Fraction

ExactRational = Fraction

# Marker for the valuation of zero.  math.inf compares correctly against
# every finite valuation, which is all callers need.
PADIC_INFINITY = math.inf


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test for small moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct prime divisors of a positive integer, ascending."""
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


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def vp(x: int | Fraction, p: int):
    """p-adic valuation of an integer or fraction; zero maps to PADIC_INFINITY."""
    _check_prime(p)
    if x == 0:
        return PADIC_INFINITY
    if isinstance(x, Fraction):
        return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
    return _int_valuation(int(x), p)


def _int_valuation(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def v_sequence_rational(k: int) -> list[Fraction]:
    """The 2k nonzero rationals v_1..v_2k attached to level k.

    v_1 = 2k - 1 and consecutive terms satisfy
        v_{i+1} * v_i = (2k - 2i - 1)(2k - 2i + 1) / (i (2k - i)).
    The returned list is indexed from zero, so entry i-1 holds v_i.
    """
    if k < 1:
        raise ValueError("level k must be positive")
    v = [Fraction(2 * k - 1)]
    for i in range(1, 2 * k):
        step = Fraction((2 * k - 2 * i - 1) * (2 * k - 2 * i + 1), i * (2 * k - i))
        v.append(step / v[-1])
    return v


def theta_omega_rational(k: int) -> tuple[Fraction, Fraction]:
    """The companion constants of level k.

    theta = (-1)^k * binom(2k, k) / 4^k and omega = -(2k * theta)^(-2).
    """
    if k < 1:
        raise ValueError("level k must be positive")
    theta = Fraction((-1) ** k * math.comb(2 * k, k), 4**k)
    omega = -1 / (2 * k * theta) ** 2
    return theta, omega


def q_coefficients_rational(k: int) -> list[Fraction]:
    """Odd-degree coefficients of the degree-(2k-1) antiderivative of (x^2-1)^(k-1).

    Entry i is the coefficient of T^(2i+1), namely
    (-1)^(k-1-i) * binom(k-1, i) / (2i + 1), for i = 0..k-1.
    """
    if k < 1:
        raise ValueError("level k must be positive")
    return [
        Fraction((-1) ** (k - 1 - i) * math.comb(k - 1, i), 2 * i + 1)
        for i in range(k)
    ]


def w_sequence_int(k: int) -> list[int]:
    """Alternating binomial row w_i = (-1)^i * binom(2k-1, i) for i = 0..2k-1."""
    if k < 1:
        raise ValueError("level k must be positive")
    return [(-1) ** i * math.comb(2 * k - 1, i) for i in range(2 * k)]


def reduce_mod(x: int | Fraction, p: int) -> int:
    """Image of an exact rational in Z/p; requires nonnegative p-adic valuation."""
    _check_prime(p)
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise ValueError(f"{x} has a pole at {p} and cannot be reduced")
        return x.numerator * pow(x.denominator, -1, p) % p
    return int(x) % p
