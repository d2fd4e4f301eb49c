"""Exact rational arithmetic shared by the other modules.

Everything here is characteristic-zero bookkeeping: trial division for
primes, the small families of rational constants attached to a level k,
and their reduction into a prime field.  All values are exact
(`fractions.Fraction`); nothing is floated.  Callers check that p is an
odd prime before they reduce into F_p.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    """Deterministic primality test for small moduli, by trial division."""
    return n >= 2 and prime_divisors(n) == [n]


def prime_divisors(n: int) -> list[int]:
    """The distinct prime divisors of a positive integer, ascending.

    Trial division by 2 and then by odd candidates only, up to the square
    root of what is left.
    """
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


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
    """Image of an exact rational in F_p; p must not divide its denominator."""
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise ValueError(f"{x} has a pole at {p} and cannot be reduced")
        return x.numerator * pow(x.denominator, -1, p) % p
    return int(x) % p
