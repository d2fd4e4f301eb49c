"""Seed data for hyperquadratic expansions.

For an odd prime power r = p^t only certain levels k admit the
construction: those k for which the companion constants stay p-integral.
They form t arithmetic progressions, and this module tests a level
against them without listing the set.  It builds the seed polynomial
pair (P, Q) together with its scalar data (v, theta, omega, w, b) over
the prime field, and exposes the two one-parameter function families g
and h used by the predicted-expansion machinery, with their internal
identities checkable as exact polynomial statements.

Both families are indexed by 0 <= i <= 2k, and each is one formula.  Pad
the row w with w_(-1) = w_(2k) = 0 and let l_j = theta + w_j X; then
g_i = g_i(0) l_i / l_(i-1) and h_i = theta (-1)^i binom(2k, i) X / (l_i l_(i-1)).
The ends fit because w_0 = 1 and w_(2k-1) = -1: Pascal's rule
w_i - w_(i-1) = (-1)^i binom(2k, i) holds on the padded row for all
0 <= i <= 2k, and l_(-1) = l_(2k) = theta, so g_0 = theta + X,
g_2k = 1/(theta - X), h_0 = X/(theta + X) and h_2k = X/(theta - X).

The constants g_i(0) and (-1)^i binom(2k, i) are reduced into F_p once,
when the pair is built.  constants_in embeds them, with theta, omega, v
and the padded w, into a working field F_q once per (pair, field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import contfrac
from .exactq import (
    is_prime,
    q_coefficients_rational,
    reduce_mod,
    theta_omega_rational,
    v_sequence_rational,
    w_sequence_int,
)
from .ffield import FieldDesc, FieldElement, embed, make_field
from .fpoly import Poly

__all__ = [
    "AdmissibilityError",
    "InternalConsistencyError",
    "UndefinedValueError",
    "SeedPair",
    "admissible_set",
    "build_seedpair",
    "is_admissible",
    "constants_in",
    "eval_g",
    "eval_h",
    "validate_identities",
]


class AdmissibilityError(ValueError):
    """The requested level is outside the admissible set for p^t."""


class InternalConsistencyError(RuntimeError):
    """A construction invariant that should hold automatically failed.

    Reaching this means the scalar data contradicts itself, which the
    integrality analysis rules out for admissible levels; it is kept as
    a hard error rather than an assert so it survives python -O.
    """


class UndefinedValueError(ArithmeticError):
    """A family function was evaluated where its denominator vanishes."""


def _check_pt(p: int, t: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if t < 1:
        raise ValueError(f"t must be a positive integer, got {t}")


def _progressions(p: int, t: int) -> list[range]:
    """The admissible levels for r = p^t as t ascending, disjoint ranges.

    A level is admissible when it can be written m p^j + (p^j - 1)/2
    with 1 <= m <= (p-1)/2 and 0 <= j <= t-1.  For fixed j these run from
    (p^j - 1)/2 + p^j to (p^(j+1) - 1)/2 in steps of p^j, and the next
    progression starts p^(j+1) above that end, so joining them in order
    lists every level once, ascending.
    """
    _check_pt(p, t)
    return [
        range((p**j - 1) // 2 + p**j, (p ** (j + 1) - 1) // 2 + 1, p**j)
        for j in range(t)
    ]


def admissible_set(p: int, t: int) -> list[int]:
    """All admissible levels below p^t, sorted ascending.

    The set is contained in {1, ..., (p^t - 1)/2} and always contains the
    top value (p^t - 1)/2; for t = 1 it is the whole range.
    """
    return [k for levels in _progressions(p, t) for k in levels]


def is_admissible(p: int, t: int, k: int) -> bool:
    """Whether k is an admissible level for r = p^t, by t range tests."""
    return any(k in levels for levels in _progressions(p, t))


@dataclass(frozen=True)
class SeedPair:
    """Scalar and polynomial seed data for one (p, t, k), over F_p.

    v has length 2k (entry i-1 holds v_i), w has length 2k (indices 0
    through 2k-1), b has length k, and Pk, Qk live in F_p[T] with
    deg Pk = 2k, deg Qk = 2k - 1.  For 0 <= i <= 2k, g_i = g_i(0) l_i / l_(i-1)
    and h_i = theta h_scalars[i] X / (l_i l_(i-1)), where l_j = theta + w_j X
    on w padded with zeros.  The ends fit because Pascal's rule
    w_i - w_(i-1) = h_scalars[i] = (-1)^i binom(2k, i) holds there too
    (module docstring).  g_at_zero[i] holds g_i(0): theta, then
    2k theta v_i i/(2k-2i+1), then theta^-1; theta is a unit and
    l_i / l_(i-1) is 1 at X = 0, so no member has a pole at 0.
    """

    p: int
    t: int
    k: int
    field: FieldDesc
    v: tuple[FieldElement, ...]
    theta: FieldElement
    omega: FieldElement
    w: tuple[FieldElement, ...]
    b: tuple[FieldElement, ...]
    g_at_zero: tuple[FieldElement, ...]
    h_scalars: tuple[FieldElement, ...]
    Pk: Poly
    Qk: Poly

    def __str__(self):
        return f"SeedPair(p={self.p}, t={self.t}, k={self.k})"


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise InternalConsistencyError(what)


@lru_cache(maxsize=None)
def build_seedpair(p: int, t: int, k: int) -> SeedPair:
    """Construct the seed data for level k over F_p, r = p^t.

    Every scalar is computed first in exact rationals, checked for the
    integrality the theory promises (unit v_i, unit central binomials,
    p-integral b_i), and only then reduced mod p.  The reduced data is
    cross-checked against its defining relations, including the full
    continued fraction expansion of Pk/Qk.  Results are cached: the
    pair is immutable and downstream code rebuilds it freely.
    """
    if not is_admissible(p, t, k):
        raise AdmissibilityError(
            f"k={k} is not admissible for p={p}, t={t}: the admissible levels "
            "are m p^j + (p^j - 1)/2 with 1 <= m <= (p-1)/2 and 0 <= j < t"
        )

    vq = v_sequence_rational(k)
    thetaq, omegaq = theta_omega_rational(k)
    bq = q_coefficients_rational(k)
    wints = w_sequence_int(k)

    # Integrality guaranteed by the admissibility of k; anything else
    # would make the reduction below meaningless.  A fraction in lowest
    # terms is a p-adic unit when p divides neither numerator nor
    # denominator, and p-integral when p does not divide the denominator.
    for i, x in enumerate(vq, start=1):
        _require(
            x.numerator % p != 0 and x.denominator % p != 0,
            f"v_{i} = {x} is not a p-adic unit",
        )
    for i in range(2 * k + 1):
        _require(math.comb(2 * k, i) % p != 0, f"binom(2k,{i}) not a unit")
    for i, x in enumerate(bq):
        _require(x.denominator % p != 0, f"b_{i} = {x} has a pole at {p}")

    field = make_field(p, 1)
    emb = lambda x: field.from_int(reduce_mod(x, p))
    v = tuple(emb(x) for x in vq)
    theta = emb(thetaq)
    omega = emb(omegaq)
    w = tuple(emb(x) for x in wints)
    b = tuple(emb(x) for x in bq)
    # i/(2k-2i+1) is reduced as an exact fraction first: numerator and
    # denominator share their full power of p, so the quotient is a unit
    middle = (
        emb(2 * k * thetaq * vq[i - 1] * Fraction(i, 2 * k - 2 * i + 1))
        for i in range(1, 2 * k)
    )
    g_at_zero = (theta, *middle, theta.inverse())
    h_scalars = tuple(
        field.from_int((-1) ** i * math.comb(2 * k, i)) for i in range(2 * k + 1)
    )

    Pk = Poly(field, [-1, 0, 1]) ** k
    coeffs = [field.zero] * (2 * k)
    for i, c in enumerate(b):
        coeffs[2 * i + 1] = c
    Qk = Poly(field, coeffs)

    two_k_theta = field.from_int(2 * k) * theta
    _require(v[0] == field.from_int(2 * k - 1), "v_1 != 2k - 1")
    for i in range(1, 2 * k):
        step = Fraction((2 * k - 2 * i - 1) * (2 * k - 2 * i + 1), i * (2 * k - i))
        _require(v[i] * v[i - 1] == emb(step), f"v step relation fails at i={i}")
    _require(omega == -(two_k_theta ** (-2)), "omega != -(2k theta)^-2")
    for i in range(1, 2 * k + 1):
        expected = v[i - 1] * (omega if i % 2 == 1 else omega.inverse())
        _require(v[2 * k - i] == expected, f"v symmetry fails at i={i}")
    # Qk(1) is the sum of Qk's coefficients
    _require(
        field.from_int(int(Qk.block().sum())) == -two_k_theta.inverse(),
        "Qk(1) != -(2k theta)^-1",
    )
    # Pascal's rule on the row padded with w_(-1) = w_(2k) = 0, which the
    # one formula of each family needs at its ends; each difference is a
    # unit, as the binomials were checked to be
    padded = (field.zero, *w, field.zero)
    for i, d in enumerate(h_scalars):
        _require(padded[i + 1] - padded[i] == d, f"w difference fails at i={i}")
    rec = contfrac.expand_rational(Pk, Qk)
    want = [Poly.monomial(field, 1, c) for c in v]
    _require(rec.quotients == want, "Pk/Qk does not expand to [v_1 T, ..., v_2k T]")

    return SeedPair(
        p=p, t=t, k=k, field=field,
        v=v, theta=theta, omega=omega, w=w, b=b,
        g_at_zero=g_at_zero, h_scalars=h_scalars, Pk=Pk, Qk=Qk,
    )


# -- the families g and h ---------------------------------------------------


@dataclass(frozen=True)
class FieldConstants:
    """A pair's family constants in one field F_q.

    w[j + 1] = w_j on the padded row, -1 <= j <= 2k; theta_h[i] = theta h_scalars[i].
    """

    theta: FieldElement
    omega: FieldElement
    v: tuple[FieldElement, ...]
    w: tuple[FieldElement, ...]
    g_at_zero: tuple[FieldElement, ...]
    theta_h: tuple[FieldElement, ...]


# constants_in's views by (p, t, k, field), which hashes faster than a SeedPair
_views: dict[tuple, FieldConstants] = {}


def constants_in(pair: SeedPair, field: FieldDesc) -> FieldConstants:
    """The pair's family constants in field, embedded once per (pair, field)."""
    key = (pair.p, pair.t, pair.k, field)
    view = _views.get(key)
    if view is None:
        emb = lambda cs: tuple(embed(field, c) for c in cs)
        view = _views[key] = FieldConstants(
            theta=embed(field, pair.theta),
            omega=embed(field, pair.omega),
            v=emb(pair.v),
            w=emb((pair.field.zero, *pair.w, pair.field.zero)),
            g_at_zero=emb(pair.g_at_zero),
            theta_h=emb(pair.theta * c for c in pair.h_scalars),
        )
    return view


def _check_index(pair: SeedPair, i: int) -> None:
    if not 0 <= i <= 2 * pair.k:
        raise ValueError(f"family index must lie in 0..{2 * pair.k}, got {i}")


def eval_g(pair: SeedPair, i: int, x: FieldElement) -> FieldElement:
    """Value of g_i = g_i(0) l_i / l_(i-1) at a field element x.

    Raises UndefinedValueError where the denominator vanishes; the
    caller decides what a pole means (for the predicted sequences it
    means the prediction breaks down, not a programming error).
    """
    _check_index(pair, i)
    c = constants_in(pair, x.field)
    den = c.theta + c.w[i] * x
    if den.is_zero():
        raise UndefinedValueError(f"g_{i} has a pole at {x}")
    return c.g_at_zero[i] * (c.theta + c.w[i + 1] * x) / den


def eval_h(pair: SeedPair, i: int, x: FieldElement) -> FieldElement:
    """Value of h_i at x; same conventions as eval_g.  h_i(0) = 0."""
    _check_index(pair, i)
    c = constants_in(pair, x.field)
    den = (c.theta + c.w[i + 1] * x) * (c.theta + c.w[i] * x)
    if den.is_zero():
        raise UndefinedValueError(f"h_{i} has a pole at {x}")
    return c.theta_h[i] * x / den


# -- identity validation ----------------------------------------------------


def _forms(pair: SeedPair, i: int) -> tuple[FieldConstants, Poly, Poly]:
    """The constants over F_p, with l_i and l_(i-1) as polynomials."""
    _check_index(pair, i)
    c = constants_in(pair, pair.field)
    l_i, l_prev = (Poly(pair.field, [c.theta, c.w[j]]) for j in (i + 1, i))
    return c, l_i, l_prev


def g_fraction(pair: SeedPair, i: int) -> tuple[Poly, Poly]:
    """g_i as a (numerator, denominator) pair of polynomials over F_p."""
    c, l_i, l_prev = _forms(pair, i)
    return l_i.scaled(c.g_at_zero[i]), l_prev


def h_fraction(pair: SeedPair, i: int) -> tuple[Poly, Poly]:
    """h_i as a (numerator, denominator) pair of polynomials over F_p."""
    c, l_i, l_prev = _forms(pair, i)
    return Poly.monomial(pair.field, 1, c.theta_h[i]), l_i * l_prev


def validate_identities(pair: SeedPair) -> dict[str, bool]:
    """Check the internal identities of the g/h families over F_p.

    Each check clears denominators and compares polynomials exactly, so
    a pass is a proof for this (p, k), not a sampled test.  Returns one
    boolean per named identity; construction bugs show up here as False
    entries rather than exceptions.
    """
    field, k, p = pair.field, pair.k, pair.p
    X = Poly.monomial(field, 1)
    th = Poly.constant(field, pair.theta)
    two_k_theta = field.from_int(2 * k) * pair.theta
    g = [g_fraction(pair, i) for i in range(2 * k + 1)]
    h = [h_fraction(pair, i) for i in range(2 * k + 1)]
    report: dict[str, bool] = {}

    omega_pm = (pair.omega.inverse(), pair.omega)  # by the parity of i
    report["v_symmetry"] = all(
        pair.v[2 * k - i] == pair.v[i - 1] * omega_pm[i % 2] for i in range(1, 2 * k + 1)
    )

    ok = True
    for i in range(2 * k):
        gn, gd = g[i]
        gn1, gd1 = g[i + 1]
        rhs_num = gn.scaled(-two_k_theta * pair.v[i]) + gd.scaled(two_k_theta**2)
        ok = ok and gn1 * gn == gd1 * rhs_num
    report["g_recursion"] = ok

    ok = True
    for i in range(1, 2 * k):
        gn, gd = g[i]
        cq = Fraction(2 * k - i, 2 * k - 2 * i - 1) * v_sequence_rational(k)[i]
        c = field.from_int(reduce_mod(cq, p))
        lhs = gd.scaled(two_k_theta) * (th + X.scaled(pair.w[i]))
        rhs = (th + X.scaled(pair.w[i - 1])).scaled(c) * gn
        ok = ok and lhs == rhs
    report["g_reciprocal_form"] = ok

    ok = True
    for i in range(1, 2 * k - 1):
        lhs = (
            field.from_int(2 * k - i) * pair.w[i - 1]
            - field.from_int(2 * k - 2 * i - 1) * pair.w[i]
        )
        ok = ok and lhs == field.from_int(i + 1) * pair.w[i + 1]
    report["w_recurrence"] = ok

    # alternative closed form of the last g member, before simplification
    vlast = pair.v[2 * k - 1]
    c = field.from_int(reduce_mod(v_sequence_rational(k)[2 * k - 1] / (2 * k - 1), p))
    rhs_num = (
        (th - X).scaled(-vlast) + (th + X.scaled(field.from_int(2 * k - 1))).scaled(-c)
    ).scaled(two_k_theta)
    gn, gd = g[2 * k]
    report["g_final_form"] = gn * (th - X) == gd * rhs_num

    report["v_last_value"] = vlast == -(
        field.from_int(2 * k - 1) * (two_k_theta**2).inverse()
    )

    ok = True
    for i in range(1, 2 * k + 1):
        gn, gd = g[i]
        gpn, gpd = g[i - 1]
        hn, hd = h[i]
        hpn, hpd = h[i - 1]
        lhs = (gn * gpn).scaled(pair.omega) * hpd * hn
        ok = ok and lhs == gd * gpd * hpn * hd
    report["gh_product_ratio"] = ok

    (gn0, gd0), (hn0, hd0) = g[0], h[0]
    (gnl, gdl), (hnl, hdl) = g[2 * k], h[2 * k]
    report["gh_boundary"] = gn0 * hn0 == X * gd0 * hd0 and hnl * gdl == X * gnl * hdl

    return report
