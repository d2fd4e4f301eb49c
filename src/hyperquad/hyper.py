"""Power-of-Frobenius continued fractions from their defining relation.

An expansion target is specified by a field F_q, a Frobenius power
r = p^t, an admissible level k, a prescribed head of l linear partial
quotients lambda_i*T, and two unit scalars eps1, eps2.  There is then a
unique series alpha whose expansion starts with the prescribed head and
whose r-th power satisfies

    alpha^r = eps1 * Pk * alpha_{l+1} + eps2 * Qk,

where alpha_{l+1} is the complete quotient after the head.  This module
builds the degree r+1 equation lead*X^(r+1) + second*X^r + linear*X +
constant = 0 characterizing alpha, expands alpha by a homographic
transducer over its own quotients (no use of the closed-form quotient
formulas).

The equation is X = M(X^r) for M = (-second, -constant; lead, linear) =
H*K, where H = (x_l, x_{l-1}; y_l, y_{l-1}) holds the head continuants and
K = (1, -eps2 Qk; 0, eps1 Pk) maps alpha^r to alpha_{l+1}.  Frobenius
commutes with continued fractions, alpha^r = [a_1^r, a_2^r, ...], so the
homographic algorithm (Raney, Math. Ann. 206, 1973; Gosper, HAKMEM item
101) reads alpha's quotients off its own.  After m quotients emitted and
j absorbed, the state (P, Q; R, S) means alpha_(m+1) = (P z + Q)/(R z + S)
with z = alpha_(j+1)^r; it starts at M.  While R != 0, emit a = P div R
and set (P, Q; R, S) <- (R, S; P - aR, Q - aS).  At R = 0, absorb
b = a_(j+1)^r: (P, Q; R, S) <- (Pb + Q, P; Rb + S, R).

Every emitted quotient is exact.  The state is E_m^-1 H K A_j, with E_m
and A_j the continuant matrices of a_1..a_m and a_1^r..a_j^r, so P/R is
E_m^-1 H applied to w_j = ((x_j/y_j)^r - eps2 Qk)/(eps1 Pk).  For j >= 1,
|alpha_{l+1} - w_j| = |Pk|^-1 (|y_j| |y_{j+1}|)^-r is below |Pk y_j^r|^-2,
as deg Pk = 2k < r <= r deg a_(j+1), so by Legendre's criterion w_j is a
convergent of alpha_{l+1}, of some length tau_j; tau_0 = 0 (w_0 = oo), and
as the errors shrink, tau_j grows strictly.  So H(w_j) = x_L/y_L, L = l + tau_j,
and P/R = [a_(m+1), ..., a_L] has polynomial part a_(m+1) while m < L,
and is oo (R = 0) at m = L.  So emitting only while R != 0 keeps m <= L,
and at R = 0 the quotient to absorb is known, as m = L >= l + j > j.
expand_alpha raises ConvergenceError before an emitted or absorbed degree
would pass _DEGREE_CAP, and on a stall (R = 0 with all m quotients
absorbed), which this argument excludes for a valid spec's equation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import contfrac
from ._gfkernel import frobenius_spread
from .contfrac import ExpansionRecord
from .ffield import FieldDesc, FieldElement
from .fpoly import Poly, format_poly
from .seedpair import build_seedpair, is_admissible

__all__ = [
    "TypeSpec",
    "AlgebraicEquation",
    "ConvergenceError",
    "build_equation",
    "expand_alpha",
]

# hard cap on polynomial degrees: perfect's tower levels and the quotients
# expand_alpha emits or absorbs
_DEGREE_CAP = 1 << 20


class ConvergenceError(RuntimeError):
    """expand_alpha cannot go on: a quotient's degree would pass _DEGREE_CAP,
    or the transducer stalled at R = 0 with nothing left to absorb."""


@dataclass(frozen=True)
class TypeSpec:
    """A full expansion target (q, r, k, head, eps pair)."""

    field: FieldDesc
    t: int
    k: int
    lambdas: tuple[FieldElement, ...]
    eps1: FieldElement
    eps2: FieldElement

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        p = self.field.p
        if not is_admissible(p, self.t, self.k):
            raise ValueError(
                f"k={self.k} is not an admissible level for r={p}^{self.t}"
            )
        if not self.lambdas:
            raise ValueError("the quotient head must contain at least one scalar")
        for x in (*self.lambdas, self.eps1, self.eps2):
            if not isinstance(x, FieldElement) or x.field is not self.field:
                raise ValueError("head and eps scalars must belong to the spec field")
            if x.is_zero():
                raise ValueError("head and eps scalars must be nonzero")

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def r(self) -> int:
        return self.p**self.t

    @property
    def l(self) -> int:
        return len(self.lambdas)

    def describe(self) -> str:
        lam = ", ".join(str(x) for x in self.lambdas)
        return (
            f"q={self.field.order}, r={self.r}, k={self.k}, "
            f"head=[{lam}] * T, eps1={self.eps1}, eps2={self.eps2}"
        )


@dataclass(frozen=True)
class AlgebraicEquation:
    """Coefficients of X^(r+1), X^r, X and 1, as polynomials in T."""

    field: FieldDesc
    r: int
    lead: Poly
    second: Poly
    linear: Poly
    constant: Poly

    def __str__(self):
        parts = []
        for poly, power in (
            (self.lead, self.r + 1),
            (self.second, self.r),
            (self.linear, 1),
            (self.constant, 0),
        ):
            if poly.is_zero():
                continue
            text = format_poly(poly)
            if power == 0:
                parts.append(f"({text})")
            else:
                parts.append(f"({text})*X^{power}")
        return " + ".join(parts) + " = 0"


def _head_continuants(spec: TypeSpec) -> tuple[list[Poly], list[Poly]]:
    quotients = [Poly.monomial(spec.field, 1, lam) for lam in spec.lambdas]
    rec = contfrac.predicted_record(spec.field, quotients)
    return rec.numerators, rec.denominators


def build_equation(spec: TypeSpec) -> AlgebraicEquation:
    """The degree r+1 equation whose unique large root is alpha, with its
    coefficients in literal (unscaled) form."""
    sp = build_seedpair(spec.p, spec.t, spec.k)
    xs, ys = _head_continuants(spec)
    l = spec.l
    e1P = sp.Pk.scaled_into(spec.eps1)
    e2Q = sp.Qk.scaled_into(spec.eps2)
    return AlgebraicEquation(
        field=spec.field,
        r=spec.r,
        lead=ys[l],
        second=-xs[l],
        linear=e1P * ys[l - 1] - e2Q * ys[l],
        constant=-(e1P * xs[l - 1]) + e2Q * xs[l],
    )


def expand_alpha(spec: TypeSpec, n_max: int) -> ExpansionRecord:
    """First n_max partial quotients of alpha, by the transducer and argument
    of the module docstring; every one is exact, so the record is complete."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    field, r = spec.field, spec.r
    eq = build_equation(spec)
    P, Q, R, S = -eq.second, -eq.constant, eq.lead, eq.linear
    quotients: list[Poly] = []
    j = 0  # quotients absorbed
    while len(quotients) < n_max:
        if not R.is_zero():
            d = P.degree() - R.degree()
            if d > _DEGREE_CAP:
                raise ConvergenceError(
                    f"a_{len(quotients) + 1} of degree {d} is past _DEGREE_CAP"
                )
            a, rem = divmod(P, R)
            quotients.append(a)
            P, Q, R, S = R, S, rem, Q - a * S
        elif j < len(quotients):
            d = r * quotients[j].degree()
            if d > _DEGREE_CAP:
                raise ConvergenceError(
                    f"absorbing a_{j + 1}^r of degree {d}, past _DEGREE_CAP"
                )
            b = Poly.from_block(field, frobenius_spread(quotients[j].block(), spec.t, field))
            P, Q, R, S = P * b + Q, P, R * b + S, R
            j += 1
        else:
            raise ConvergenceError(f"stalled at R = 0 with all {j} quotients absorbed")
    return ExpansionRecord(
        field=field, quotients=quotients, provenance="direct", status="complete"
    )
