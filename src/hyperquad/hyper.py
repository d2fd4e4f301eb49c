"""Power-of-Frobenius continued fractions from their defining relation.

An expansion target is specified by a field F_q, a Frobenius power
r = p^t, an admissible level k, a prescribed head of l linear partial
quotients lambda_i*T, and two unit scalars eps1, eps2.  There is then a
unique series alpha whose expansion starts with the prescribed head and
whose r-th power satisfies

    alpha^r = eps1 * Pk * alpha_{l+1} + eps2 * Qk,

where alpha_{l+1} is the complete quotient after the head.  This module
builds the degree r+1 equation lead*X^(r+1) + second*X^r + linear*X +
constant = 0 characterizing alpha, expands alpha by ultrametric
fixed-point iteration X -> -(second*X^r + constant)/(lead*X^r + linear)
(no use of the closed-form quotient formulas), and checks candidate roots.
That map is exactly the relation's: with the head continuants x_i/y_i,
[head, z] = (x_l z + x_{l-1})/(y_l z + y_{l-1}) at z = (X^r - eps2 Qk)/
(eps1 Pk), numerator and denominator times eps1 Pk, has the coefficients
build_equation writes.  The start lambda_1*T at floor -1 is exact too:
alpha = lambda_1 T + 1/alpha_2 with |alpha_2| >= |T|, so above exponent
-1 alpha is lambda_1 T + 0*T^0.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import contfrac
from .contfrac import ExpansionRecord
from .ffield import FieldDesc, FieldElement
from .fpoly import Poly, format_poly
from .laurent import LaurentSeries
from .seedpair import admissible_set, build_seedpair

__all__ = [
    "TypeSpec",
    "AlgebraicEquation",
    "RootCheck",
    "ConvergenceError",
    "build_equation",
    "expand_alpha",
    "check_root",
]

# fixed-point iteration is geometric with ratio r >= 3, so runaway loops
# can only come from a bookkeeping bug; keep the bound generous
_MAX_ROUNDS = 200
_MAX_RETRIES = 8
# hard cap on polynomial degrees and series precision: perfect's tower
# degrees and the depth of expand_alpha's precision floor
_DEGREE_CAP = 1 << 20


class ConvergenceError(RuntimeError):
    """The fixed-point iteration stopped gaining precision."""


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
        if self.k not in admissible_set(p, self.t):
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

    def evaluate(self, alpha: LaurentSeries) -> LaurentSeries:
        """Residual series of the equation at a candidate root."""
        ar = alpha.frobenius_pow(self.r)
        out = LaurentSeries.from_poly(self.lead) * ar * alpha
        out = out + LaurentSeries.from_poly(self.second) * ar
        out = out + LaurentSeries.from_poly(self.linear) * alpha
        return out + LaurentSeries.from_poly(self.constant)

    def normalized(self) -> "AlgebraicEquation":
        """Scale so the X^(r+1) coefficient is monic (display form)."""
        c = self.lead.leading().inverse()
        return AlgebraicEquation(
            field=self.field,
            r=self.r,
            lead=self.lead.scaled(c),
            second=self.second.scaled(c),
            linear=self.linear.scaled(c),
            constant=self.constant.scaled(c),
        )

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


def _seed_polys(spec: TypeSpec) -> tuple[Poly, Poly]:
    sp = build_seedpair(spec.p, spec.t, spec.k)
    return sp.Pk.embedded(spec.field), sp.Qk.embedded(spec.field)


def build_equation(spec: TypeSpec) -> AlgebraicEquation:
    """The degree r+1 equation whose unique large root is alpha.

    Coefficients are returned in literal (unscaled) form; use
    normalized() for the monic display variant.
    """
    Pk, Qk = _seed_polys(spec)
    xs, ys = _head_continuants(spec)
    l = spec.l
    e1P = Pk.scaled(spec.eps1)
    e2Q = Qk.scaled(spec.eps2)
    return AlgebraicEquation(
        field=spec.field,
        r=spec.r,
        lead=ys[l],
        second=-xs[l],
        linear=e1P * ys[l - 1] - e2Q * ys[l],
        constant=-(e1P * xs[l - 1]) + e2Q * xs[l],
    )


def expand_alpha(spec: TypeSpec, n_max: int) -> ExpansionRecord:
    """First n_max partial quotients of alpha, by fixed-point iteration.

    Each round is one series division, X -> -(second*X^r + constant)/
    (lead*X^r + linear): alpha -> [head, (alpha^r - eps2 Qk)/(eps1 Pk)]
    times eps1 Pk over itself, started exactly at lambda_1*T with floor -1
    (see the module docstring).  Each round multiplies the correct-coefficient
    count by about r, so the loop is short; the precision target starts
    from the assumption of linear partial quotients and doubles on exhaustion.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    field = spec.field
    eq = build_equation(spec)

    needed = 4 * n_max
    rec = None
    for _ in range(_MAX_RETRIES):
        alpha = _iterate(eq, spec.lambdas[0], -needed)
        rec = contfrac.expand_series(alpha, n_max)
        if len(rec) >= n_max:
            break
        top_deg = max([q.degree() for q in rec.quotients], default=1)
        needed = max(2 * needed, 2 * n_max * (1 + top_deg))
        if needed > _DEGREE_CAP:
            raise ConvergenceError(
                f"{len(rec)} of {n_max} quotients at floor {alpha.floor}; the next "
                f"retry needs floor -{needed}, past -_DEGREE_CAP = -{_DEGREE_CAP}"
            )
    else:
        raise ConvergenceError(
            f"no complete expansion within {_MAX_RETRIES} precision retries"
        )
    head = [Poly.monomial(field, 1, lam) for lam in spec.lambdas]
    if rec.quotients[: spec.l] != head[: min(spec.l, len(rec.quotients))]:
        raise ConvergenceError("iteration converged to a root with the wrong head")
    return rec


def _iterate(eq: AlgebraicEquation, lam1: FieldElement, target_floor: int) -> LaurentSeries:
    r = eq.r
    lead, second, linear, constant = (
        LaurentSeries.from_poly(c) for c in (eq.lead, eq.second, eq.linear, eq.constant)
    )
    # lambda_1*T agrees with the true root above exponent -1, and from
    # there every round is a strict contraction
    alpha = LaurentSeries.monomial(eq.field, 1, lam1, floor=-1)
    for _ in range(_MAX_ROUNDS):
        if alpha.floor is not None and alpha.floor <= target_floor:
            return alpha
        # drop precision the Frobenius power would overshoot past the
        # target; keeps the final rounds at O(target) coefficients
        slack = (target_floor + r - 1) // r
        if alpha.floor is not None and alpha.floor < slack:
            alpha = alpha.truncated(slack)
        ar = alpha.frobenius_pow(r)
        nxt = -((second * ar + constant) / (lead * ar + linear))
        if nxt.floor is not None and alpha.floor is not None:
            if nxt.floor >= alpha.floor:
                raise ConvergenceError(
                    f"iteration stalled at floor {alpha.floor} (target {target_floor})"
                )
        alpha = nxt
    raise ConvergenceError(f"no convergence to floor {target_floor}")


@dataclass(frozen=True)
class RootCheck:
    """Outcome of evaluating the equation at a candidate series."""

    leading_exponent: int | None
    floor: int | None

    @property
    def ok(self) -> bool:
        return self.leading_exponent is None


def check_root(spec: TypeSpec, alpha: LaurentSeries) -> RootCheck:
    """Residual of the defining equation at alpha.

    A genuine root at floor f leaves no known nonzero coefficient, so
    leading_exponent is None; any contamination shows up as the
    exponent of the first surviving residual term.
    """
    res = build_equation(spec).evaluate(alpha)
    if res.known_nonzero():
        return RootCheck(leading_exponent=res.top, floor=res.floor)
    return RootCheck(leading_exponent=None, floor=res.floor)
