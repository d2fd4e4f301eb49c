"""Continued-fraction mechanics: quotient extraction, continuants, brackets.

Records store the partial quotients only.  Partial quotients come out exactly
as Euclid produces them (leading units and all); nothing is normalized,
because downstream comparisons are coefficient-exact.  The continuants
x_n, y_n are derived from the quotients on first access and cached, so the
expansion engines never build them.  A quotient extracted from a truncated
series counts as confirmed only when the tracked precision provably pins it
down: quotient n is kept iff 2*deg(y_n) < -floor, the classical
perturbation threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .fpoly import Poly, format_poly


class UndefinedBracketError(ArithmeticError):
    """A suffix of a constants bracket evaluated to zero."""


@dataclass
class ExpansionRecord:
    """Quotients a_1..a_N; the continuants from index 0 are derived on demand.

    numerators (x_0..x_N) and denominators (y_0..y_N) are computed from the
    quotients the first time either is read, once per record, and cached.
    """

    field: object
    quotients: list  # of Poly
    provenance: str  # direct | predicted | rational
    status: str  # complete | rational | precision-exhausted

    def __len__(self):
        return len(self.quotients)

    @property
    def confirmed(self) -> int:
        """Every stored quotient is confirmed; unconfirmed ones are never kept."""
        return len(self.quotients)

    @cached_property
    def _continuants(self) -> tuple[list, list]:
        # x_n = a_n x_(n-1) + x_(n-2) from x_(-1) = 0, x_0 = 1; y alike from
        # y_(-1) = 1, y_0 = 0
        zero, one = Poly.zero(self.field), Poly.one(self.field)
        xs, ys = [zero, one], [one, zero]
        for a in self.quotients:
            xs.append(a * xs[-1] + xs[-2])
            ys.append(a * ys[-1] + ys[-2])
        return xs[1:], ys[1:]

    @property
    def numerators(self) -> list:
        """x_0, x_1, ..., x_N."""
        return self._continuants[0]

    @property
    def denominators(self) -> list:
        """y_0, y_1, ..., y_N."""
        return self._continuants[1]

    def to_json_dict(self) -> dict:
        return {
            "quotients": [format_poly(q) for q in self.quotients],
            "provenance": self.provenance,
            "confirmed": self.confirmed,
            "status": self.status,
        }


def _euclid(n: Poly, d: Poly, limit) -> tuple[list, bool]:
    """Euclid's quotients of n/d, at most limit of them, and whether it ended."""
    quotients = []
    while not d.is_zero() and len(quotients) < limit:
        q, r = divmod(n, d)
        quotients.append(q)
        n, d = d, r
    return quotients, d.is_zero()


def expand_rational(numer: Poly, denom: Poly) -> ExpansionRecord:
    """Finite Euclid expansion of numer/denom."""
    if denom.is_zero():
        raise ZeroDivisionError("expansion of x/0")
    quotients, _ = _euclid(numer, denom, math.inf)
    return ExpansionRecord(
        field=numer.field,
        quotients=quotients,
        provenance="rational",
        status="complete",
    )


def expand_series(alpha, n_max: int) -> ExpansionRecord:
    """Extract up to n_max partial quotients from a truncated series.

    alpha is a LaurentSeries, read only through its field, top, block and
    floor, and through its two zero-state predicates.

    Quotient n is confirmed iff 2*deg(y_n) < -floor, with deg y_1 = 0 and
    deg y_n = deg a_2 + ... + deg a_n.  That sum is exact: Euclid's quotients
    after the first have degree >= 1, so a_n*y_(n-1) has higher degree than
    y_(n-2) and no leading terms cancel in y_n = a_n*y_(n-1) + y_(n-2).
    """
    field = alpha.field
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max == 0:
        return _direct(field, [], "complete")
    if alpha.is_exact_zero():
        return _direct(field, [Poly.zero(field)], "rational")
    if alpha.is_zero_at_precision() or (alpha.floor is not None and alpha.floor >= 0):
        return _direct(field, [], "precision-exhausted")
    # alpha * T^e is a polynomial: e = -floor puts a truncated value's known
    # coefficients in degrees >= 1, and for an exact value e clears its
    # negative exponents.  Euclid on (alpha * T^e, T^e) is Euclid on alpha.
    low = alpha.top - alpha.block.shape[0] + 1
    e = max(0, -low) if alpha.floor is None else -alpha.floor
    num = Poly.from_block(field, alpha.block[::-1]).shifted(low + e)
    quotients, ended = _euclid(num, Poly.monomial(field, e), n_max)
    confirmed = len(quotients)
    if alpha.floor is not None:
        deg_y = itertools.accumulate((a.degree() for a in quotients[1:]), initial=0)
        confirmed = next(
            (n for n, d in enumerate(deg_y) if 2 * d >= -alpha.floor), confirmed
        )
    if confirmed < len(quotients):
        return _direct(field, quotients[:confirmed], "precision-exhausted")
    return _direct(field, quotients, "rational" if ended else "complete")


def _direct(field, quotients: list, status: str) -> ExpansionRecord:
    return ExpansionRecord(
        field=field,
        quotients=quotients,
        provenance="direct",
        status=status,
    )


def predicted_record(field, quotients) -> ExpansionRecord:
    """Wrap externally supplied quotients as a record."""
    quotients = list(quotients)
    return ExpansionRecord(
        field=field,
        quotients=quotients,
        provenance="predicted",
        status="complete",
    )


def eval_finite_constants(values):
    """[c1,...,cm] = c1 + 1/[c2,...,cm]; UndefinedBracketError on zero suffix."""
    vals = list(values)
    if not vals:
        raise ValueError("empty bracket")
    acc = vals[-1]
    for c in reversed(vals[:-1]):
        if acc.is_zero():
            raise UndefinedBracketError(
                "bracket suffix evaluated to zero; the bracket is undefined"
            )
        acc = c + acc.inverse()
    return acc
