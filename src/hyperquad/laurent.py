"""Truncated Laurent series in 1/T over a finite field, with explicit precision.

A value represents sum c_e T^e for exponents e from `top` down to `floor`+1;
coefficients at exponents <= floor are unknown.  floor = None means the value
is exact (a Laurent polynomial: everything below the stored rows is zero).
Two zero-ish states are kept apart on purpose:

  * exact zero            (top None, floor None)
  * zero at this precision (top None, floor finite) - all known rows vanish

Dividing by the second one is a precision problem, not a division by zero,
and raises PrecisionError naming the floor that was insufficient.

Every operation computes the result's floor conservatively from the
operands' floors; nothing silently truncates.
"""

from __future__ import annotations

import numpy as np

from . import _gfkernel as k
from .ffield import FieldDesc, FieldElement, format_element
from .fpoly import Poly


class PrecisionError(ArithmeticError):
    """A result would need coefficients below the known precision floor."""


class LaurentSeries:
    """Immutable truncated Laurent series; see module docstring for states."""

    __slots__ = ("field", "top", "block", "floor")

    def __init__(self, field: FieldDesc, top, block: np.ndarray, floor):
        self.field = field
        self.top = top
        self.block = block
        self.floor = floor

    # -- constructors --------------------------------------------------------

    @classmethod
    def make(cls, field: FieldDesc, top: int, block: np.ndarray, floor) -> "LaurentSeries":
        """Normalize: strip unknown-range rows, strip leading zeros, detect zero."""
        block = np.asarray(block, dtype=np.int64) % field.p
        if floor is not None and top is not None:
            keep = top - floor
            if keep <= 0:
                return cls(field, None, _empty(field), floor)
            if block.shape[0] > keep:
                block = block[:keep]
            elif block.shape[0] < keep:
                pad = np.zeros((keep - block.shape[0], field.s), dtype=np.int64)
                block = np.vstack([block, pad])
        nonzero = np.flatnonzero(block.any(axis=1))
        if nonzero.size == 0:
            return cls(field, None, _empty(field), floor)
        lead = int(nonzero[0])
        # an exact value also drops its zero rows at the low-exponent end
        end = nonzero[-1] + 1 if floor is None else block.shape[0]
        return cls(field, top - lead, np.ascontiguousarray(block[lead:end]), floor)

    @classmethod
    def zero(cls, field: FieldDesc, floor=None) -> "LaurentSeries":
        return cls(field, None, _empty(field), floor)

    @classmethod
    def from_poly(cls, poly: Poly, floor=None) -> "LaurentSeries":
        if not isinstance(poly.field, FieldDesc):
            raise TypeError("Laurent series need finite-field coefficients")
        b = poly.block()
        if b.shape[0] == 0:
            return cls.zero(poly.field, floor)
        return cls.make(poly.field, b.shape[0] - 1, b[::-1], floor)

    @classmethod
    def monomial(cls, field: FieldDesc, e: int, c=None, floor=None) -> "LaurentSeries":
        if c is None:
            c = field.one
        block = np.array([c.coeffs], dtype=np.int64)
        return cls.make(field, e, block, floor)

    @classmethod
    def from_rational(cls, num: Poly, den: Poly, floor: int) -> "LaurentSeries":
        """Expand num/den down to the given precision floor."""
        if den.is_zero():
            raise ZeroDivisionError("series expansion of x/0")
        if num.is_zero():
            return cls.zero(num.field, None)
        top = num.degree() - den.degree()
        if floor >= top:
            return cls.zero(num.field, floor)
        binv = cls.from_poly(den).inverse(floor=floor - num.degree())
        return cls.from_poly(num) * binv

    # -- state predicates ----------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.top is None and self.floor is None

    def is_zero_at_precision(self) -> bool:
        return self.top is None and self.floor is not None

    def known_nonzero(self) -> bool:
        return self.top is not None

    def leading(self) -> FieldElement:
        if self.top is None:
            raise ValueError("zero series has no leading coefficient")
        return FieldElement(self.field, tuple(int(v) for v in self.block[0]))

    def coefficient(self, e: int) -> FieldElement:
        """Coefficient of T^e; PrecisionError below the floor."""
        if self.floor is not None and e <= self.floor:
            raise PrecisionError(f"coefficient of T^{e} is below floor {self.floor}")
        if self.top is None or e > self.top or e <= self.top - self.block.shape[0]:
            return self.field.zero
        return FieldElement(self.field, tuple(int(v) for v in self.block[self.top - e]))

    def known_coefficients(self):
        """Yield (exponent, FieldElement) for the stored nonzero coefficients."""
        if self.top is None:
            return
        for j in range(self.block.shape[0]):
            if self.block[j].any():
                yield self.top - j, FieldElement(
                    self.field, tuple(int(v) for v in self.block[j])
                )

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentSeries):
            raise TypeError(f"cannot combine LaurentSeries with {type(other).__name__}")
        if other.field is not self.field:
            raise ValueError("series over different fields")

    def __add__(self, other):
        self._check(other)
        floor = _max_floor(self.floor, other.floor)
        if self.top is None and other.top is None:
            return LaurentSeries(self.field, None, _empty(self.field), floor)
        if self.top is None:
            return LaurentSeries.make(self.field, other.top, other.block, floor)
        if other.top is None:
            return LaurentSeries.make(self.field, self.top, self.block, floor)
        top = max(self.top, other.top)
        bottom = min(self.top - self.block.shape[0], other.top - other.block.shape[0])
        out = np.zeros((top - bottom, self.field.s), dtype=np.int64)
        out[top - self.top : top - self.top + self.block.shape[0]] = self.block
        sl = slice(top - other.top, top - other.top + other.block.shape[0])
        out[sl] += other.block
        out %= self.field.p
        return LaurentSeries.make(self.field, top, out, floor)

    def __neg__(self):
        if self.top is None:
            return self
        return LaurentSeries(self.field, self.top, (-self.block) % self.field.p, self.floor)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        floor = _mul_floor(self, other)
        if self.top is None or other.top is None:
            return LaurentSeries(self.field, None, _empty(self.field), floor)
        prod = k.mul(self.block[::-1], other.block[::-1], self.field)
        top = self.top + other.top
        return LaurentSeries.make(self.field, top, prod[::-1], floor)

    def scaled(self, c: FieldElement) -> "LaurentSeries":
        if c.is_zero():
            return LaurentSeries(self.field, None, _empty(self.field), None)
        if self.top is None:
            return self
        out = k.scalar_mul(self.block[::-1], np.array(c.coeffs), self.field)
        return LaurentSeries.make(self.field, self.top, out[::-1], self.floor)

    def shifted(self, e: int) -> "LaurentSeries":
        """Multiplication by T^e."""
        if self.top is None:
            floor = None if self.floor is None else self.floor + e
            return LaurentSeries(self.field, None, _empty(self.field), floor)
        floor = None if self.floor is None else self.floor + e
        return LaurentSeries(self.field, self.top + e, self.block, floor)

    def inverse(self, floor=None) -> "LaurentSeries":
        if self.is_exact_zero():
            raise ZeroDivisionError("inverse of zero series")
        if self.is_zero_at_precision():
            raise PrecisionError(
                f"inverse of a series indistinguishable from zero at floor {self.floor}"
            )
        m = None
        if self.floor is not None:
            m = self.top - self.floor
        if floor is not None:
            want = -self.top - floor
            m = want if m is None else min(m, want)
        if m is None:
            if self.block.shape[0] == 1:
                return LaurentSeries(
                    self.field,
                    -self.top,
                    np.array([self.leading().inverse().coeffs], dtype=np.int64),
                    None,
                )
            raise PrecisionError(
                "inverse of an exact multi-term series needs a precision floor"
            )
        if m <= 0:
            raise PrecisionError("requested inverse precision is empty")
        inv_block = k.series_inv(self.block, m, self.field)
        out_floor = -self.top - m
        return LaurentSeries.make(self.field, -self.top, inv_block, out_floor)

    def __truediv__(self, other):
        self._check(other)
        if other.is_exact_zero():
            raise ZeroDivisionError("series division by zero")
        if other.is_zero_at_precision():
            raise PrecisionError(
                f"division by a series indistinguishable from zero at floor {other.floor}"
            )
        if self.floor is None and other.floor is None:
            return _exact_div(self, other)
        want = None
        if self.floor is not None:
            # the dividend's relative precision caps the quotient's; the
            # inverse must reach deep enough that the product keeps every
            # usable digit, so its target shifts down by the dividend's top
            want = self.floor - other.top
            if self.top is not None:
                want -= self.top
        return self * other.inverse(floor=want)

    def frobenius_pow(self, r: int) -> "LaurentSeries":
        """Sum c_e T^e -> sum c_e^r T^(re) for r = p^t."""
        t = _power_exponent(r, self.field.p)
        floor = None if self.floor is None else self.floor * r
        if self.top is None:
            return LaurentSeries(self.field, None, _empty(self.field), floor)
        out = k.frobenius_spread(self.block, t, self.field)
        return LaurentSeries.make(self.field, self.top * r, out, floor)

    # -- extraction ----------------------------------------------------------

    def polynomial_part(self) -> Poly:
        """Coefficients at exponents >= 0, as a polynomial."""
        if self.floor is not None and self.floor >= 0:
            raise PrecisionError(
                f"constant term unknown: floor {self.floor} must be negative"
            )
        if self.top is None or self.top < 0:
            return Poly.zero(self.field)
        rows = self.block[: self.top + 1]
        pad = np.zeros((self.top + 1 - rows.shape[0], self.field.s), dtype=np.int64)
        return Poly.from_block(self.field, np.vstack([rows, pad])[::-1])

    def truncated(self, floor: int) -> "LaurentSeries":
        """Weaken precision to the given floor (raising it only)."""
        if self.floor is not None and floor < self.floor:
            raise PrecisionError(f"cannot deepen floor {self.floor} to {floor}")
        if self.top is None:
            return LaurentSeries(self.field, None, _empty(self.field), floor)
        return LaurentSeries.make(self.field, self.top, self.block, floor)

    def agrees_with(self, other: "LaurentSeries") -> bool:
        """Equal coefficients on the overlap of known exponent ranges."""
        self._check(other)
        floors = [f for f in (self.floor, other.floor) if f is not None]
        if floors:
            lo = max(floors)
        else:
            la = self.top - self.block.shape[0] if self.top is not None else 0
            lb = other.top - other.block.shape[0] if other.top is not None else 0
            lo = min(la, lb)
        tops = [x for x in (self.top, other.top) if x is not None]
        hi = max(tops) if tops else lo
        for e in range(hi, lo, -1):
            if self.coefficient(e) != other.coefficient(e):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries) or other.field is not self.field:
            return False
        if self.top is None or other.top is None:
            return self.top == other.top and self.floor == other.floor
        return (
            self.top == other.top
            and self.floor == other.floor
            and self.block.shape == other.block.shape
            and bool((self.block == other.block).all())
        )

    def __repr__(self):
        return f"<series {format_series(self, max_terms=6)}>"


def _empty(field) -> np.ndarray:
    return np.zeros((0, field.s), dtype=np.int64)


def _max_floor(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _mul_floor(a: LaurentSeries, b: LaurentSeries):
    """Conservative floor of a product: max(floor_a + top_b, floor_b + top_a)."""
    cands = []
    if a.floor is not None:
        if b.top is not None:
            cands.append(a.floor + b.top)
        elif b.floor is not None:
            cands.append(a.floor + b.floor)
    if b.floor is not None:
        if a.top is not None:
            cands.append(b.floor + a.top)
        elif a.floor is not None:
            cands.append(b.floor + a.floor)
    return max(cands) if cands else None


def _power_exponent(r: int, p: int) -> int:
    t = 0
    n = r
    while n > 1 and n % p == 0:
        n //= p
        t += 1
    if n != 1 or t < 1:
        raise ValueError(f"{r} is not a positive power of the characteristic {p}")
    return t


def _exact_div(a: LaurentSeries, b: LaurentSeries) -> "LaurentSeries":
    """Division of two exact Laurent polynomials; exact or PrecisionError."""
    if a.top is None:
        return a
    pa = Poly.from_block(a.field, a.block[::-1])
    pb = Poly.from_block(b.field, b.block[::-1])
    q, r = divmod(pa, pb)
    if not r.is_zero():
        raise PrecisionError(
            "exact division does not terminate; supply a precision floor"
        )
    shift = (a.top - a.block.shape[0]) - (b.top - b.block.shape[0])
    return LaurentSeries.from_poly(q).shifted(shift)


def format_series(a: LaurentSeries, max_terms=None) -> str:
    if a.is_exact_zero():
        return "0"
    if a.is_zero_at_precision():
        return f"O(T^{a.floor})"
    terms = []
    for e, c in a.known_coefficients():
        text = format_element(c)
        if "," in text:
            text = f"({text})"
        neg = text.startswith("-")
        body = text[1:] if neg else text
        if e == 0:
            tpart = body
        else:
            tv = "T" if e == 1 else f"T^{e}"
            tpart = tv if body == "1" else f"{body}*{tv}"
        terms.append((" - " if neg else " + ") + tpart)
        if max_terms is not None and len(terms) >= max_terms:
            terms.append(" + ...")
            break
    text = "".join(terms)
    text = text[3:] if text.startswith(" + ") else "-" + text[3:]
    if a.floor is not None:
        text += f" + O(T^{a.floor})"
    return text
