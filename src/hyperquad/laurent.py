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

No library module imports this one.  It is the reference series engine
that the tests check the direct transducer (hyper.expand_alpha) against.
"""

from __future__ import annotations

import numpy as np

from . import _gfkernel as k
from .ffield import FieldDesc, FieldElement
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
        # with both operands exact, only a one-term divisor has an exact
        # inverse; inverse raises PrecisionError for any other
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

    def truncated(self, floor: int) -> "LaurentSeries":
        """Weaken precision to the given floor (raising it only)."""
        if self.floor is not None and floor < self.floor:
            raise PrecisionError(f"cannot deepen floor {self.floor} to {floor}")
        if self.top is None:
            return LaurentSeries(self.field, None, _empty(self.field), floor)
        return LaurentSeries.make(self.field, self.top, self.block, floor)

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
        rows = self.block.shape[0]
        return f"<series top={self.top} floor={self.floor} rows={rows}>"


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
