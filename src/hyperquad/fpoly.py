"""Univariate polynomials over a finite field F_{p^s}.

Polynomials are backed by the dense int64 kernel (see _gfkernel).  The
module also provides complete factorization into monic irreducibles over
a prime field and the count of monic irreducibles of a given degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _gfkernel as k
from .exactq import prime_divisors
from .ffield import FieldDesc, FieldElement, check_embedding, format_element


class Poly:
    """Dense polynomial, low-to-high coefficients, trailing zeros stripped."""

    __slots__ = ("field", "_block")

    def __init__(self, field: FieldDesc, coeffs=()):
        self.field = field
        rows = [self._coerce(c).coeffs for c in coeffs]
        block = (
            np.array(rows, dtype=np.int64)
            if rows
            else np.zeros((0, field.s), dtype=np.int64)
        )
        self._block = k.trim(block)

    def _coerce(self, c) -> FieldElement:
        if isinstance(c, FieldElement):
            if c.field is not self.field:
                raise ValueError("coefficient from a different field")
            return c
        if isinstance(c, int):
            return self.field.from_int(c)
        raise TypeError(f"cannot use {type(c).__name__} as a coefficient")

    @classmethod
    def from_block(cls, field: FieldDesc, block: np.ndarray) -> "Poly":
        """Wrap a normal-form kernel block (see _gfkernel) without copying it."""
        self = cls.__new__(cls)
        self.field = field
        self._block = block
        return self

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def constant(cls, field, c) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field, e: int, c=None) -> "Poly":
        if c is None:
            c = field.one
        return cls.constant(field, c).shifted(max(e, 0))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self._block.shape[0] == 0

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self._block.shape[0] - 1

    def block(self) -> np.ndarray:
        return self._block

    def coefficient(self, i: int) -> FieldElement:
        if i < 0:
            raise IndexError(i)
        if i >= self._block.shape[0]:
            return self.field.zero
        return FieldElement(self.field, tuple(int(v) for v in self._block[i]))

    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree())

    def scaled_into(self, c: FieldElement) -> "Poly":
        """This polynomial over F_p times c, as a polynomial over c's field.

        An F_p coefficient a times c has coordinates a * coords(c), so the
        product block is the outer product of the coefficient column with
        coords(c), mod p.  For c != 0 the top row a * coords(c) is nonzero,
        a being a unit of F_p, so the block is in normal form.
        """
        check_embedding(self.field, c.field)
        if c.is_zero():
            return Poly.zero(c.field)
        row = np.array(c.coeffs, dtype=np.int64)
        return Poly.from_block(c.field, self._block * row % c.field.p)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        if other.field is not self.field:
            raise ValueError("polynomials over different coefficient fields")

    def __add__(self, other):
        self._check(other)
        return Poly.from_block(self.field, k.add(self._block, other._block, self.field))

    def __sub__(self, other):
        self._check(other)
        return Poly.from_block(self.field, k.sub(self._block, other._block, self.field))

    def __neg__(self):
        return Poly.from_block(self.field, k.neg(self._block, self.field))

    def __mul__(self, other):
        self._check(other)
        return Poly.from_block(self.field, k.mul(self._block, other._block, self.field))

    def scaled(self, c) -> "Poly":
        """Product with a single field constant."""
        c = self._coerce(c)
        return Poly.from_block(self.field, k.scalar_mul(self._block, c.coeffs, self.field))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shifted(self, e: int) -> "Poly":
        """Multiplication by T^e."""
        if e == 0 or self.is_zero():
            return self
        pad = np.zeros((e, self.field.s), dtype=np.int64)
        return Poly.from_block(self.field, np.vstack([pad, self._block]))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = k.divmod_block(self._block, other._block, self.field)
        return Poly.from_block(self.field, q), Poly.from_block(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return Poly.from_block(self.field, k.monic(self._block, self.field))

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly) or other.field is not self.field:
            return False
        return (
            self._block.shape == other._block.shape
            and bool((self._block == other._block).all())
        )

    def __hash__(self):
        return hash((id(self.field), self._block.tobytes()))

    def __repr__(self):
        return f"Poly({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# factorization over prime fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorMultiset:
    unit: FieldElement
    factors: tuple  # ((monic irreducible Poly, multiplicity), ...)


def factor(f: Poly) -> FactorMultiset:
    unit_row, parts = k.factor(f.block(), f.field)
    unit = FieldElement(f.field, tuple(int(v) for v in unit_row))
    factors = tuple((Poly.from_block(f.field, b), m) for b, m in parts)
    return FactorMultiset(unit=unit, factors=factors)


def _mobius(n: int) -> int:
    mu = 1
    for d in prime_divisors(n):
        if n % (d * d) == 0:
            return 0
        mu = -mu
    return mu


def irreducibles(p: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_p (Moebius/necklace formula)."""
    if d < 1:
        raise ValueError("degree must be positive")
    total = sum(_mobius(e) * p ** (d // e) for e in _divisors(d))
    assert total % d == 0
    return total // d


def _divisors(n: int) -> list[int]:
    out = [e for e in range(1, n + 1) if n % e == 0]
    return out


# ---------------------------------------------------------------------------
# text form: "c_d*T^d + ... + c1*T + c0"
# ---------------------------------------------------------------------------


def format_poly(f: Poly, var: str = "T") -> str:
    """Terms from the highest degree down; only nonzero rows are read."""
    pieces = []
    for e in np.flatnonzero(f.block().any(axis=1))[::-1].tolist():
        ctext = format_element(f.coefficient(e))
        if "," in ctext:
            ctext = f"({ctext})"
        neg = ctext.startswith("-")
        body = ctext[1:] if neg else ctext
        if e == 0:
            term = body
        else:
            tpart = var if e == 1 else f"{var}^{e}"
            term = tpart if body == "1" else f"{body}*{tpart}"
        if pieces:
            pieces.append((" - " if neg else " + ") + term)
        else:
            pieces.append("-" + term if neg else term)
    return "".join(pieces) or "0"
