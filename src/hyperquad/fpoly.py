"""Univariate polynomials over a finite field or the exact rationals.

One class covers both coefficient domains: finite-field polynomials are
backed by the dense int64 kernel, rational ones by tuples of Fractions.
The module also provides reduced rational functions, the polynomial part
of a quotient, complete factorization into monic irreducibles over a prime
field, and counting/enumeration of irreducibles of a given degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _gfkernel as k
from .exactq import prime_divisors
from .ffield import (
    FieldDesc,
    FieldElement,
    FieldParseError,
    check_embedding,
    format_element,
    parse_element,
)


class _RationalField:
    """Coefficient-domain adapter presenting Fraction like a FieldDesc."""

    p = 0
    s = 1

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def __repr__(self):
        return "QQ"


QQ = _RationalField()


def _is_gf(field) -> bool:
    return isinstance(field, FieldDesc)


class Poly:
    """Dense polynomial, low-to-high coefficients, trailing zeros stripped."""

    __slots__ = ("field", "_block", "_q")

    def __init__(self, field, coeffs=()):
        self.field = field
        if _is_gf(field):
            rows = []
            for c in coeffs:
                rows.append(self._coerce_gf(c).coeffs)
            block = (
                np.array(rows, dtype=np.int64)
                if rows
                else np.zeros((0, field.s), dtype=np.int64)
            )
            self._block = k.trim(block)
            self._q = None
        else:
            qs = [Fraction(c) for c in coeffs]
            while qs and qs[-1] == 0:
                qs.pop()
            self._q = tuple(qs)
            self._block = None

    def _coerce_gf(self, c) -> FieldElement:
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
        self._q = None
        return self

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one,)) if _is_gf(field) else cls(field, (1,))

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
        if self._block is not None:
            return self._block.shape[0] == 0
        return not self._q

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        if self._block is not None:
            return self._block.shape[0] - 1
        return len(self._q) - 1

    def block(self) -> np.ndarray:
        if self._block is None:
            raise TypeError("rational-coefficient polynomial has no kernel block")
        return self._block

    def coefficient(self, i: int):
        if i < 0:
            raise IndexError(i)
        if self._block is not None:
            if i >= self._block.shape[0]:
                return self.field.zero
            return FieldElement(self.field, tuple(int(v) for v in self._block[i]))
        if i >= len(self._q):
            return QQ.zero
        return self._q[i]

    def coeffs_list(self) -> list:
        return [self.coefficient(i) for i in range(self.degree() + 1)]

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree())

    def embedded(self, field: FieldDesc) -> "Poly":
        """This polynomial over F_p (or over field itself) as one over field."""
        if self.field is field:
            return self
        check_embedding(self.field, field)
        return Poly.from_block(field, np.pad(self._block, ((0, 0), (0, field.s - 1))))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        if other.field is not self.field:
            raise ValueError("polynomials over different coefficient fields")

    def __add__(self, other):
        self._check(other)
        if self._block is not None:
            return Poly.from_block(self.field, k.add(self._block, other._block, self.field))
        n = max(len(self._q), len(other._q))
        a = list(self._q) + [QQ.zero] * (n - len(self._q))
        for i, c in enumerate(other._q):
            a[i] += c
        return Poly(self.field, a)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self._block is not None:
            return Poly.from_block(self.field, k.neg(self._block, self.field))
        return Poly(self.field, [-c for c in self._q])

    def __mul__(self, other):
        self._check(other)
        if self._block is not None:
            return Poly.from_block(self.field, k.mul(self._block, other._block, self.field))
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [QQ.zero] * (len(self._q) + len(other._q) - 1)
        for i, a in enumerate(self._q):
            if a:
                for j, b in enumerate(other._q):
                    out[i + j] += a * b
        return Poly(self.field, out)

    def scaled(self, c) -> "Poly":
        """Product with a single field constant."""
        if self._block is not None:
            c = self._coerce_gf(c)
            return Poly.from_block(self.field, k.scalar_mul(self._block, c.coeffs, self.field))
        c = Fraction(c)
        return Poly(self.field, [c * a for a in self._q])

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
        if self._block is not None:
            pad = np.zeros((e, self.field.s), dtype=np.int64)
            return Poly.from_block(self.field, np.vstack([pad, self._block]))
        return Poly(self.field, (QQ.zero,) * e + self._q)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self._block is not None:
            q, r = k.divmod_block(self._block, other._block, self.field)
            return Poly.from_block(self.field, q), Poly.from_block(self.field, r)
        rem = list(self._q)
        db = other.degree()
        lead = other._q[-1]
        q = [QQ.zero] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                c = c / lead
                q[i - db] = c
                for j in range(db + 1):
                    rem[i - db + j] -= c * other._q[j]
        return Poly(self.field, q), Poly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        if self._block is not None:
            return Poly.from_block(self.field, k.monic(self._block, self.field))
        lead = self._q[-1]
        return Poly(self.field, [c / lead for c in self._q])

    def gcd(self, other: "Poly") -> "Poly":
        self._check(other)
        if self._block is not None:
            return Poly.from_block(self.field, k.gcd_block(self._block, other._block, self.field))
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def evaluate(self, x):
        """Horner evaluation at a field element (or Fraction for QQ)."""
        if self._block is not None:
            acc = self.field.zero
            for i in range(self.degree(), -1, -1):
                acc = acc * x + self.coefficient(i)
            return acc
        acc = QQ.zero
        for c in reversed(self._q):
            acc = acc * x + c
        return acc

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly) or other.field is not self.field:
            return False
        if self._block is not None:
            return (
                self._block.shape == other._block.shape
                and bool((self._block == other._block).all())
            )
        return self._q == other._q

    def __hash__(self):
        if self._block is not None:
            return hash((id(self.field), self._block.tobytes()))
        return hash((id(self.field), self._q))

    def __repr__(self):
        return f"Poly({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Reduced fraction of polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.field is not den.field:
            raise ValueError("numerator and denominator over different fields")
        if num.is_zero():
            self.num = num
            self.den = Poly.one(num.field)
            return
        g = num.gcd(den)
        if g.degree() > 0:
            num = num // g
            den = den // g
        lead = den.leading()
        if _is_gf(num.field):
            inv = lead.inverse()
        else:
            inv = 1 / lead
        self.num = num.scaled(inv)
        self.den = den.scaled(inv)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"({self.num}) / ({self.den})"


def polynomial_part(f: RationalFunction) -> Poly:
    """Quotient of the Euclidean division num by den (the square bracket)."""
    return f.num // f.den


# ---------------------------------------------------------------------------
# factorization over prime fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorMultiset:
    unit: FieldElement
    factors: tuple  # ((monic irreducible Poly, multiplicity), ...)

    def expand(self) -> Poly:
        field = self.unit.field
        acc = Poly.constant(field, self.unit)
        for f, m in self.factors:
            acc = acc * f**m
        return acc


def factor(f: Poly) -> FactorMultiset:
    if not _is_gf(f.field):
        raise TypeError("factorization needs finite-field coefficients")
    unit_row, parts = k.factor(f.block(), f.field)
    unit = FieldElement(f.field, tuple(int(v) for v in unit_row))
    factors = tuple((Poly.from_block(f.field, b), m) for b, m in parts)
    return FactorMultiset(unit=unit, factors=factors)


def is_irreducible(f: Poly) -> bool:
    """Rabin test over the coefficient field (see _gfkernel.is_irreducible)."""
    if not _is_gf(f.field):
        raise TypeError("irreducibility test needs finite-field coefficients")
    return k.is_irreducible(f.block(), f.field)


def _mobius(n: int) -> int:
    mu = 1
    for d in prime_divisors(n):
        if n % (d * d) == 0:
            return 0
        mu = -mu
    return mu


_ENUM_BOUND = 1 << 20


def irreducibles(p: int, d: int, mode: str = "count"):
    """Count (Moebius/necklace formula) or enumerate monic irreducibles of degree d."""
    if d < 1:
        raise ValueError("degree must be positive")
    if mode == "count":
        total = sum(_mobius(e) * p ** (d // e) for e in _divisors(d))
        assert total % d == 0
        return total // d
    if mode != "enumerate":
        raise ValueError(f"unknown mode {mode!r}")
    if p**d > _ENUM_BOUND:
        raise ValueError(f"enumeration of p^d = {p**d} polynomials exceeds the size bound")
    from .ffield import make_field

    field = make_field(p, 1)
    out = []
    for code in range(p**d):
        coeffs = []
        c = code
        for _ in range(d):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        if d > 1 and coeffs[0] == 0:
            continue
        cand = Poly(field, [field.from_int(v) for v in coeffs])
        if is_irreducible(cand):
            out.append(cand)
    return out


def _divisors(n: int) -> list[int]:
    out = [e for e in range(1, n + 1) if n % e == 0]
    return out


# ---------------------------------------------------------------------------
# text syntax: "c0 + c1*T + c2*T^2"
# ---------------------------------------------------------------------------


def format_poly(f: Poly, var: str = "T") -> str:
    if f.is_zero():
        return "0"
    terms = []
    for e in range(f.degree(), -1, -1):
        c = f.coefficient(e)
        if (c == QQ.zero) if f._block is None else c.is_zero():
            continue
        terms.append((e, _coeff_text(f, c)))
    pieces = []
    for idx, (e, ctext) in enumerate(terms):
        neg = ctext.startswith("-")
        body = ctext[1:] if neg else ctext
        if e == 0:
            term = body
        else:
            tpart = var if e == 1 else f"{var}^{e}"
            term = tpart if body == "1" else f"{body}*{tpart}"
        if idx == 0:
            pieces.append("-" + term if neg else term)
        else:
            pieces.append((" - " if neg else " + ") + term)
    return "".join(pieces)


def _coeff_text(f: Poly, c) -> str:
    if f._block is None:
        return str(c)
    text = format_element(c)
    if "," in text:
        return f"({text})"
    return text


def parse_poly(field, text: str, var: str = "T") -> Poly:
    raw = text
    t = text.strip()
    if not t:
        raise FieldParseError(raw, 0, "empty polynomial")
    chunks = _split_terms(raw, t)
    acc: dict[int, object] = {}
    zero = field.zero if _is_gf(field) else QQ.zero
    for sign, chunk, pos in chunks:
        e, coeff = _parse_term(field, chunk, var, raw, pos)
        if sign < 0:
            coeff = -coeff
        acc[e] = acc.get(e, zero) + coeff
    if not acc:
        return Poly.zero(field)
    top = max(acc)
    return Poly(field, [acc.get(i, zero) for i in range(top + 1)])


def _split_terms(raw: str, t: str):
    chunks = []
    depth = 0
    cur = []
    sign = 1
    pos = 0
    started = False
    for i, ch in enumerate(t):
        if ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FieldParseError(raw, i, "unbalanced parenthesis")
            cur.append(ch)
        elif ch in "+-" and depth == 0 and started and cur and "".join(cur).strip():
            chunks.append((sign, "".join(cur).strip(), pos))
            sign = 1 if ch == "+" else -1
            cur = []
            pos = i + 1
        elif ch in "+-" and depth == 0 and not "".join(cur).strip():
            sign = sign * (1 if ch == "+" else -1)
        else:
            if not ch.isspace():
                started = True
            cur.append(ch)
    if depth != 0:
        raise FieldParseError(raw, len(t), "unbalanced parenthesis")
    tail = "".join(cur).strip()
    if tail:
        chunks.append((sign, tail, pos))
    if not chunks:
        raise FieldParseError(raw, 0, "no terms")
    return chunks


def _parse_term(field, chunk: str, var: str, raw: str, pos: int):
    body = chunk.strip()
    e = 0
    coeff_text = body
    idx = body.find(var)
    while idx != -1:
        # the variable begins a T / T^e tail only if at start or after '*'
        before = body[:idx].rstrip()
        if before == "" or before.endswith("*"):
            tail = body[idx + len(var) :].strip()
            if tail == "":
                e = 1
            elif tail.startswith("^"):
                try:
                    e = int(tail[1:])
                except ValueError:
                    raise FieldParseError(raw, pos + idx, "bad exponent") from None
                if e < 0:
                    raise FieldParseError(raw, pos + idx, "negative exponent")
            else:
                raise FieldParseError(raw, pos + idx, f"unexpected text after {var}")
            coeff_text = before.rstrip("*").strip()
            break
        idx = body.find(var, idx + 1)
    if coeff_text == "" or coeff_text == "+":
        coeff_text = "1"
    if coeff_text == "-":
        coeff_text = "-1"
    if coeff_text.startswith("(") and coeff_text.endswith(")"):
        coeff_text = coeff_text[1:-1]
    if _is_gf(field):
        return e, parse_element(field, coeff_text)
    try:
        return e, Fraction(coeff_text)
    except (ValueError, ZeroDivisionError):
        raise FieldParseError(raw, pos, f"bad rational {coeff_text!r}") from None
