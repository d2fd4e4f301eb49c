"""Finite fields F_p and F_{p^s} in a fixed polynomial basis.

A field is described once (characteristic, extension degree, modulus) and
elements are immutable coordinate vectors in the basis 1, u, ..., u^(s-1),
where u is the residue class of the modulus variable.  Display prefers the
power notation "u^k" / "-u^k" whenever the field is small enough to carry a
power table of u; everything else falls back to comma-separated coordinates.

Element arithmetic in F_p is integer arithmetic mod p.  In F_{p^s} with
s > 1 and at most 2^16 elements it is exact table lookup: each such field
carries, built on first use, the powers g^k of one primitive element g (u
itself when u has order q - 1) and the inverse map from an element to its
exponent k, so a product adds two exponents, an inverse negates one and a
power multiplies one.  Larger fields use the coordinate product in the
basis, and powers and inverses by repeated squaring.

Odd characteristic p < 2^25 only: below that bound (p-1)^2 < 2^50, and
the dense kernel's exact products stay inside int64.  Extension degrees
stop at s = 16, where construction still takes about a second at most.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import _gfkernel
from .exactq import is_prime, prime_divisors


class FieldConstructionError(ValueError):
    """Bad (p, s, modulus) data at field construction."""


class UnsupportedCharacteristicError(FieldConstructionError):
    """Characteristic 2 is outside the supported family."""


class FieldParseError(ValueError):
    """Malformed element text; carries the offending position."""

    def __init__(self, text: str, pos: int, why: str):
        super().__init__(f"cannot parse {text!r} at position {pos}: {why}")
        self.text = text
        self.pos = pos


# ---------------------------------------------------------------------------
# field descriptor and elements
# ---------------------------------------------------------------------------

# fields with s > 1 and at most this many elements carry power tables
_POWER_TABLE_BOUND = 1 << 16
# characteristics from here on would overflow the kernel's exact arithmetic
_P_BOUND = 1 << 25
# largest extension degree: make_field took at most 0.97 s at s = 16 for p
# from 3 to 33554393, but 4-5 s at s = 32 (p = 65521) and s = 100 (p = 3), and
# the (s, s, s) int64 product table is 8 GB at s = 1000 (2-core x86-64 machine)
_S_BOUND = 16

_field_cache: dict[tuple, "FieldDesc"] = {}


def make_field(p: int, s: int, modulus=None) -> "FieldDesc":
    """Build (or fetch the cached) descriptor for F_{p^s}.

    The modulus is a low-to-high coefficient sequence of a monic irreducible
    of degree s over F_p.  When omitted, the lexicographically least monic
    irreducible (coordinates compared low-degree-first) is selected, which
    for s = 1 is the polynomial X itself.  A repeat call returns the field
    built for the same arguments with no check: they passed the first time.
    """
    if modulus is not None:
        modulus = tuple(modulus)
    key = (p, s, modulus)
    field = _field_cache.get(key)
    if field is not None:
        return field
    if p == 2:
        raise UnsupportedCharacteristicError("characteristic 2 is not supported")
    if p >= _P_BOUND:  # checked first: is_prime is trial division
        raise FieldConstructionError(f"characteristic {p} is not below 2^25")
    if not is_prime(p):
        raise FieldConstructionError(f"{p} is not prime")
    if s < 1:
        raise FieldConstructionError("extension degree must be positive")
    if s > _S_BOUND:
        raise FieldConstructionError(f"extension degree {s} is above {_S_BOUND}")
    if modulus is None:
        modulus = _default_modulus(p, s)
    mod = tuple(int(c) % p for c in modulus)
    if len(mod) != s + 1:
        raise FieldConstructionError(
            f"modulus degree {len(mod) - 1} does not match extension degree {s}"
        )
    if mod[-1] != 1:
        raise FieldConstructionError("modulus must be monic")
    field = _field_cache.get((p, s, mod))
    if field is None:
        if s > 1 and not _modulus_is_irreducible(mod, p):
            raise FieldConstructionError(f"modulus {list(mod)} is reducible over F_{p}")
        field = FieldDesc(p, s, mod)
    _field_cache[key] = _field_cache[p, s, mod] = field
    return field


def _modulus_is_irreducible(mod, p: int) -> bool:
    block = np.array(mod, dtype=np.int64).reshape(-1, 1)
    return _gfkernel.is_irreducible(block, make_field(p, 1))


def _default_modulus(p: int, s: int) -> list[int]:
    if s == 1:
        return [0, 1]
    # codes below p^(s-1) have constant term 0 (divisible by X); the rest
    # run through the tails in low-degree-first lexicographic order
    for code in range(p ** (s - 1), p**s):
        cand = [1]
        for _ in range(s):
            code, digit = divmod(code, p)
            cand.append(digit)
        cand.reverse()
        if _modulus_is_irreducible(cand, p):
            return cand
    raise FieldConstructionError(f"no irreducible of degree {s} over F_{p}")


class FieldDesc:
    """Immutable descriptor of F_{p^s}; also the element factory."""

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.modulus = modulus
        self.order = p**s
        # the int64 (2s-1, s) matrix of u^j in the basis for j <= 2s-2, enough
        # to reduce any product of two basis vectors: the identity, then the
        # kernel's x^s ... x^(2s-2) mod the modulus (s <= 16: the matrix path)
        self._upow_matrix = np.eye(s, dtype=np.int64)
        if s > 1:
            mod = np.array(modulus, dtype=np.int64).reshape(-1, 1)
            red = _gfkernel.reduction(mod, make_field(p, 1))
            self._upow_matrix = np.concatenate([self._upow_matrix, red])
        # its rows as lists for _coord_mul, and the (s, s, s) table whose [i, j]
        # row is u^(i+j); the dense kernel reduces products and builds
        # multiplication matrices from them
        self._upow_rows = self._upow_matrix.tolist()
        idx = np.add.outer(np.arange(s), np.arange(s))
        self._mul_table = self._upow_matrix[idx]
        # t -> matrix of c -> c^(p^t), filled on first use
        self._frob_matrices: dict[int, np.ndarray] = {}
        self.zero = FieldElement(self, (0,) * s)
        self.one = FieldElement(self, (1,) + (0,) * (s - 1))

    def _coord_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinate tuple of a*b, by the schoolbook product in the basis."""
        p, s = self.p, self.s
        raw = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] = (raw[i + j] + x * y) % p
        out = [0] * s
        for j, c in enumerate(raw):
            if c:
                row = self._upow_rows[j]
                for t in range(s):
                    out[t] = (out[t] + c * row[t]) % p
        return tuple(out)

    def _coord_pow(self, c: tuple[int, ...], e: int) -> tuple[int, ...]:
        """Coordinate tuple of c^e for e >= 0, by repeated squaring."""
        result = self.one.coeffs
        while e:
            if e & 1:
                result = self._coord_mul(result, c)
            e >>= 1
            if e:
                c = self._coord_mul(c, c)
        return result

    @functools.cached_property
    def _exp(self) -> list[tuple[int, ...]] | None:
        """Coordinate tuples of g^k for k < 2(q-1), g primitive.

        Stored twice over so that a product indexes it by the sum of two
        exponents without a reduction.  None when s = 1 or the field has
        more than _POWER_TABLE_BOUND elements.
        """
        if self.s == 1 or self.order > _POWER_TABLE_BOUND:
            return None
        n = self.order - 1
        one = self.one.coeffs
        divisors = prime_divisors(n)

        def primitive(c):
            return any(c) and all(self._coord_pow(c, n // r) != one for r in divisors)

        u = self.u.coeffs
        g = u if primitive(u) else next(x.coeffs for x in self.elements() if primitive(x.coeffs))
        # rows g^k, k < len(rows), doubled through the matrix of g^len(rows)
        p = self.p
        rows = np.array([one], dtype=np.int64)
        step = np.array(g, dtype=np.int64)
        while rows.shape[0] < n:
            m = _gfkernel.mult_matrix(self, step)
            rows = np.concatenate([rows, rows @ m.T % p])
            step = m @ step % p
        powers = list(map(tuple, rows[:n].tolist()))
        return powers + powers

    @functools.cached_property
    def _log(self) -> dict[tuple[int, ...], int] | None:
        """Exponent k of each nonzero coordinate tuple g^k, k < q - 1."""
        if self._exp is None:
            return None
        return {c: k for k, c in enumerate(self._exp[: self.order - 1])}

    @functools.cached_property
    def _log_table(self) -> dict[tuple[int, ...], int] | None:
        """Display table u^k -> k over the powers of u, read off the g-powers."""
        if self._exp is None:
            return None
        n = self.order - 1
        a = self._log[self.u.coeffs]
        return {self._exp[a * k % n]: k for k in range(n // math.gcd(a, n))}

    def frobenius_matrix(self, t: int) -> np.ndarray:
        """F_p-linear matrix of c -> c^(p^t) in the u-power basis."""
        t %= self.s
        m = self._frob_matrices.get(t)
        if m is None:
            cols = []
            for i in range(self.s):
                basis = FieldElement(self, tuple(1 if j == i else 0 for j in range(self.s)))
                img = basis if t == 0 else frobenius(basis, t)
                cols.append(img.coeffs)
            m = np.array(cols, dtype=np.int64).T
            self._frob_matrices[t] = m
        return m

    @property
    def u(self) -> "FieldElement":
        """Residue class of the modulus variable (s >= 2), or 1 when s = 1."""
        if self.s == 1:
            return self.one
        return FieldElement(self, (0, 1) + (0,) * (self.s - 2))

    def el(self, coeffs) -> "FieldElement":
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.s:
            raise ValueError(f"expected {self.s} coordinates, got {len(c)}")
        return FieldElement(self, c)

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, (n % self.p,) + (0,) * (self.s - 1))

    def elements(self):
        for tail in itertools.product(range(self.p), repeat=self.s):
            yield FieldElement(self, tail)

    def nonzero_elements(self):
        for x in self.elements():
            if not x.is_zero():
                yield x

    def __repr__(self):
        return f"FieldDesc(p={self.p}, s={self.s}, modulus={list(self.modulus)})"

    def __str__(self):
        return f"F_{self.order}"


class FieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDesc, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.field is not self.field:
            raise ValueError("elements of different fields cannot be combined")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if f.s == 1:
            return FieldElement(f, (self.coeffs[0] * other.coeffs[0] % f.p,))
        log = f._log
        if log is None:
            return FieldElement(f, f._coord_mul(self.coeffs, other.coeffs))
        i = log.get(self.coeffs)
        j = log.get(other.coeffs)
        if i is None or j is None:  # zero has no logarithm
            return f.zero
        return FieldElement(f, f._exp[i + j])

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        if f.s == 1:
            return FieldElement(f, (pow(self.coeffs[0], -1, f.p),))
        log = f._log
        if log is None:
            return FieldElement(f, f._coord_pow(self.coeffs, f.order - 2))
        return FieldElement(f, f._exp[f.order - 1 - log[self.coeffs]])

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        f = self.field
        if e < 0 and self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if f.s == 1:
            return FieldElement(f, (pow(self.coeffs[0], e, f.p),))
        log = f._log
        if log is None:
            if e < 0:
                return self.inverse() ** (-e)
            return FieldElement(f, f._coord_pow(self.coeffs, e))
        k = log.get(self.coeffs)
        if k is None:  # 0^0 = 1, 0^e = 0 for e > 0
            return f.zero if e else f.one
        return FieldElement(f, f._exp[k * e % (f.order - 1)])

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"<{format_element(self)} in {self.field}>"

    def __str__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# the prime field inside F_{p^s}
# ---------------------------------------------------------------------------


def check_embedding(source: FieldDesc, field: FieldDesc) -> None:
    """Raise ValueError unless source is the prime field of field's characteristic."""
    if source.p != field.p:
        raise ValueError("cannot move a scalar across characteristics")
    if source.s != 1:
        raise ValueError(f"only prime-field scalars embed into {field}, not {source}")


def embed(field: FieldDesc, c: FieldElement) -> FieldElement:
    """A scalar of F_p (or of field itself) as an element of field."""
    if c.field is field:
        return c
    check_embedding(c.field, field)
    return field.from_int(c.coeffs[0])


# ---------------------------------------------------------------------------
# Frobenius maps
# ---------------------------------------------------------------------------


def frobenius(x: FieldElement, t: int) -> FieldElement:
    """x^(p^t), which depends on t mod s only."""
    if t < 1:
        raise ValueError("Frobenius exponent must be positive")
    return x ** (x.field.p ** (t % x.field.s))


def frobenius_inverse(x: FieldElement, t: int) -> FieldElement:
    """The unique y with frobenius(y, t) = x."""
    s = x.field.s
    j = (-t) % s
    if j == 0:
        return x
    return frobenius(x, j)


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------


def format_element(x: FieldElement) -> str:
    f = x.field
    if f.s == 1:
        c = x.coeffs[0]
        return str(c - f.p if c > f.p // 2 else c)
    if x.is_zero():
        return "0"
    table = f._log_table
    if table is not None:
        k_pos = table.get(x.coeffs)
        k_neg = table.get((-x).coeffs)
        if k_pos is not None and (k_neg is None or k_pos <= k_neg):
            return _power_text(k_pos, positive=True)
        if k_neg is not None:
            return _power_text(k_neg, positive=False)
    return ",".join(str(c) for c in x.coeffs)


def _power_text(k: int, positive: bool) -> str:
    sign = "" if positive else "-"
    if k == 0:
        return sign + "1"
    if k == 1:
        return sign + "u"
    return f"{sign}u^{k}"


def parse_element(field: FieldDesc, text: str) -> FieldElement:
    raw = text
    t = text.strip()
    if not t:
        raise FieldParseError(raw, 0, "empty")
    if "," in t:
        parts = t.split(",")
        if len(parts) != field.s:
            raise FieldParseError(raw, 0, f"expected {field.s} coordinates")
        coords = []
        pos = 0
        for part in parts:
            try:
                coords.append(int(part.strip()))
            except ValueError:
                raise FieldParseError(raw, pos, f"bad coordinate {part.strip()!r}") from None
            pos += len(part) + 1
        return field.el(coords)
    sign = 1
    body = t
    if body.startswith(("-", "+")):
        if body[0] == "-":
            sign = -1
        body = body[1:].strip()
        if not body:
            raise FieldParseError(raw, len(raw), "dangling sign")
    if body.startswith("u"):
        if field.s == 1:
            raise FieldParseError(raw, t.find("u"), "no generator in a prime field")
        rest = body[1:]
        if rest == "":
            k = 1
        elif rest.startswith("^"):
            try:
                k = int(rest[1:])
            except ValueError:
                raise FieldParseError(raw, t.find("^") + 1, "bad exponent") from None
            if k < 0:
                raise FieldParseError(raw, t.find("^") + 1, "negative exponent")
        else:
            raise FieldParseError(raw, t.find("u") + 1, "expected '^' after generator")
        val = field.u**k
        return -val if sign < 0 else val
    try:
        n = int(body)
    except ValueError:
        raise FieldParseError(raw, 0, "not an integer, power, or vector") from None
    val = field.from_int(n)
    return -val if sign < 0 else val


# ---------------------------------------------------------------------------
# the worked-example field over 27 elements
# ---------------------------------------------------------------------------


def f27_preset() -> FieldDesc:
    """F_27 presented by the modulus X^3 + X^2 - X + 1 (so u^13 = -1)."""
    return make_field(3, 3, [1, -1, 1, 1])
