"""Dense coefficient kernel for polynomials and truncated series over F_{p^s}.

Coefficient blocks are int64 arrays of shape (n, s): row i holds the s
coordinates of the coefficient of T^i (low degree first).  The coordinate
reduction u^j -> basis uses the matrices carried by the FieldDesc, so
everything here works uniformly for s = 1 and s > 1.

Normal form: every entry lies in [0, p) and the top row is nonzero (the
zero polynomial is the (0, s) block).  Every block a function here returns
is in normal form, and callers may wrap it as it is.  mul, add and sub also
accept blocks with zero top rows and still return normal form; neg and
scalar_mul keep the row count, so they return normal form when given it.
Every other function takes normal-form blocks and does not re-check them.

Multiplication is one convolution for every s.  Each (n, s) block is laid
out with a row stride of w = 2s - 1 (Kronecker substitution in u): slot
i*w + j holds the coefficient of T^i u^j.  A product of two basis powers
reaches at most u^(2s-2), so no slot spills into the next row, and one
convolution of the packed vectors yields every (T, u) coefficient of the
product.  The (n, w) result is reduced by the (w, s) matrix of u^j in the
basis, then mod p.

mul_path picks the path before the product is made; each is exact for
p < 2^25, the bound make_field enforces:

- direct: np.convolve while the packed product makes at most _DIRECT_WORK
  products, or at most _DIRECT_PER_SLOT per output slot.  Either way the
  shorter packed operand spans at most 2^8 slots, so int64 sums stay
  below 2^8 * 2^50 = 2^58.
- fft: one real FFT per operand, the w columns formed on the transforms,
  one inverse FFT, rounded; taken only when an a-priori bound on the
  float64 error is below 1/2.  By Percival (Math. Comp. 72, 2003; Brent &
  Zimmermann, Modern Computer Arithmetic, Thm. 3.3.2) a length-2^n
  transform convolves x and y with error below |x||y|((1+e)^3n
  (1+e sqrt 5)^(3n+1) (1+beta)^3n - 1) for unit roundoff e = 2^-53 and
  twiddle error beta; with beta <= e that is below 13(n+1)e.  _fft_raw
  sums s column products, each with |a_col||b_col| <= (p-1)^2 sqrt(la*lb),
  and _FFT_ERROR = 2^-46, about 10 * 13e, is a safety factor of 10 for
  the spectral sum and pocketfft's mixed-radix, real-input passes (C in
  numpy 1.x, C++ in numpy 2).  Admitted coefficients stay below 2^45.
- exact: np.convolve over 4096-slot pieces, reduced mod p after each, so
  sums stay below 2^12 * 2^50 = 2^62.

Division has three paths, and div_path names the one divmod_block takes.
A constant divisor b = c divides a by one scalar_mul by c^-1, with no
remainder.  Short quotients are found by long division, one quotient row
per step.  Long ones are found by reversal: with dq = da - db and
rev(f) = x^deg(f) f(1/x), a = q*b + r reads

    rev(a) = rev(q)*rev(b) + x^(dq+1) * x^(db-1-deg r) rev(r),

so rev(q) = rev(a) * rev(b)^-1 mod x^(dq+1).  Only the top dq+1 rows of a
and the top min(db, dq)+1 rows of b reach that residue.  The inverse is
series_inv's Newton iteration, which is exact over F_q[[x]]: it doubles
the number of correct rows each step, and every product it and the
reversal take goes through mul above.  The remainder is then
a - q*b on the low db rows.

Long division over F_q with s > 1 multiplies the divisor by one quotient
coefficient per row.  Multiplication by a fixed field element is
F_p-linear, so divmod_block forms the matrix of each divisor coefficient
once, as the (db+1, s, s) tensor bm with bm[j] = mult_matrix(b[j]), and a
quotient row c then subtracts bm @ c, the rows of c*b.  Its entries are
the same sums mult_matrix forms (s products below p^2 each, reduced mod
p), so every row is the exact product.

Products modulo a fixed f of degree d (mulmod, and through it powmod)
reduce by one matrix.  Once f is fixed, x^i -> x^i mod f is F_p-linear,
the view behind Berlekamp's Q-matrix (Bell Syst. Tech. J. 46, 1967).
reduction builds the F_p matrix R whose row (i, j) holds the coordinates
of u^j x^(d+i) mod f for 0 <= i <= d-2 and 0 <= j < s, a (d-1)s x ds
matrix; at s = 1 these are the rows x^d ... x^(2d-2) mod f.  A product ab
of operands of degree below d has at most 2d-1 rows, and

    ab mod f = ab[:d] + flat(ab[d:]) @ R   (mod p),

since ab[d:] holds the coordinates of the x^(d+i) u^j terms.  mul returns
ab reduced mod p, so each entry of the matrix product sums (d-1)s
products below p^2 < 2^50.  mod_path takes the matrix for d >= 2 while R
has at most _DIRECT_WORK entries, so (d-1)s <= 2^8 and every sum stays
below 2^8 * 2^50 = 2^58, the direct-product argument again (d <= 256 at
s = 1).  Other moduli, and products of 2d rows or more, divide by
rem_block.
"""

from __future__ import annotations

import math

import numpy as np

from .exactq import prime_divisors

# np.convolve while the packed product makes at most _DIRECT_WORK products,
# or at most _DIRECT_PER_SLOT per output slot (thin operands)
_DIRECT_WORK = 1 << 16
_DIRECT_PER_SLOT = 64
# piece length of the exact convolution
_CHUNK = 4096
# bound on _fft_raw's error per transform level, per unit of s*|a_col|*|b_col|
_FFT_ERROR = 2.0**-46
# shortest quotient (rows) that divmod_block computes by reversal
_NEWTON_QUOTIENT = 32


def zeros(field, n: int) -> np.ndarray:
    return np.zeros((n, field.s), dtype=np.int64)


def trim(b: np.ndarray) -> np.ndarray:
    n = b.shape[0]
    # most blocks have a nonzero top row; the builtin any() on the short
    # listed row costs a fraction of ndarray.any()
    if n == 0 or any(b[n - 1].tolist()):
        return b
    nonzero = np.flatnonzero(b.any(axis=1))
    return b[: nonzero[-1] + 1 if nonzero.size else 0]


def add(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    if a.shape[0] < b.shape[0]:
        a, b = b, a
    out = a.copy()
    out[: b.shape[0]] += b
    out %= field.p
    return trim(out)


def sub(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    n = max(a.shape[0], b.shape[0])
    out = np.zeros((n, field.s), dtype=np.int64)
    out[: a.shape[0]] = a
    out[: b.shape[0]] -= b
    out %= field.p
    return trim(out)


def neg(a: np.ndarray, field) -> np.ndarray:
    return (-a) % field.p


def _pack(block: np.ndarray, w: int) -> np.ndarray:
    """Flatten an (n, s) block with row stride w >= s (zero-filled slots)."""
    n, s = block.shape
    if s == w:
        return block.ravel()
    out = np.zeros((n, w), dtype=np.int64)
    out[:, :s] = block
    return out.ravel()


def _conv_chunked(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Exact convolution of 1-D integer vectors mod p, in bounded pieces."""
    if x.shape[0] < y.shape[0]:
        x, y = y, x
    n = x.shape[0] + y.shape[0] - 1
    out = np.zeros(n, dtype=np.int64)
    for start in range(0, x.shape[0], _CHUNK):
        piece = np.convolve(x[start : start + _CHUNK], y)
        out[start : start + piece.shape[0]] += piece
        out[start : start + piece.shape[0]] %= p
    return out % p


def _fft_raw(a: np.ndarray, b: np.ndarray, w: int) -> np.ndarray:
    """The (n, w) table of T^i u^j coefficients of a*b, by one real FFT each.

    Column j of the table is the sum over i of conv(a[:, i], b[:, j - i]);
    those sums are formed on the transforms, so one inverse transform
    returns all w columns.  The rounded table is exact for every shape
    that mul_path sends here (see the module docstring).
    """
    s = a.shape[1]
    n = a.shape[0] + b.shape[0] - 1
    m = 1 << (n - 1).bit_length()
    fa = np.fft.rfft(a.astype(np.float64), m, axis=0)
    fb = np.fft.rfft(b.astype(np.float64), m, axis=0)
    spec = np.zeros((fa.shape[0], w), dtype=np.complex128)
    for i in range(s):
        spec[:, i : i + s] += fa[:, i : i + 1] * fb
    del fa, fb
    return np.rint(np.fft.irfft(spec, m, axis=0)[:n]).astype(np.int64)


def mul_path(la: int, lb: int, field) -> str:
    """The path mul takes for operands of la and lb rows: direct, fft or exact.

    The module docstring gives the rule and why each path is exact.
    """
    p, s = field.p, field.s
    w = 2 * s - 1
    work = la * lb * w * w
    if work <= _DIRECT_WORK or work <= _DIRECT_PER_SLOT * (la + lb) * w:
        return "direct"
    levels = (la + lb - 2).bit_length() + 1  # n + 1 for transform length 2^n
    if s * (p - 1) ** 2 * math.sqrt(la * lb) * levels * _FFT_ERROR < 0.5:
        return "fft"
    return "exact"


def mul(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    p, s = field.p, field.s
    la, lb = a.shape[0], b.shape[0]
    if la == 0 or lb == 0:
        return np.zeros((0, s), dtype=np.int64)
    n = la + lb - 1
    w = 2 * s - 1
    path = mul_path(la, lb, field)
    if path == "exact":
        raw = _conv_chunked(_pack(a, w), _pack(b, w), p)[: n * w].reshape(n, w)
    elif path == "direct":
        raw = np.convolve(_pack(a, w), _pack(b, w))[: n * w].reshape(n, w)
    else:
        raw = _fft_raw(a, b, w)
    if s == 1:
        return trim(raw % p)
    if s * w * (p - 1) ** 3 * min(la, lb) >= 1 << 63:
        raw %= p  # keep the reduction product inside int64
    return trim(raw @ field._upow_matrix % p)


def scalar_mul(a: np.ndarray, c_row, field) -> np.ndarray:
    """Multiply a block by one field element given as its coordinate row."""
    c = np.asarray(c_row, dtype=np.int64)
    if not c.any() or a.shape[0] == 0:
        return np.zeros((0, field.s), dtype=np.int64)
    # a nonzero scalar keeps a nonzero top row nonzero
    if field.s == 1:
        return a * int(c[0]) % field.p
    return a @ mult_matrix(field, c).T % field.p


def frobenius_spread(a: np.ndarray, t: int, field) -> np.ndarray:
    """Row i to the power r = p^t, moved to row r*i: A^r for a polynomial A.

    A series block, highest exponent first, spreads the same way."""
    if a.shape[0] == 0:
        return a
    r = field.p**t
    out = np.zeros(((a.shape[0] - 1) * r + 1, field.s), dtype=np.int64)
    out[::r] = a @ field.frobenius_matrix(t).T % field.p
    return out


def mult_matrix(field, c_row) -> np.ndarray:
    """Matrix M over F_p with M @ coords(x) = coords(c * x).

    For an (m, s) array of coordinate rows, the (m, s, s) stack of their
    matrices."""
    s = field.s
    # row j of c @ table is c * u^j written in the basis: column j of M
    c = np.asarray(c_row, dtype=np.int64)
    m = (c @ field._mul_table.reshape(s, s * s)).reshape(*c.shape[:-1], s, s)
    return np.swapaxes(m, -1, -2) % field.p


def row_inverse(field, c_row):
    """Coordinate row of the inverse field element."""
    if field.s == 1:
        c = int(c_row[0]) % field.p
        if c == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return (pow(c, -1, field.p),)
    return field.el(c_row).inverse().coeffs


def series_inv(block: np.ndarray, m: int, field) -> np.ndarray:
    """Inverse mod x^m of a power series whose row 0 (x^0) is nonzero.

    Newton iteration y <- y*(2 - block*y) over F_q[[x]]: if block*y = 1 mod
    x^k, the new y satisfies block*y = 1 mod x^(2k), exactly, so the number
    of correct rows doubles per step and only the rows below the current
    length are kept.  block may have fewer or more than m rows.
    """
    cur = np.array([row_inverse(field, block[0])], dtype=np.int64)
    two = zeros(field, 1)
    two[0, 0] = 2 % field.p
    length = 1
    while length < m:
        length = min(2 * length, m)
        err = sub(two, mul(block[:length], cur, field)[:length], field)
        cur = mul(cur, err, field)[:length]
    return trim(cur)


def div_path(da: int, db: int, field) -> str:
    """The path divmod_block takes for degrees da >= db: scalar, long or newton.

    A constant divisor (db = 0) is one scalar product by its inverse.  The
    row loop makes (da-db+1)(db+1)s^2 coefficient operations; division by
    reversal costs a few products instead and wins once the quotient has
    _NEWTON_QUOTIENT rows and that work passes the direct-product bound.
    """
    if db == 0:
        return "scalar"
    dq = da - db
    if dq >= _NEWTON_QUOTIENT and (dq + 1) * (db + 1) * field.s**2 >= _DIRECT_WORK:
        return "newton"
    return "long"


def mod_path(d: int, field) -> str:
    """The path mulmod takes modulo f of degree d: matrix or divide.

    The module docstring gives the rule and why the matrix is exact.
    """
    s = field.s
    if d >= 2 and (d - 1) * s * d * s <= _DIRECT_WORK:
        return "matrix"
    return "divide"


def _divmod_reversed(a: np.ndarray, b: np.ndarray, field):
    """divmod_block by reversal, rev(q) = rev(a) * rev(b)^-1 mod x^(dq+1).

    See the module docstring for why this is exact.
    """
    db, da = b.shape[0] - 1, a.shape[0] - 1
    dq = da - db
    # lower rows of a and b do not reach the quotient
    rev_a = a[db:][::-1]
    rev_b = b[db - min(db, dq) :][::-1]
    rev_q = mul(rev_a, series_inv(rev_b, dq + 1, field), field)[: dq + 1]
    # rev_q[0] = lead(a)/lead(b) != 0; trimmed rows are q's zero low rows
    q = zeros(field, dq + 1)
    q[dq + 1 - rev_q.shape[0] :] = rev_q[::-1]
    # the low db rows of q*b depend only on the low db rows of q and b
    return q, sub(a[:db], mul(q[:db], b[:db], field)[:db], field)


def divmod_block(a: np.ndarray, b: np.ndarray, field):
    if b.shape[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db, da = b.shape[0] - 1, a.shape[0] - 1
    if da < db:
        return np.zeros((0, field.s), dtype=np.int64), a
    path = div_path(da, db, field)
    if path == "scalar":
        return scalar_mul(a, row_inverse(field, b[0]), field), zeros(field, 0)
    if path == "newton":
        return _divmod_reversed(a, b, field)
    p, s = field.p, field.s
    a = a.copy()
    inv_lead = row_inverse(field, b[db])
    # the top quotient row is lead(a) * lead(b)^-1 != 0, and each step
    # clears row i of a, so only the remainder's rows below db need a trim
    q = np.zeros((da - db + 1, s), dtype=np.int64)
    if s == 1:
        bcol = b[:, 0]
        acol = a[:, 0]
        il = inv_lead[0]
        for i in range(da, db - 1, -1):
            c = acol[i]
            if c:
                c = c * il % p
                q[i - db, 0] = c
                acol[i - db : i + 1] = (acol[i - db : i + 1] - c * bcol) % p
        return q, trim(a[:db])
    inv_m = mult_matrix(field, inv_lead)
    bm = mult_matrix(field, b)  # bm @ c holds the rows of c * b
    for i in range(da, db - 1, -1):
        lead = a[i]
        if lead.any():
            c = inv_m @ lead % p
            q[i - db] = c
            a[i - db : i + 1] = (a[i - db : i + 1] - bm @ c) % p
    return q, trim(a[:db])


def rem_block(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    return divmod_block(a, b, field)[1]


def gcd_block(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    while b.shape[0] > 0:
        a, b = b, rem_block(a, b, field)
    return monic(a, field)


# ---------------------------------------------------------------------------
# modular arithmetic and irreducibility over F_q; factorization over a prime
# field (s = 1)
# ---------------------------------------------------------------------------


def _col(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, 1)


def reduction(f: np.ndarray, field):
    """The matrix R of x^d ... x^(2d-2) mod f, or None where mod_path divides.

    Row (i, j) holds the coordinates of u^j x^(d+i) mod f; the module
    docstring gives the layout.  Each x^(d+i+1) mod f is x^(d+i) mod f
    shifted up one row, plus its shifted-out top coefficient times x^d mod f.
    """
    d = f.shape[0] - 1
    if mod_path(d, field) != "matrix":
        return None
    p, s = field.p, field.s
    rows = np.zeros((d - 1, d, s), dtype=np.int64)
    rows[0] = neg(scalar_mul(f[:d], row_inverse(field, f[d]), field), field)
    m0 = mult_matrix(field, rows[0]).reshape(d * s, s)  # m0 @ c: the rows of c * rows[0]
    for i in range(1, d - 1):
        rows[i, 1:] = rows[i - 1, :-1]
        top = rows[i - 1, -1]
        if top.any():
            rows[i] = (rows[i] + (m0 @ top).reshape(d, s)) % p
    # m[i, k, :, j] holds the coordinates of u^j * rows[i, k]
    m = mult_matrix(field, rows)
    return np.ascontiguousarray(m.transpose(0, 3, 1, 2)).reshape((d - 1) * s, d * s)


def mulmod(a: np.ndarray, b: np.ndarray, f: np.ndarray, field, red=None) -> np.ndarray:
    """a*b mod f: by the matrix red = reduction(f, field) when given, else by division."""
    ab = mul(a, b, field)
    d, n = f.shape[0] - 1, ab.shape[0]
    if red is None or n >= 2 * d:
        return rem_block(ab, f, field)
    if n <= d:
        return ab
    s = field.s
    high = ab[d:].reshape(-1) @ red[: (n - d) * s]
    return trim((ab[:d] + high.reshape(d, s)) % field.p)


def powmod(a: np.ndarray, e: int, f: np.ndarray, field, red=None) -> np.ndarray:
    """a^e mod f, every product by mulmod through red = reduction(f, field)."""
    if red is None:
        red = reduction(f, field)
    result = zeros(field, 1)
    result[0, 0] = 1
    a = rem_block(a, f, field)
    while e:
        if e & 1:
            result = mulmod(result, a, f, field, red)
        e >>= 1
        if e:
            a = mulmod(a, a, f, field, red)
    return result


def is_irreducible(f: np.ndarray, field) -> bool:
    """Rabin test over F_q, q = field.order, for f of degree d.

    f is irreducible iff x^(q^(d/l)) - x is coprime to f for every prime l
    dividing d and x^(q^d) = x mod f.  h_j = x^(q^j) mod f advances by one
    q-th power per step, each gcd is taken as soon as its h_j is known, so
    at most d powmod calls are made and a candidate of degree 2 or 3 with a
    root in F_q is rejected after the first.
    """
    d = f.shape[0] - 1
    if d < 1:
        return False
    if d == 1:
        return True
    q = field.order
    x = zeros(field, 2)
    x[1, 0] = 1
    gcd_steps = {d // ell for ell in prime_divisors(d)}
    red = reduction(f, field)
    h = x
    for j in range(1, d + 1):
        h = powmod(h, q, f, field, red)
        if j in gcd_steps and gcd_block(sub(h, x, field), f, field).shape[0] > 1:
            return False
    return sub(h, x, field).shape[0] == 0


def derivative(a: np.ndarray, field) -> np.ndarray:
    if a.shape[0] <= 1:
        return np.zeros((0, field.s), dtype=np.int64)
    mults = np.arange(1, a.shape[0], dtype=np.int64).reshape(-1, 1)
    return trim(a[1:] * mults % field.p)


def monic(a: np.ndarray, field) -> np.ndarray:
    if a.shape[0] == 0:
        return a
    return scalar_mul(a, row_inverse(field, a[-1]), field)


def squarefree_decomposition(f: np.ndarray, field) -> list[tuple[np.ndarray, int]]:
    """Square-free parts with multiplicities of a monic f; prime fields only.

    Every part is monic: a gcd, a quotient of monic blocks, or a p-th root
    of one."""
    p = field.p
    if f.shape[0] <= 1:
        return []
    out: dict[int, np.ndarray] = {}
    # when f' = 0, c = gcd(f, 0) = f, w = 1 and f goes whole to the p-th root
    c = gcd_block(f, derivative(f, field), field)
    if c.shape[0] == 1:
        return [(f, 1)]  # gcd(f, f') = 1: f is square-free
    w = divmod_block(f, c, field)[0]
    i = 1
    while w.shape[0] > 1:
        y = gcd_block(w, c, field)
        z = divmod_block(w, y, field)[0]
        if z.shape[0] > 1:
            out[i] = z
        w = y
        c = divmod_block(c, y, field)[0]
        i += 1
    if c.shape[0] > 1:
        # c' = 0, so c = g(X^p) = g^p: F_p coefficients are Frobenius-fixed,
        # and g reads off every p-th row
        for g, m in squarefree_decomposition(c[::p].copy(), field):
            mp = m * p
            out[mp] = mul(out[mp], g, field) if mp in out else g
    return sorted(((g, m) for m, g in out.items()), key=lambda t: t[1])


def distinct_degree(f: np.ndarray, field) -> list[tuple[np.ndarray, int]]:
    """Split a monic square-free f into monic products of same-degree irreducibles."""
    p = field.p
    out = []
    x = zeros(field, 2)
    x[1, 0] = 1
    h = x.copy()  # x^(p^j) mod f as j advances
    j = 0
    red = reduction(f, field)
    while f.shape[0] - 1 >= 2 * (j + 1):
        j += 1
        h = powmod(h, p, f, field, red)
        g = gcd_block(sub(h, x, field), f, field)
        if g.shape[0] > 1:
            out.append((g, j))
            f = divmod_block(f, g, field)[0]
            red = reduction(f, field)
    if f.shape[0] > 1:
        out.append((f, f.shape[0] - 1))
    return out


def equal_degree(f: np.ndarray, d: int, field, rng: np.random.Generator) -> list[np.ndarray]:
    """Cantor-Zassenhaus split of a monic product of degree-d irreducibles (p odd).

    The irreducibles come back monic."""
    n = f.shape[0] - 1
    if n == d:
        return [f]
    p = field.p
    e = (p**d - 1) // 2
    red = reduction(f, field)
    while True:
        r = trim(_col(rng.integers(0, p, size=n, dtype=np.int64)))
        if r.shape[0] == 0:
            continue
        g = powmod(r, e, f, field, red)
        if g.shape[0] == 0:
            continue
        g = g.copy()
        g[0, 0] = (g[0, 0] - 1) % p
        g = gcd_block(trim(g), f, field)
        if 0 < g.shape[0] - 1 < n:
            other = divmod_block(f, g, field)[0]
            return equal_degree(g, d, field, rng) + equal_degree(other, d, field, rng)


def factor(f: np.ndarray, field) -> tuple[np.ndarray, list[tuple[np.ndarray, int]]]:
    """Full factorization over a prime field: (unit row, [(monic irreducible, mult)])."""
    if field.s != 1:
        raise ValueError("factorization is implemented over prime fields only")
    if f.shape[0] == 0:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    unit = f[-1].copy()
    f = monic(f, field)
    if f.shape[0] == 1:
        return unit, []
    # found is sorted below, so the draws never show in the result
    rng = np.random.default_rng(field.p)
    found: list[tuple[np.ndarray, int]] = []
    for part, mult in squarefree_decomposition(f, field):
        for prod, d in distinct_degree(part, field):
            for irr in equal_degree(prod, d, field, rng):
                found.append((irr, mult))
    found.sort(key=lambda t: (t[0].shape[0], [int(v) for v in t[0][:, 0]]))
    return unit, found
