"""Reduction modulo a fixed f, constant divisors and the factorizer, against the former code.

`_gfkernel.mulmod` reduces a product by one precomputed matrix while
`mod_path` allows it, `divmod_block` divides by a constant with one scalar
product, and `squarefree_decomposition` stops at gcd(f, f') = 1, while
`factor` makes its input monic once for the steps below it.  The references
here are the code these replaced, kept whole: the product divided by f,
long division and division by reversal of a constant divisor, and the
factorizer that made every part monic again at each step.
"""

import zlib

import numpy as np
import pytest

from hyperquad import _gfkernel as k
from hyperquad.ffield import make_field

# the largest prime below 2^25, the characteristic bound of make_field
P_LARGE = 33554393


def former_mulmod(a, b, f, field):
    """The former mulmod: the product divided by f."""
    return k.rem_block(k.mul(a, b, field), f, field)


def former_powmod(a, e, f, field):
    """The former powmod: square and multiply through former_mulmod."""
    result = k.zeros(field, 1)
    result[0, 0] = 1
    a = k.rem_block(a, f, field)
    while e:
        if e & 1:
            result = former_mulmod(result, a, f, field)
        e >>= 1
        if e:
            a = former_mulmod(a, a, f, field)
    return result


def random_block(field, n, rng, lead=None):
    """n rows with entries in [0, p) and a nonzero top row (lead if given)."""
    b = rng.integers(0, field.p, size=(n, field.s), dtype=np.int64)
    b[-1] = 0
    b[-1, 0] = rng.integers(1, field.p) if lead is None else lead
    return b


def modulus_degrees(s, rng):
    """Both sides of mod_path's switch for extension degree s, and a random sample."""
    top = max(d for d in range(1, 301) if (d - 1) * d * s * s <= k._DIRECT_WORK)
    return sorted({1, 2, 3, top - 1, top, top + 1, 300} | set(rng.integers(4, 300, size=3).tolist()))


@pytest.mark.parametrize("p", (3, 5, 7, 65521, P_LARGE))
@pytest.mark.parametrize("s", (1, 2))
def test_mulmod_and_powmod_match_former_reduction(p, s):
    field = make_field(p, s)
    rng = np.random.default_rng(p + s)
    paths = set()
    for d in modulus_degrees(s, rng):
        paths.add(k.mod_path(d, field))
        for monic_f in (True, False):
            f = random_block(field, d + 1, rng, lead=1 if monic_f else None)
            red = k.reduction(f, field)
            assert (red is None) == (k.mod_path(d, field) == "divide")
            operands = [
                (random_block(field, d, rng), random_block(field, d, rng)),  # reduced
                (random_block(field, d, rng), random_block(field, 1, rng)),
                (random_block(field, d + 3, rng), random_block(field, 2, rng)),  # not reduced
                (random_block(field, 2 * d + 1, rng), random_block(field, 1, rng)),
            ]
            if p == P_LARGE:
                full = np.full((d, s), p - 1, dtype=np.int64)
                operands.append((full, full))
            for a, b in operands:
                want = former_mulmod(a, b, f, field)
                assert np.array_equal(k.mulmod(a, b, f, field, red), want), (d, monic_f)
                assert np.array_equal(k.mulmod(a, b, f, field), want), (d, monic_f)
            a = operands[0][0]
            for e in (0, 1, 2, p, p + 5):
                got = k.powmod(a, e, f, field, red)
                assert np.array_equal(got, former_powmod(a, e, f, field)), (d, monic_f, e)
    assert paths == {"matrix", "divide"}


def test_reduction_rows_are_the_powers_of_x():
    # row i of R is x^(d+i) mod f, found by the former division
    field = make_field(7, 1)
    rng = np.random.default_rng(7)
    for d in (2, 5, 40):
        f = random_block(field, d + 1, rng)
        red = k.reduction(f, field)
        assert red.shape == (d - 1, d)
        for i in range(d - 1):
            x_power = k.zeros(field, d + i + 1)
            x_power[-1, 0] = 1
            want = k.rem_block(x_power, f, field)[:, 0]
            assert red[i, : want.shape[0]].tolist() == want.tolist() and not red[i, want.shape[0] :].any()


def former_divide_by_constant(a, b, field):
    """divmod_block by a constant b before the scalar path: long or Newton."""
    dq = a.shape[0] - 1
    if dq >= 32 and (dq + 1) * field.s**2 >= k._DIRECT_WORK:
        return k._divmod_reversed(a, b, field)
    p = field.p
    a = a.copy()
    q = k.zeros(field, dq + 1)
    if field.s == 1:
        acol, il = a[:, 0], k.row_inverse(field, b[0])[0]
        for i in range(dq, -1, -1):
            c = acol[i]
            if c:
                c = c * il % p
                q[i, 0] = c
                acol[i : i + 1] = (acol[i : i + 1] - c * b[:, 0]) % p
        return q, k.trim(a[:0])
    inv_m = k.mult_matrix(field, k.row_inverse(field, b[0]))
    for i in range(dq, -1, -1):
        if a[i].any():
            c = inv_m @ a[i] % p
            q[i] = c
            a[i] = (a[i] - b[0] @ k.mult_matrix(field, c).T) % p
    return q, k.trim(a[:0])


@pytest.mark.parametrize("p, s", [(13, 1), (3, 3)])
def test_constant_divisors_match_former_division(p, s):
    field = make_field(p, s)
    switch = -(-k._DIRECT_WORK // (s * s)) - 1  # the former Newton switch
    rng = np.random.default_rng(p * s)
    dividends = [random_block(field, n + 1, rng) for n in (0, 1, 40, switch - 1, switch, switch + 500)]
    for c in field.elements():
        if c.is_zero():
            continue
        b = np.array([c.coeffs], dtype=np.int64)
        for a in dividends:
            assert k.div_path(a.shape[0] - 1, 0, field) == "scalar"
            q, r = k.divmod_block(a, b, field)
            q_ref, r_ref = former_divide_by_constant(a, b, field)
            assert q.shape == q_ref.shape and np.array_equal(q, q_ref), (c.coeffs, a.shape[0])
            assert r.shape == r_ref.shape == (0, s)


def former_squarefree_decomposition(f, field):
    """The former squarefree_decomposition, which made f monic itself."""
    p = field.p
    f = k.monic(f, field)
    if f.shape[0] <= 1:
        return []
    out = {}
    df = k.derivative(f, field)
    if df.shape[0] == 0:
        inner = k.pth_root(f, field)
        for g, m in former_squarefree_decomposition(inner, field):
            out[m * p] = g
        return sorted(((g, m) for m, g in out.items()), key=lambda t: t[1])
    c = k.gcd_block(f, df, field)
    w = k.divmod_block(f, c, field)[0]
    i = 1
    while w.shape[0] > 1:
        y = k.gcd_block(w, c, field)
        z = k.divmod_block(w, y, field)[0]
        if z.shape[0] > 1:
            out[i] = k.monic(z, field)
        w = y
        c = k.divmod_block(c, y, field)[0]
        i += 1
    if c.shape[0] > 1:
        inner = k.pth_root(c, field)
        for g, m in former_squarefree_decomposition(inner, field):
            mp = m * p
            out[mp] = k.mul(out[mp], g, field) if mp in out else g
    return sorted(((g, m) for m, g in out.items()), key=lambda t: t[1])


def former_distinct_degree(f, field):
    p = field.p
    out = []
    x = k.zeros(field, 2)
    x[1, 0] = 1
    h = x.copy()
    j = 0
    f = k.monic(f, field)
    while f.shape[0] - 1 >= 2 * (j + 1):
        j += 1
        h = former_powmod(h, p, f, field)
        g = k.gcd_block(k.sub(h, x, field), f, field)
        if g.shape[0] > 1:
            out.append((g, j))
            f = k.divmod_block(f, g, field)[0]
    if f.shape[0] > 1:
        out.append((f, f.shape[0] - 1))
    return out


def former_equal_degree(f, d, field, rng):
    n = f.shape[0] - 1
    if n == d:
        return [k.monic(f, field)]
    p = field.p
    e = (p**d - 1) // 2
    while True:
        r = k.trim(rng.integers(0, p, size=n, dtype=np.int64).reshape(-1, 1))
        if r.shape[0] == 0:
            continue
        g = former_powmod(r, e, f, field)
        if g.shape[0] == 0:
            continue
        g = g.copy()
        g[0, 0] = (g[0, 0] - 1) % p
        g = k.gcd_block(k.trim(g), f, field)
        if 0 < g.shape[0] - 1 < n:
            other = k.divmod_block(f, g, field)[0]
            return former_equal_degree(g, d, field, rng) + former_equal_degree(other, d, field, rng)


def former_factor(f, field):
    unit = f[-1].copy()
    f = k.monic(f, field)
    if f.shape[0] == 1:
        return unit, []
    rng = np.random.default_rng(field.p * 1000003 + zlib.crc32(f.tobytes()))
    found = []
    for part, mult in former_squarefree_decomposition(f, field):
        for prod, d in former_distinct_degree(part, field):
            for irr in former_equal_degree(prod, d, field, rng):
                found.append((irr, mult))
    found.sort(key=lambda t: (t[0].shape[0], [int(v) for v in t[0][:, 0]]))
    return unit, found


def x_to_the_p(g, field):
    """g(X^p): row i moved to row p*i, a polynomial with zero derivative."""
    out = k.zeros(field, (g.shape[0] - 1) * field.p + 1)
    out[:: field.p] = g
    return out


def repeated_factor_cases(field, rng):
    """Polynomials with repeated factors and with zero derivative, not monic."""

    def poly(n):
        return random_block(field, n + 1, rng)

    def times(*blocks):
        out = blocks[0]
        for b in blocks[1:]:
            out = k.mul(out, b, field)
        return out

    cases = []
    for _ in range(4):
        g1, g2, g3 = poly(rng.integers(1, 4)), poly(rng.integers(1, 4)), poly(rng.integers(1, 3))
        cases += [
            times(g1, g2, g2),  # square factor
            times(g1, g1, g1, g2, g3, g3),  # cube and square
            x_to_the_p(poly(rng.integers(1, 4)), field),  # zero derivative
            times(g1, x_to_the_p(times(g2, g2), field)),  # p-th power of a square
            times(g1, g2, g3),  # square-free with high probability
        ]
    return cases


@pytest.mark.parametrize("p", (3, 5, 7, 13))
def test_squarefree_and_factor_match_former_code(p):
    field = make_field(p, 1)
    rng = np.random.default_rng(p)
    for f in repeated_factor_cases(field, rng):
        want = former_squarefree_decomposition(f, field)
        got = k.squarefree_decomposition(k.monic(f, field), field)
        assert [m for _, m in got] == [m for _, m in want]
        assert all(np.array_equal(g, w) for (g, _), (w, _) in zip(got, want))
        unit, parts = k.factor(f, field)
        unit_ref, parts_ref = former_factor(f, field)
        assert np.array_equal(unit, unit_ref)
        assert [m for _, m in parts] == [m for _, m in parts_ref]
        assert all(np.array_equal(g, w) for (g, _), (w, _) in zip(parts, parts_ref))
        # and the factors multiply back to f
        prod = np.array([unit], dtype=np.int64)
        for g, m in parts:
            for _ in range(m):
                prod = k.mul(prod, g, field)
        assert np.array_equal(prod, f)
