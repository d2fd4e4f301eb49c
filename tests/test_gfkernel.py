"""The dense kernel's products against plain loops over F_{p^s}.

`_gfkernel.mul` packs each block with a row stride of 2s-1 and takes one
convolution, directly or by FFT.  The references here are loops: a
pure-Python schoolbook product, and for the largest shapes the former
kernel's column-by-column convolution, itself checked against the
schoolbook on smaller shapes.  mul_path's FFT rule is checked against
Percival's error bound, computed here in its product form, and at the
largest shape it admits against exact convolution of worst-case operands.
The kernel's other functions are checked
to return normal-form blocks, and its Rabin test against trial division.
"""

import itertools
import math

import numpy as np
import pytest

from hyperquad import _gfkernel as k
from hyperquad.ffield import FieldConstructionError, FieldElement, frobenius, make_field

PRIMES = (3, 7, 13)
DEGREES = (1, 2, 3)
# the largest prime below 2^25, the characteristic bound of make_field
P_LARGE = 33554393


def schoolbook(a, b, field):
    """Product of two blocks by the double loop over rows, in Python ints."""
    p, s = field.p, field.s
    a, b = a.tolist(), b.tolist()
    n = len(a) + len(b) - 1
    raw = [[0] * (2 * s - 1) for _ in range(max(n, 0))]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            row = raw[i + j]
            for ki, xk in enumerate(x):
                if xk:
                    for li, yl in enumerate(y):
                        row[ki + li] += xk * yl
    out = []
    upow = field._upow_matrix.tolist()
    for row in raw:
        coords = [0] * s
        for j, c in enumerate(row):
            for t, r in enumerate(upow[j]):
                coords[t] += c * r
        out.append([c % p for c in coords])
    return k.trim(np.array(out, dtype=np.int64).reshape(-1, s))


def column_loop(a, b, field):
    """The former kernel: one np.convolve per pair of coordinate columns."""
    p, s = field.p, field.s
    n = a.shape[0] + b.shape[0] - 1
    raw = np.zeros((n, 2 * s - 1), dtype=np.int64)
    for i in range(s):
        for j in range(s):
            raw[:, i + j] = (raw[:, i + j] + np.convolve(a[:, i], b[:, j])) % p
    return k.trim(raw @ field._upow_matrix % p)


def mult_matrix_loop(field, c_row):
    """The former triple loop building the matrix of x -> c * x."""
    s, p = field.s, field.p
    red = field._upow_matrix.tolist()
    m = np.zeros((s, s), dtype=np.int64)
    for j in range(s):
        col = [0] * s
        for i, ci in enumerate(c_row):
            if ci:
                row = red[i + j]
                for t in range(s):
                    col[t] = (col[t] + ci * row[t]) % p
        m[:, j] = col
    return m


def blocks(field, la, lb, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, field.p, size=(la, field.s), dtype=np.int64)
    b = rng.integers(0, field.p, size=(lb, field.s), dtype=np.int64)
    # nonzero leading rows, so the product has its full length
    a[-1, 0] = b[-1, 0] = 1
    return a, b


@pytest.fixture
def fft_spy(monkeypatch):
    calls = []
    real = k._fft_raw

    def spy(*args):
        calls.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(k, "_fft_raw", spy)
    return calls


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("s", DEGREES)
@pytest.mark.parametrize(
    "la, lb, fft", [(3, 5, False), (5, 3, False), (3, 20000, False), (300, 300, True)]
)
def test_mul_matches_schoolbook(p, s, la, lb, fft, fft_spy):
    field = make_field(p, s)
    a, b = blocks(field, la, lb, seed=p * 10 + s)
    got = k.mul(a, b, field)
    assert bool(fft_spy) == fft
    assert got.dtype == np.int64
    assert np.array_equal(got, schoolbook(a, b, field))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("s", DEGREES)
def test_mul_large_fft_matches_column_loop(p, s, fft_spy):
    field = make_field(p, s)
    a, b = blocks(field, 2000, 2000, seed=p * 10 + s)
    got = k.mul(a, b, field)
    assert fft_spy == [2000]
    assert np.array_equal(got, column_loop(a, b, field))
    assert got.shape == (3999, s)


@pytest.mark.parametrize("s", DEGREES)
def test_column_loop_matches_schoolbook(s):
    field = make_field(7, s)
    a, b = blocks(field, 40, 70, seed=s)
    assert np.array_equal(column_loop(a, b, field), schoolbook(a, b, field))


@pytest.mark.parametrize("s", DEGREES)
def test_mul_empty_operands(s):
    field = make_field(5, s)
    a, _ = blocks(field, 4, 1, seed=0)
    empty = k.zeros(field, 0)
    for x, y in [(empty, a), (a, empty), (empty, empty)]:
        out = k.mul(x, y, field)
        assert out.shape == (0, s) and out.dtype == np.int64


@pytest.mark.parametrize("s", DEGREES)
@pytest.mark.parametrize("la, lb", [(3, 5), (400, 400)])
def test_mul_untrimmed_operands(s, la, lb):
    field = make_field(7, s)
    a, b = blocks(field, la, lb, seed=s)
    pad_a = np.vstack([a, k.zeros(field, 3)])
    pad_b = np.vstack([b, k.zeros(field, 7)])
    want = k.mul(a, b, field)
    assert np.array_equal(k.mul(pad_a, pad_b, field), want)
    assert np.array_equal(want, schoolbook(a, b, field))
    zero_rows = k.zeros(field, 5)
    assert k.mul(zero_rows, pad_b, field).shape == (0, s)


def test_mul_single_rows_reduce_through_modulus():
    # (u + 1)(u - 1) = u^2 - 1 in F_9 with modulus u^2 + 1 is -2: one row
    field = make_field(3, 2, (1, 0, 1))
    a = np.array([[1, 1]], dtype=np.int64)
    b = np.array([[2, 1]], dtype=np.int64)
    assert k.mul(a, b, field).tolist() == [[1, 0]]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("lx, ly", [(10000, 300), (300, 10000), (5000, 5000), (1, 1)])
def test_conv_chunked_matches_convolve(p, lx, ly):
    rng = np.random.default_rng(lx + ly + p)
    x = rng.integers(0, p, size=lx, dtype=np.int64)
    y = rng.integers(0, p, size=ly, dtype=np.int64)
    assert np.array_equal(k._conv_chunked(x, y, p), np.convolve(x, y) % p)


# the safety factor mul_path keeps below 1/2 on top of Percival's bound
FFT_SAFETY = 10


def percival_bound(la, lb, s, p):
    """Percival's bound on the float64 error of _fft_raw for la x lb rows.

    Theorem 3.3.2 of Brent & Zimmermann, Modern Computer Arithmetic, in its
    product form: a length-2^n transform convolves x and y with error below
    |x||y|((1+e)^3n (1+e sqrt 5)^(3n+1) (1+beta)^3n - 1), here with unit
    roundoff e = 2^-53, twiddle error beta = e, and s column products with
    |x||y| <= (p-1)^2 sqrt(la*lb).
    """
    n = 0
    while 1 << n < la + lb - 1:
        n += 1
    e = 2.0**-53
    logs = 3 * n * math.log1p(e) + (3 * n + 1) * math.log1p(e * math.sqrt(5))
    factor = math.expm1(logs + 3 * n * math.log1p(e))
    return s * (p - 1) ** 2 * math.sqrt(la * lb) * factor


def largest_admitted(field, ratio=1):
    """The largest la for which mul_path(la, ratio*la) is not "exact"."""
    lo, hi = 1, 1 << 40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if k.mul_path(mid, ratio * mid, field) == "exact":
            hi = mid
        else:
            lo = mid
    return lo


@pytest.mark.parametrize("p", (3, 13, 65521, P_LARGE))
@pytest.mark.parametrize("s", DEGREES)
def test_fft_path_stays_inside_percival_bound(p, s):
    field = make_field(p, s)
    shapes = [(2**i, 2**j) for i in range(0, 40, 3) for j in range(i, 40, 3)]
    for ratio in (1, 3, 100):
        la = largest_admitted(field, ratio)
        assert k.mul_path(la + 1, ratio * (la + 1), field) == "exact"
        # the rule is no more than twice as strict as the stated safety
        assert 2 * FFT_SAFETY * percival_bound(la + 1, ratio * (la + 1), s, p) >= 0.5
        shapes += [(la, ratio * la), (la // 2, ratio * la)]
    for la, lb in shapes:
        if k.mul_path(la, lb, field) == "fft":
            assert FFT_SAFETY * percival_bound(la, lb, s, p) < 0.5, (la, lb)


@pytest.mark.parametrize("s", (1, 2))
def test_fft_exact_at_the_largest_admitted_length(s):
    # all entries p - 1 make every coefficient as large as it can be
    p = 65521
    field = make_field(p, s)
    w = 2 * s - 1
    la = largest_admitted(field)
    assert k.mul_path(la, la, field) == "fft"
    a = np.full((la, s), p - 1, dtype=np.int64)
    n = 2 * la - 1
    want = k._conv_chunked(k._pack(a, w), k._pack(a, w), p)[: n * w].reshape(n, w)
    assert np.array_equal(k._fft_raw(a, a, w) % p, want)


@pytest.mark.parametrize("p, s", [(3, 2), (3, 3), (7, 3), (13, 3), (5, 4)])
def test_mult_matrix_matches_loop(p, s):
    field = make_field(p, s)
    rng = np.random.default_rng(p * s)
    rows = [tuple(int(v) for v in rng.integers(0, p, size=s)) for _ in range(40)]
    rows.append((0,) * s)
    for row in rows:
        got = k.mult_matrix(field, row)
        assert np.array_equal(got, mult_matrix_loop(field, row))
        assert np.array_equal(k.mult_matrix(field, np.array(row)), got)
    stack = k.mult_matrix(field, np.array(rows))
    assert stack.shape == (len(rows), s, s)
    for row, m in zip(rows, stack):
        assert np.array_equal(m, mult_matrix_loop(field, row))


def divmod_row_loop(a, b, field):
    """The former long division for s > 1: one mult_matrix per quotient row."""
    p, s = field.p, field.s
    db, da = b.shape[0] - 1, a.shape[0] - 1
    if da < db:
        return np.zeros((0, s), dtype=np.int64), a
    a = a.copy()
    inv_m = mult_matrix_loop(field, field.el(b[db]).inverse().coeffs)
    q = np.zeros((da - db + 1, s), dtype=np.int64)
    for i in range(da, db - 1, -1):
        if a[i].any():
            c = inv_m @ a[i] % p
            q[i - db] = c
            cm = mult_matrix_loop(field, [int(v) for v in c])
            a[i - db : i + 1] = (a[i - db : i + 1] - b @ cm.T) % p
    return q, k.trim(a[:db])


@pytest.mark.parametrize("p, s", [(3, 2), (3, 3), (5, 3), (7, 3)])
def test_divmod_block_matches_row_loop(p, s):
    field = make_field(p, s)
    rng = np.random.default_rng(1000 * p + s)
    for _ in range(60):
        da, db = sorted(int(d) for d in rng.integers(0, 65, size=2))[::-1]
        if rng.random() < 0.2:
            da, db = db, da  # a shorter dividend, returned as the remainder
        a = k.trim(rng.integers(0, p, size=(da + 1, s)))
        b = rng.integers(0, p, size=(db + 1, s))
        b[db, rng.integers(0, s)] = rng.integers(1, p)
        assert k.div_path(da, db, field) == ("scalar" if db == 0 else "long")
        q, r = k.divmod_block(a, b, field)
        q_ref, r_ref = divmod_row_loop(a, b, field)
        assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)
        assert is_normal(q, field) and is_normal(r, field)


@pytest.mark.parametrize("p", (3, 13, 65521, P_LARGE))
def test_prime_field_row_inverse_matches_field_element(p):
    # the s = 1 path inverts the integer directly; every unit of the small
    # fields and a sample of the large ones, as tuples and as block rows
    field = make_field(p, 1)
    if p < 100:
        units = range(1, p)
    else:
        units = [1, 2, p - 1] + [int(v) for v in np.random.default_rng(p).integers(1, p, size=200)]
    for c in units:
        want = FieldElement(field, (c,)).inverse().coeffs
        got = k.row_inverse(field, (c,))
        assert got == want and type(got[0]) is int
        assert k.row_inverse(field, np.array([c], dtype=np.int64)) == want
    for zero in ((0,), np.zeros(1, dtype=np.int64)):
        with pytest.raises(ZeroDivisionError, match="inverse of zero field element"):
            k.row_inverse(field, zero)
    with pytest.raises(ZeroDivisionError, match="inverse of zero field element"):
        FieldElement(field, (0,)).inverse()


@pytest.mark.parametrize("p, s", [(3, 2), (3, 3), (5, 2), (7, 3)])
def test_frobenius_matrix_is_cached_per_field(p, s):
    field = make_field(p, s)
    rng = np.random.default_rng(p + s)
    for t in range(2 * s):
        m = field.frobenius_matrix(t)
        assert field.frobenius_matrix(t) is m
        for _ in range(5):
            c = tuple(int(v) for v in rng.integers(0, p, size=s))
            x = FieldElement(field, c)
            img = x if t % s == 0 else frobenius(x, t)
            assert (m @ np.array(c) % p).tolist() == list(img.coeffs)


@pytest.mark.parametrize("p, s", [(3, 1), (5, 1), (3, 2), (3, 3), (7, 2)])
def test_frobenius_spread_is_the_rth_power(p, s):
    # (sum c_i T^i)^r = sum c_i^r T^(ri) in characteristic p, over any F_q
    field = make_field(p, s)
    rng = np.random.default_rng(10 * p + s)
    for t in (1, 2):
        for n in (0, 1, 2, 7):
            a = k.trim(rng.integers(0, p, size=(n, s), dtype=np.int64))
            power = k.zeros(field, 1)
            power[0, 0] = 1
            for _ in range(p**t):
                power = k.mul(power, a, field)
            assert np.array_equal(k.frobenius_spread(a, t, field), power)


def _monic_modulus(field, d, seed):
    rng = np.random.default_rng(seed)
    f = rng.integers(0, field.p, size=(d + 1, field.s), dtype=np.int64)
    f[-1] = 0
    f[-1, 0] = 1
    return f


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("s", (1, 2))
def test_powmod_matches_repeated_mulmod(p, s):
    field = make_field(p, s)
    d = 3
    f = _monic_modulus(field, d, p * 10 + s)
    a = blocks(field, 5, 1, p + s)[0]
    exponents = {0, 1, 2, p, 2**5, (p**d - 1) // 2}
    want = k.zeros(field, 1)
    want[0, 0] = 1
    want = k.rem_block(want, f, field)
    for e in range(max(exponents) + 1):
        if e in exponents:
            assert np.array_equal(k.powmod(a, e, f, field), want), e
        want = k.mulmod(want, a, f, field)


@pytest.mark.parametrize("e", [1, 2, 3, 7, 8, 13, 64])
def test_powmod_squares_only_below_the_top_bit(e, monkeypatch):
    field = make_field(7, 1)
    f = _monic_modulus(field, 4, 7)
    a = blocks(field, 6, 1, e)[0]
    calls = []
    real = k.mulmod

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(k, "mulmod", counted)
    k.powmod(a, e, f, field)
    assert len(calls) == (e.bit_length() - 1) + bin(e).count("1")


def is_normal(block, field):
    """Entries in [0, p), s columns, and a nonzero top row unless empty."""
    return (
        block.dtype == np.int64
        and block.ndim == 2
        and block.shape[1] == field.s
        and bool(((block >= 0) & (block < field.p)).all())
        and (block.shape[0] == 0 or bool(block[-1].any()))
    )


def normal_block(field, n, seed):
    """A random normal-form block of n rows, with some zero rows inside."""
    rng = np.random.default_rng(seed)
    b = rng.integers(0, field.p, size=(n, field.s), dtype=np.int64)
    b[rng.random(n) < 0.3] = 0
    b[-1] = rng.integers(0, field.p, size=field.s)
    b[-1, 0] = rng.integers(1, field.p)
    return b


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("s", DEGREES)
def test_kernel_returns_normal_form(p, s):
    field = make_field(p, s)
    f = _monic_modulus(field, 4, p * s)
    for seed in range(6):
        a = normal_block(field, 3 + 4 * seed, seed)
        b = normal_block(field, 1 + 2 * seed, seed + 100)
        c = normal_block(field, 1, seed + 200)[0]
        ab = k.mul(a, b, field)
        q, r = k.divmod_block(a, b, field)
        q_ab, r_ab = k.divmod_block(ab, b, field)
        outs = [
            k.add(a, b, field),
            k.add(a, k.neg(a, field), field),
            k.sub(a, b, field),
            k.sub(a, a, field),
            k.neg(a, field),
            ab,
            k.scalar_mul(a, c, field),
            k.scalar_mul(a, k.zeros(field, 1)[0], field),
            q,
            r,
            q_ab,
            r_ab,
            k.gcd_block(a, b, field),
            k.gcd_block(ab, k.mul(a, a, field), field),
            k.monic(a, field),
            k.powmod(a, 2 * p + seed, f, field),
        ]
        for i, out in enumerate(outs):
            assert is_normal(out, field), (seed, i)
        # a = q b + r with deg r < deg b, and b divides ab exactly
        assert r.shape[0] < b.shape[0]
        assert np.array_equal(k.add(k.mul(q, b, field), r, field), a)
        assert np.array_equal(q_ab, a) and r_ab.shape[0] == 0
        assert outs[1].shape[0] == 0 and outs[3].shape[0] == 0


def _monics(field, d):
    """Every monic polynomial of degree d over field, as FieldElement lists."""
    elements = list(field.elements())
    for tail in itertools.product(elements, repeat=d):
        yield list(tail) + [field.one]


def _divides(g, f):
    """Whether the monic g divides f, by schoolbook division on elements."""
    r = list(f)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if not c.is_zero():
            for j in range(dg + 1):
                r[i - dg + j] = r[i - dg + j] - c * g[j]
    return all(x.is_zero() for x in r)


@pytest.mark.parametrize("p, s, max_d", [(3, 1, 4), (5, 1, 3), (3, 2, 2)])
def test_is_irreducible_matches_trial_division(p, s, max_d):
    field = make_field(p, s)
    for d in range(max_d + 1):
        divisors = [g for e in range(1, d // 2 + 1) for g in _monics(field, e)]
        for f in _monics(field, d):
            want = d >= 1 and not any(_divides(g, f) for g in divisors)
            block = np.array([c.coeffs for c in f], dtype=np.int64)
            assert k.is_irreducible(block, field) == want, [c.coeffs for c in f]


@pytest.mark.parametrize("s", (1, 2))
def test_mul_exact_at_the_largest_characteristic(s, fft_spy):
    field = make_field(P_LARGE, s)
    a, b = blocks(field, 300, 300, seed=s)
    assert np.array_equal(k.mul(a, b, field), schoolbook(a, b, field))
    assert fft_spy == []


@pytest.mark.parametrize("s", DEGREES)
def test_direct_path_exact_at_the_largest_characteristic(s):
    field = make_field(P_LARGE, s)
    w = 2 * s - 1
    # the largest square under the work clause, and the widest operand the
    # per-slot clause admits against any length, with every entry p - 1
    for la, lb in [(256 // w, 256 // w), (64 // w, 5000)]:
        assert k.mul_path(la, lb, field) == "direct"
        assert k.mul_path(la + 1, lb + (la == lb), field) != "direct"
        a = np.full((la, s), P_LARGE - 1, dtype=np.int64)
        b = np.full((lb, s), P_LARGE - 1, dtype=np.int64)
        assert np.array_equal(k.mul(a, b, field), schoolbook(a, b, field)), (la, lb)


def test_make_field_rejects_characteristics_from_2_pow_25():
    assert make_field(P_LARGE, 1).p == P_LARGE
    # 33554467 is the first prime above 2^25; 2^31 - 1 overflows int64
    # products; 2^61 - 1 is rejected before a trial-division primality test
    for p in (33554467, 2147483647, 2**61 - 1):
        with pytest.raises(FieldConstructionError):
            make_field(p, 1)


@pytest.mark.parametrize("p, max_d", [(3, 4), (5, 3)])
def test_is_irreducible_makes_at_most_d_powmod_calls(p, max_d, monkeypatch):
    field = make_field(p, 1)
    calls = []
    real = k.powmod

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(k, "powmod", counted)
    for d in range(2, max_d + 1):
        for f in _monics(field, d):
            block = np.array([c.coeffs for c in f], dtype=np.int64)
            calls.clear()
            k.is_irreducible(block, field)
            assert len(calls) <= d, [c.coeffs for c in f]
            has_root = any(
                sum((c * x**i for i, c in enumerate(f)), field.zero).is_zero()
                for x in field.elements()
            )
            if d == 3 and has_root:
                assert len(calls) == 1, [c.coeffs for c in f]


def trim_loop(b):
    """Drop zero top rows one at a time (the reference for trim)."""
    n = b.shape[0]
    while n > 0 and not b[n - 1].any():
        n -= 1
    return b[:n]


@pytest.mark.parametrize("s", DEGREES)
def test_trim_matches_row_loop(s):
    rng = np.random.default_rng(s)
    cases = [np.zeros((0, s), dtype=np.int64), np.zeros((5, s), dtype=np.int64)]
    for n in (1, 2, 7, 40):
        for zero_top in (0, 1, n - 1, n):
            b = rng.integers(0, 3, size=(n, s), dtype=np.int64)
            b[rng.random(n) < 0.4] = 0
            if n - zero_top > 0:
                b[n - zero_top - 1, 0] = 1
            b[n - zero_top :] = 0
            cases.append(b)
    for b in cases:
        got = k.trim(b)
        assert got.shape == trim_loop(b).shape and np.array_equal(got, trim_loop(b))


def divmod_loop(a, b, field):
    """The former divmod_block: long division, one quotient row per step."""
    db, da = b.shape[0] - 1, a.shape[0] - 1
    if da < db:
        return k.zeros(field, 0), a
    p, s = field.p, field.s
    a = a.copy()
    inv_m = k.mult_matrix(field, k.row_inverse(field, b[db]))
    q = k.zeros(field, da - db + 1)
    for i in range(da, db - 1, -1):
        if a[i].any():
            c = inv_m @ a[i] % p
            q[i - db] = c
            a[i - db : i + 1] = (a[i - db : i + 1] - b @ k.mult_matrix(field, c).T) % p
    return q, k.trim(a[:db])


def series_inv_laurent(block, m, field):
    """The former laurent._series_inv_z: Newton inverse padded to m rows."""
    lead = k.row_inverse(field, block[0])
    cur = np.array([lead], dtype=np.int64)
    length = 1
    src = block[:m]
    while length < m:
        length = min(2 * length, m)
        prod = k.mul(src[:length], cur, field)[:length]
        if prod.shape[0] < length:
            prod = np.vstack(
                [prod, np.zeros((length - prod.shape[0], field.s), dtype=np.int64)]
            )
        err = (-prod) % field.p
        err[0, 0] = (err[0, 0] + 2) % field.p
        cur = k.mul(cur, err, field)[:length]
    if cur.shape[0] < m:
        cur = np.vstack([cur, np.zeros((m - cur.shape[0], field.s), dtype=np.int64)])
    return cur[:m]


def division_shapes(s):
    """(dq, db) pairs on every path of div_path for extension degree s.

    dq = 31 | 32 against a long divisor, dq > db, dq = db, and at db = 0
    and 1 the last dq below and the first dq at the work bound 2^16: a
    constant divisor (db = 0) takes the scalar path on both sides, and
    db = 1 switches from long division to Newton there.
    """
    shapes = [(10, 3), (31, 2047), (32, 2047), (1000, 100), (300, 300)]
    for db in (0, 1):
        dq = -(-k._DIRECT_WORK // ((db + 1) * s * s)) - 1
        shapes += [(dq - 1, db), (dq, db)]
    return shapes


@pytest.mark.parametrize("p", PRIMES + (P_LARGE,))
@pytest.mark.parametrize("s", DEGREES)
def test_divmod_matches_row_loop(p, s):
    field = make_field(p, s)
    rng = np.random.default_rng(p + s)
    paths = set()
    for i, (dq, db) in enumerate(division_shapes(s)):
        b = normal_block(field, db + 1, seed=10 * i + s)
        a = normal_block(field, dq + db + 1, seed=10 * i + s + 1)
        # q with zero low rows, so rev(q) loses them to the trim
        q = normal_block(field, dq + 1, seed=10 * i + s + 2)
        q[: rng.integers(1, dq + 1) if dq else 0] = 0
        r = k.trim(rng.integers(0, p, size=(db, s), dtype=np.int64))
        qbr = k.add(k.mul(q, b, field), r, field)
        paths.add(k.div_path(dq + db, db, field))
        for x in (a, qbr):
            got, want = k.divmod_block(x, b, field), divmod_loop(x, b, field)
            for g, w in zip(got, want):
                assert is_normal(g, field) and g.shape == w.shape, (dq, db)
                assert np.array_equal(g, w), (dq, db)
        assert np.array_equal(got[0], q) and np.array_equal(got[1], r)
    assert paths == {"scalar", "long", "newton"}


@pytest.mark.parametrize("p", PRIMES + (P_LARGE,))
@pytest.mark.parametrize("s", DEGREES)
def test_series_inv_matches_former_newton(p, s):
    field = make_field(p, s)
    for n, m in [(1, 1), (1, 9), (5, 3), (40, 40), (7, 200), (600, 513)]:
        block = normal_block(field, n, seed=n + m)[::-1].copy()  # row 0 nonzero
        got = k.series_inv(block, m, field)
        want = series_inv_laurent(block, m, field)
        assert is_normal(got, field)
        assert np.array_equal(got, k.trim(want)), (n, m)
        # block * inverse = 1 mod x^m
        one = k.mul(block, got, field)[:m]
        assert k.trim(one).tolist() == [[1] + [0] * (s - 1)], (n, m)


def test_div_path_and_mul_path_pins():
    f1, f2, f3 = make_field(7, 1), make_field(7, 2), make_field(7, 3)
    assert k.div_path(10, 10, f1) == "long"
    assert k.div_path(31 + 2047, 2047, f1) == "long"  # dq < 32
    assert k.div_path(32 + 2047, 2047, f1) == "newton"
    assert k.div_path(1500 + 25000, 25000, f1) == "newton"  # tower quotient
    assert k.div_path(1 + 25000, 25000, f3) == "long"  # Euclid's usual step
    assert k.div_path(65534, 0, f1) == "scalar" and k.div_path(65535, 0, f1) == "scalar"
    assert k.div_path(0, 0, f3) == "scalar"  # constant by constant
    assert k.div_path(32766 + 1, 1, f1) == "long" and k.div_path(32767 + 1, 1, f1) == "newton"
    assert k.div_path(100 + 200, 200, f1) == "long"  # 101 * 201 < 2^16
    assert k.div_path(100 + 200, 200, f2) == "newton"  # times s^2 = 4
    assert k.div_path(3, 5, f3) == "long"  # no quotient
    assert k.mul_path(3, 5, f1) == "direct"
    assert k.mul_path(3, 20000, f3) == "direct"  # thin: few products per slot
    assert k.mul_path(300, 300, f1) == "fft"
    assert k.mul_path(100, 100, f3) == "fft"
    assert k.mul_path(300, 300, make_field(P_LARGE, 1)) == "exact"
    assert k.mul_path(1, 1, make_field(P_LARGE, 1)) == "direct"
    assert k.mod_path(256, f1) == "matrix" and k.mod_path(257, f1) == "divide"  # 255 * 256 <= 2^16
    assert k.mod_path(128, f2) == "matrix" and k.mod_path(129, f2) == "divide"  # times s^2 = 4
    assert k.mod_path(2, f3) == "matrix" and k.mod_path(1, f3) == "divide"  # x mod f needs no matrix


def test_fft_bound_admits_the_recorded_shapes():
    # the largest FFT products of a seed-1 deep-tower and grid-sweep round,
    # and 2^17 rows as headroom
    assert k.mul_path(25605, 25605, make_field(5, 2)) == "fft"
    assert k.mul_path(3626, 3626, make_field(7, 3)) == "fft"
    assert k.mul_path(1 << 17, 1 << 17, make_field(13, 3)) == "fft"
    assert k.mul_path(20000, 20000, make_field(65521, 1)) == "exact"
