import random

import numpy as np
import pytest

from hyperquad.ffield import FieldElement, f27_preset, frobenius, make_field
from hyperquad.fpoly import Poly
from hyperquad.laurent import LaurentSeries, PrecisionError

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F27 = f27_preset()


def P(field, *coeffs):
    return Poly(field, [field.from_int(c) if isinstance(c, int) else c for c in coeffs])


def known_coefficients(a):
    """(exponent, FieldElement) for each stored nonzero coefficient of a."""
    if a.top is None:
        return
    for j in range(a.block.shape[0]):
        if a.block[j].any():
            yield a.top - j, FieldElement(a.field, tuple(int(v) for v in a.block[j]))


def agrees_with(a, b):
    """Equal coefficients of a and b on the overlap of their known exponent ranges."""
    floors = [f for f in (a.floor, b.floor) if f is not None]
    if floors:
        lo = max(floors)
    else:
        la = a.top - a.block.shape[0] if a.top is not None else 0
        lb = b.top - b.block.shape[0] if b.top is not None else 0
        lo = min(la, lb)
    tops = [x for x in (a.top, b.top) if x is not None]
    hi = max(tops) if tops else lo
    return all(a.coefficient(e) == b.coefficient(e) for e in range(hi, lo, -1))


def random_series(field, rng, top_lo=-3, top_hi=5, depth_lo=3, depth_hi=12, exact=False):
    top = rng.randint(top_lo, top_hi)
    depth = rng.randint(depth_lo, depth_hi)
    pool = list(field.elements())
    rows = [rng.choice(pool).coeffs for _ in range(depth)]
    floor = None if exact else top - depth
    s = LaurentSeries.make(field, top, rows, floor)
    return s


def test_geometric_series():
    inv = LaurentSeries.from_rational(Poly.one(F3), P(F3, -1, 1), floor=-6)
    # 1/(T-1) = T^-1 + T^-2 + ... over F_3
    for e in range(-1, -6, -1):
        assert inv.coefficient(e) == F3.one
    assert inv.top == -1
    assert inv.floor == -6


def test_product_with_inverse_is_one():
    b = LaurentSeries.from_poly(P(F3, -1, 0, 1))
    binv = b.inverse(floor=-12)
    prod = b * binv
    assert prod.coefficient(0) == F3.one
    for e in range(prod.top, max(prod.floor + 1, -9), -1):
        expected = F3.one if e == 0 else F3.zero
        assert prod.coefficient(e) == expected


def test_absolute_value_exponent():
    a = LaurentSeries.make(F3, 2, [(1,), (0,), (2,)], -4)
    assert a.top == 2


def test_add_floor_is_max():
    a = LaurentSeries.make(F3, 3, [(1,)] * 8, -5)
    b = LaurentSeries.make(F3, 1, [(2,)] * 9, -8)
    assert (a + b).floor == -5
    assert (a - b).floor == -5


def test_mul_floor_propagation():
    a = LaurentSeries.make(F3, 2, [(1,)] * 7, -5)
    b = LaurentSeries.make(F3, 3, [(1,)] * 8, -5)
    prod = a * b
    assert prod.floor == max(-5 + 3, -5 + 2)


def test_ultrametric_random():
    rng = random.Random(7)
    for _ in range(60):
        a = random_series(F5, rng)
        b = random_series(F5, rng)
        c = a + b
        if not c.known_nonzero():
            continue
        assert c.top <= max(a.top, b.top)
        if a.top != b.top:
            assert c.top == max(a.top, b.top)


def test_zero_states_distinct():
    exact = LaurentSeries.zero(F3)
    fuzzy = LaurentSeries.zero(F3, floor=-4)
    assert exact.is_exact_zero()
    assert fuzzy.is_zero_at_precision()
    assert not fuzzy.is_exact_zero()
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.from_poly(Poly.one(F3)) / exact
    with pytest.raises(PrecisionError):
        LaurentSeries.from_poly(Poly.one(F3)) / fuzzy


def test_cancellation_loses_leading_terms():
    a = LaurentSeries.make(F3, 2, [(1,), (1,)], -3)
    b = LaurentSeries.make(F3, 2, [(1,), (2,)], -3)
    d = a - b
    assert d.top == 1
    full = a - a
    assert full.is_zero_at_precision()
    assert full.floor == -3


def test_frobenius_pow_examples():
    a = LaurentSeries.make(F3, 1, [(1,), (0,), (1,)], None)  # T + T^-1, exact
    cube = a.frobenius_pow(3)
    assert cube.coefficient(3) == F3.one
    assert cube.coefficient(-3) == F3.one
    for e in (2, 1, 0, -1, -2):
        assert cube.coefficient(e) == F3.zero
    c = LaurentSeries.from_poly(P(F3, 2))
    assert c.frobenius_pow(3).coefficient(0) == F3.from_int(2)


def test_frobenius_pow_floor_scaling():
    a = LaurentSeries.make(F3, 0, [(1,)] * 5, -5)
    assert a.frobenius_pow(3).floor == -15
    with pytest.raises(ValueError):
        a.frobenius_pow(5)
    with pytest.raises(ValueError):
        a.frobenius_pow(1)


@pytest.mark.parametrize("field,r", [(F3, 3), (F3, 9), (F5, 5)])
def test_frobenius_matches_repeated_multiplication(field, r):
    rng = random.Random(100 + r)
    for _ in range(20):
        a = random_series(field, rng)
        direct = a.frobenius_pow(r)
        power = a
        for _ in range(r - 1):
            power = power * a
        assert agrees_with(direct, power)


def test_frobenius_on_extension_field():
    rng = random.Random(5)
    for _ in range(10):
        a = random_series(F27, rng)
        cube = a.frobenius_pow(3)
        for e, c in known_coefficients(a):
            if 3 * e > cube.floor:
                assert cube.coefficient(3 * e) == frobenius(c, 1)


def naive_mul(a, b):
    """Schoolbook product via FieldElement arithmetic, for kernel validation."""
    field = a.field
    terms = {}
    for ea, ca in known_coefficients(a):
        for eb, cb in known_coefficients(b):
            e = ea + eb
            terms[e] = terms.get(e, field.zero) + ca * cb
    floors = [f for f in (None if a.floor is None else a.floor + b.top,
                          None if b.floor is None else b.floor + a.top)
              if f is not None]
    floor = max(floors) if floors else None
    out = LaurentSeries.zero(field, floor)
    for e, c in terms.items():
        if floor is not None and e <= floor:
            continue
        out = out + LaurentSeries.monomial(field, e, c)
    return out.truncated(floor) if floor is not None else out


@pytest.mark.parametrize("field", [F3, F27, make_field(5, 2)])
def test_block_multiplication_matches_naive(field):
    rng = random.Random(id(field) % 10000)
    for _ in range(12):
        a = random_series(field, rng)
        b = random_series(field, rng)
        if not (a.known_nonzero() and b.known_nonzero()):
            continue
        prod = a * b
        ref = naive_mul(a, b)
        assert agrees_with(prod, ref)
        assert prod.floor == ref.floor


@pytest.mark.parametrize("field", [F3, F27])
def test_inverse_round_trip(field):
    rng = random.Random(21)
    for _ in range(12):
        a = random_series(field, rng, depth_lo=4)
        if not a.known_nonzero():
            continue
        inv = a.inverse()
        prod = a * inv
        assert prod.coefficient(0) == field.one
        for e in range(-1, prod.floor, -1):
            assert prod.coefficient(e) == field.zero


def test_exact_division():
    # an exact multi-term divisor has no exact inverse, whatever the dividend
    a = LaurentSeries.from_poly(P(F3, -1, 0, 1))
    b = LaurentSeries.from_poly(P(F3, 1, 1))
    for num, den in ((a, b), (b, a)):
        with pytest.raises(PrecisionError, match="needs a precision floor"):
            _ = num / den
    q = a.truncated(-6) / b
    assert agrees_with(q, LaurentSeries.from_poly(P(F3, -1, 1)))
    assert q.floor == -7


def test_exact_division_with_shift():
    num = LaurentSeries.from_poly(P(F3, 0, 0, 1, 1))  # T^3 + T^2
    den = LaurentSeries.from_poly(P(F3, 0, 1))  # T
    q = num / den
    assert q.floor is None
    assert q == LaurentSeries.from_poly(P(F3, 0, 1, 1))
    with pytest.raises(PrecisionError, match="needs a precision floor"):
        _ = den / num


def test_monomial_inverse_stays_exact():
    m = LaurentSeries.monomial(F3, 4, F3.from_int(2))
    inv = m.inverse()
    assert inv.floor is None
    assert inv.top == -4
    assert inv.coefficient(-4) == F3.from_int(2)  # 2 is its own inverse mod 3


def test_truncated_weakens_only():
    a = LaurentSeries.make(F3, 2, [(1,)] * 6, -4)
    t = a.truncated(-2)
    assert t.floor == -2
    with pytest.raises(PrecisionError):
        a.truncated(-9)


def test_deep_inverse_uses_fft_sizes():
    # long enough to cross the kernel's FFT cutoff
    b = LaurentSeries.from_poly(P(F5, 1, 3, 0, 1))
    inv = b.inverse(floor=-9000)
    prod = (b * inv).truncated(-8990)
    assert prod.coefficient(0) == F5.one
    for e in range(-1, -8990, -1):
        assert prod.coefficient(e) == F5.zero


def _make_by_row_loops(field, top, block, floor):
    """LaurentSeries.make's former row-by-row normalization, kept as a reference."""
    block = np.asarray(block, dtype=np.int64) % field.p
    if floor is not None and top is not None:
        keep = top - floor
        if keep <= 0:
            return None, np.zeros((0, field.s), dtype=np.int64), floor
        if block.shape[0] > keep:
            block = block[:keep]
        elif block.shape[0] < keep:
            pad = np.zeros((keep - block.shape[0], field.s), dtype=np.int64)
            block = np.vstack([block, pad])
    lead = 0
    while lead < block.shape[0] and not block[lead].any():
        lead += 1
    if lead:
        block = block[lead:]
        top = top - lead
    if block.shape[0] == 0 or not block.any():
        return None, np.zeros((0, field.s), dtype=np.int64), floor
    if floor is None:
        n = block.shape[0]
        while n > 0 and not block[n - 1].any():
            n -= 1
        block = block[:n]
    return top, block, floor


@pytest.mark.parametrize("field", [F3, F27], ids=["F3", "F27"])
def test_make_matches_row_loops(field):
    rng = random.Random(29)
    s = field.s
    zero_row, one_row = [0] * s, [1] + [0] * (s - 1)

    def rand_row():
        return [rng.randrange(field.p) for _ in range(s)]

    cases = [
        (2, [zero_row] * 3, None),  # all zero, exact
        (2, [zero_row] * 3, -4),  # all zero, truncated
        (0, np.zeros((0, s), dtype=np.int64), None),  # no rows
        (3, [zero_row, zero_row, one_row, rand_row()], None),  # leading zeros
        (1, [one_row, rand_row(), zero_row, zero_row], None),  # trailing zeros
        (1, [zero_row, one_row, zero_row, zero_row], None),  # both ends
        (1, [zero_row, one_row, zero_row, zero_row], -5),  # truncated, padded
        (4, [one_row, zero_row] * 4, 1),  # truncated, cut
        (0, [one_row], 0),  # nothing known above the floor
    ]
    for _ in range(40):
        rows = [rng.choice([zero_row, rand_row()]) for _ in range(rng.randint(0, 8))]
        top = rng.randint(-3, 4)
        floor = rng.choice([None, top - rng.randint(-1, 10)])
        cases.append((top, np.array(rows, dtype=np.int64).reshape(-1, s), floor))
    for top, rows, floor in cases:
        got = LaurentSeries.make(field, top, rows, floor)
        want_top, want_block, want_floor = _make_by_row_loops(field, top, rows, floor)
        assert (got.top, got.floor) == (want_top, want_floor)
        assert np.array_equal(got.block, want_block)
        assert got.block.shape == (want_block.shape[0], s)
