import random

import numpy as np
import pytest

from hyperquad import exactq
from hyperquad.contfrac import (
    UndefinedBracketError,
    eval_finite_constants,
    expand_rational,
    expand_series,
    predicted_record,
)
from hyperquad.ffield import f27_preset, make_field
from hyperquad.fpoly import Poly, format_poly
from hyperquad.laurent import LaurentSeries

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F27 = f27_preset()
F9 = make_field(3, 2)


def test_expand_rational_eq1_level1():
    rec = expand_rational(Poly(F3, [-1, 0, 1]), Poly(F3, [0, 1]))
    assert [format_poly(q) for q in rec.quotients] == ["T", "-T"]
    assert rec.verify_determinants()
    assert rec.provenance == "rational"


def _reduced_seed(k, p):
    """P_k = (T^2 - 1)^k and Q_k over F_p from the exact constants, and v mod p."""
    F = make_field(p, 1)
    den = [0] * (2 * k)
    for i, bi in enumerate(exactq.q_coefficients_rational(k)):
        den[2 * i + 1] = exactq.reduce_mod(bi, p)
    v = [F.from_int(exactq.reduce_mod(vi, p)) for vi in exactq.v_sequence_rational(k)]
    return Poly(F, [-1, 0, 1]) ** k, Poly(F, den), v


def test_expand_rational_eq1_level2():
    # v = (3, 1/3, -3/4, -4/3) = (-2, 2, -2, 2) mod 5
    num, den, _ = _reduced_seed(2, 5)
    assert num == Poly(F5, [1, 0, -2, 0, 1]) and den == Poly(F5, [0, -1, 0, 2])
    rec = expand_rational(num, den)
    assert [format_poly(q) for q in rec.quotients] == ["-2*T", "2*T", "-2*T", "2*T"]
    assert rec.verify_determinants()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_expand_rational_general_level(k):
    # the least odd prime p with k <= (p - 1)/2, so every constant is a unit
    p = {1: 3, 2: 5, 3: 7, 4: 11, 5: 11}[k]
    num, den, v = _reduced_seed(k, p)
    rec = expand_rational(num, den)
    assert rec.quotients == [Poly.monomial(num.field, 1, vi) for vi in v]
    assert rec.verify_determinants()


def test_expand_rational_polynomial_input():
    p = Poly(F5, [2, 0, 3])
    rec = expand_rational(p, Poly.one(F5))
    assert rec.quotients == [p]
    assert rec.confirmed == 1


def test_last_convergent_reproduces_input():
    rng = random.Random(3)
    for field in (F3, F5):
        for _ in range(25):
            num = Poly(field, [rng.randrange(field.p) for _ in range(rng.randint(1, 7))])
            den = Poly(field, [rng.randrange(field.p) for _ in range(rng.randint(1, 7))])
            if den.is_zero() or num.is_zero():
                continue
            rec = expand_rational(num, den)
            x, y = rec.numerators[len(rec)], rec.denominators[len(rec)]
            assert x * den == y * num
            assert rec.verify_determinants()


def test_expand_series_matches_rational_mod3():
    alpha = LaurentSeries.from_rational(Poly(F3, [-1, 0, 1]), Poly(F3, [0, 1]), floor=-8)
    rec = expand_series(alpha, 5)
    assert rec.status == "rational"
    assert [format_poly(q) for q in rec.quotients] == ["T", "-T"]


def test_expand_series_empty():
    alpha = LaurentSeries.from_rational(Poly.one(F3), Poly(F3, [-1, 1]), floor=-6)
    rec = expand_series(alpha, 0)
    assert len(rec) == 0
    assert rec.status == "complete"


def test_expand_series_agreement_with_euclid_random():
    rng = random.Random(11)
    for field in (F3, F5):
        for _ in range(30):
            num = Poly(field, [rng.randrange(field.p) for _ in range(rng.randint(1, 6))])
            den = Poly(field, [rng.randrange(field.p) for _ in range(rng.randint(1, 6))])
            if den.is_zero():
                continue
            direct = expand_rational(num, den)
            if num.is_zero():
                continue
            alpha = LaurentSeries.from_rational(num, den, floor=-64)
            rec = expand_series(alpha, len(direct))
            n = min(len(rec), len(direct))
            assert rec.quotients[:n] == direct.quotients[:n]
            # with a floor this deep every small Euclid step is confirmed
            assert n == len(direct)


def test_expand_series_precision_exhaustion():
    alpha = LaurentSeries.make(F3, 1, [(1,), (1,), (2,), (1,)], -3)
    rec = expand_series(alpha, 10)
    assert rec.status == "precision-exhausted"
    assert rec.confirmed == len(rec.quotients)
    assert rec.confirmed < 10
    deep = LaurentSeries.make(F3, 1, [(1,)], 0)
    rec0 = expand_series(deep, 3)
    assert rec0.confirmed == 0
    assert rec0.status == "precision-exhausted"


def test_expand_series_exact_polynomial():
    alpha = LaurentSeries.from_poly(Poly(F3, [1, 2, 1]))
    rec = expand_series(alpha, 4)
    assert rec.status == "rational"
    assert rec.quotients == [Poly(F3, [1, 2, 1])]


def test_degree_accounting():
    rng = random.Random(17)
    num = Poly(F5, [rng.randrange(5) for _ in range(9)] + [1])
    den = Poly(F5, [rng.randrange(5) for _ in range(6)] + [1])
    rec = expand_rational(num, den)
    total = 0
    for i in range(2, len(rec) + 1):
        total += rec.quotients[i - 1].degree()
        assert rec.denominators[i].degree() == total


def test_predicted_record_continuants():
    quotients = [Poly(F3, [0, 1]), Poly(F3, [0, 2]), Poly(F3, [1, 1])]
    rec = predicted_record(F3, quotients)
    assert rec.provenance == "predicted"
    assert rec.verify_determinants()
    assert rec.numerators[1] == quotients[0]
    assert rec.denominators[1] == Poly.one(F3)
    x2 = quotients[1] * rec.numerators[1] + rec.numerators[0]
    assert rec.numerators[2] == x2


def test_eval_finite_constants_basic():
    lam = F27.u ** 5
    assert eval_finite_constants([lam]) == lam
    # [a, b] = a + 1/b
    a, b = F3.from_int(1), F3.from_int(2)
    assert eval_finite_constants([a, b]) == a + b.inverse()


def test_eval_finite_constants_corollary_delta1():
    # level k=1 over the 27-element field: 2k*theta = -1, lambda_1 = 1, eps_2 = u^3
    u = F27.u
    two_k_theta = -F27.one
    lam1_cubed = F27.one
    bracket = eval_finite_constants([lam1_cubed, two_k_theta * (u ** 3).inverse()])
    delta1 = two_k_theta * bracket
    assert delta1 == u ** 4
    assert delta1 == -F27.one + u ** 3


def test_eval_finite_constants_zero_suffix():
    with pytest.raises(UndefinedBracketError):
        eval_finite_constants([F3.one, F3.zero])
    with pytest.raises(UndefinedBracketError):
        # suffix [-1, 1] evaluates to -1 + 1/1 = 0
        eval_finite_constants([F3.one, -F3.one, F3.one])
    # a zero total value is fine when no suffix vanishes
    val = eval_finite_constants([-F3.one, F3.one])
    assert val.is_zero()


def test_tail_shape():
    rec = expand_rational(Poly(F3, [1, 0, 0, 1]), Poly(F3, [2, 1]))
    assert all(q.degree() >= 1 for q in rec.quotients[1:])


def test_json_shape():
    rec = expand_rational(Poly(F3, [-1, 0, 1]), Poly(F3, [0, 1]))
    d = rec.to_json_dict()
    assert set(d) == {"quotients", "provenance", "confirmed", "status"}
    assert d["quotients"] == ["T", "-T"]


# -- continuants derived on demand ---------------------------------------------


def _eager_continuants(field, quotients):
    """The former eager recursion, kept as a reference: x, y from index 0."""
    xs, ys = [Poly.one(field)], [Poly.zero(field)]
    for n, a in enumerate(quotients):
        if n == 0:
            xs.append(a)
            ys.append(Poly.one(field))
        else:
            xs.append(a * xs[-1] + xs[-2])
            ys.append(a * ys[-1] + ys[-2])
    return xs, ys


def _random_poly(field, rng, length):
    pool = list(field.elements())
    return Poly(field, [rng.choice(pool) for _ in range(length)])


def _random_truncated(field, rng):
    top = rng.randint(-2, 3)
    depth = rng.randint(1, 20)
    pool = [c.coeffs for c in field.elements()]
    rows = [field.one.coeffs] + [rng.choice(pool) for _ in range(depth - 1)]
    return LaurentSeries.make(field, top, rows, top - depth)


@pytest.mark.parametrize("field", [F3, F5, F9], ids=["F3", "F5", "F9"])
def test_derived_continuants_match_eager_recursion(field):
    rng = random.Random(field.p * 10 + field.s)
    records = [predicted_record(field, [])]
    for _ in range(15):
        num = _random_poly(field, rng, rng.randint(1, 8))
        den = _random_poly(field, rng, rng.randint(1, 6))
        if den.is_zero():
            continue
        records.append(expand_rational(num, den))
        records.append(expand_series(LaurentSeries.from_rational(num, den, floor=-10), 6))
        records.append(expand_series(_random_truncated(field, rng), 8))
        records.append(
            predicted_record(field, [_random_poly(field, rng, 3) for _ in range(5)])
        )
    for rec in records:
        xs, ys = _eager_continuants(field, rec.quotients)
        assert rec.numerators == xs
        assert rec.denominators == ys
        # derived once and cached
        assert rec.numerators is rec.numerators
        assert rec.denominators is rec.denominators


def test_records_hold_no_continuants_until_read():
    rec = predicted_record(F3, [Poly(F3, [0, 1]), Poly(F3, [1, 1])])
    assert "_continuants" not in vars(rec)
    rec.to_json_dict()
    assert "_continuants" not in vars(rec)
    assert len(rec.numerators) == 3
    assert "_continuants" in vars(rec)


def test_engines_make_no_polynomial_products(monkeypatch):
    truncated = LaurentSeries.from_rational(
        Poly(F5, [1, 2, 0, 3, 1]), Poly(F5, [2, 0, 1]), floor=-9
    )
    # T^2 + T^-1 + 2 T^-3: an exact Laurent polynomial with several quotients
    exact = LaurentSeries.make(F3, 2, [(1,), (0,), (0,), (1,), (0,), (2,)], None)
    cases = [
        (truncated, 10),
        (_random_truncated(F9, random.Random(5)), 8),
        (exact, 10),
        (exact, 2),
        (LaurentSeries.zero(F3), 3),
        (truncated, 0),
    ]
    quotients = [Poly(F5, [0, 1]), Poly(F5, [2, 3]), Poly(F5, [1, 0, 4])]

    def outcome(rec):
        return rec.quotients, rec.confirmed, rec.status

    want = [outcome(expand_series(alpha, n)) for alpha, n in cases]
    want_pred = outcome(predicted_record(F5, quotients))
    assert len(want[0][0]) > 1 and len(want[2][0]) > 1

    def no_products(self, other):
        raise AssertionError("Poly product on an expansion path")

    monkeypatch.setattr(Poly, "__mul__", no_products)
    assert [outcome(expand_series(alpha, n)) for alpha, n in cases] == want
    assert outcome(predicted_record(F5, quotients)) == want_pred


def _eager_expand_series(alpha, n_max):
    """quotients, confirmed and status by the former rule on eager y_n degrees."""
    field, floor = alpha.field, alpha.floor
    m = alpha.block.shape[0]
    nb = np.zeros((alpha.top - floor + 1, field.s), dtype=np.int64)
    nb[alpha.top - floor - m + 1 :] = alpha.block[::-1]
    n, d = Poly.from_block(field, nb), Poly.monomial(field, -floor)
    quotients = []
    while len(quotients) < n_max and not d.is_zero():
        q, r = divmod(n, d)
        quotients.append(q)
        n, d = d, r
    _, ys = _eager_continuants(field, quotients)
    confirmed = 0
    while confirmed < len(quotients) and 2 * ys[confirmed + 1].degree() < -floor:
        confirmed += 1
    if confirmed < len(quotients):
        return quotients[:confirmed], confirmed, "precision-exhausted"
    return quotients, confirmed, "rational" if d.is_zero() else "complete"


@pytest.mark.parametrize("field", [F3, F5, F9], ids=["F3", "F5", "F9"])
def test_confirmed_matches_eager_degree_rule(field):
    rng = random.Random(41 + field.p * field.s)
    statuses = []
    for _ in range(60):
        alpha = _random_truncated(field, rng)
        if rng.random() < 0.3:
            num = _random_poly(field, rng, rng.randint(1, 6))
            den = _random_poly(field, rng, rng.randint(2, 4))
            if num.is_zero() or den.degree() < 1:
                continue
            alpha = LaurentSeries.from_rational(num, den, floor=-rng.randint(4, 16))
        n_max = rng.randint(1, 12)
        rec = expand_series(alpha, n_max)
        assert (rec.quotients, rec.confirmed, rec.status) == _eager_expand_series(
            alpha, n_max
        )
        statuses.append(rec.status)
    assert {"precision-exhausted", "complete"} <= set(statuses)
