"""Tests for equation building and direct fixed-point expansion."""

import random
import time

import pytest

from hyperquad import contfrac, hyper, perfect
from hyperquad.ffield import f27_preset, make_field
from hyperquad.fpoly import Poly
from hyperquad.hyper import (
    AlgebraicEquation,
    ConvergenceError,
    TypeSpec,
    build_equation,
    check_root,
    expand_alpha,
    _head_continuants,
    _iterate,
    _seed_polys,
)
from hyperquad.laurent import LaurentSeries


def corollary_spec():
    F = f27_preset()
    u = F.u
    return TypeSpec(field=F, t=1, k=1, lambdas=(F.one,), eps1=-(u**6), eps2=u**3)


def deep_alpha(spec, floor):
    return _iterate(build_equation(spec), spec.lambdas[0], floor)


def test_typespec_rejects_bad_data():
    F = f27_preset()
    u = F.u
    with pytest.raises(ValueError):
        TypeSpec(field=F, t=1, k=2, lambdas=(F.one,), eps1=u, eps2=u)
    with pytest.raises(ValueError):
        TypeSpec(field=F, t=1, k=1, lambdas=(), eps1=u, eps2=u)
    with pytest.raises(ValueError):
        TypeSpec(field=F, t=1, k=1, lambdas=(F.zero,), eps1=u, eps2=u)
    other = make_field(3, 2)
    with pytest.raises(ValueError):
        TypeSpec(field=F, t=1, k=1, lambdas=(F.one,), eps1=other.u, eps2=u)


def test_worked_equation_matches_known_form():
    spec = corollary_spec()
    F, u = spec.field, spec.field.u
    eq = build_equation(spec)
    assert eq.lead == Poly.one(F)
    assert eq.second == Poly.monomial(F, 1, -F.one)
    assert eq.linear == Poly.monomial(F, 1, -(u**3))
    assert eq.constant == Poly(F, [-(u**6), F.zero, u])
    # with a monic head continuant the normalized form is the same object
    norm = eq.normalized()
    assert norm.lead == eq.lead and norm.constant == eq.constant


def test_generic_single_head_equation():
    F = make_field(5, 1)
    lam = F.from_int(2)
    spec = TypeSpec(field=F, t=1, k=2, lambdas=(lam,), eps1=F.from_int(3), eps2=F.one)
    eq = build_equation(spec)
    assert eq.lead == Poly.one(F)
    assert eq.second == Poly.monomial(F, 1, -lam)
    # with y_0 = 0 the linear term collapses to -eps2*Qk
    Pk, Qk = _seed_polys(spec)
    assert eq.linear == -Qk
    assert eq.constant == Pk.scaled(-F.from_int(3)) + Qk.scaled(lam).shifted(1)


def test_worked_expansion_first_quotients():
    spec = corollary_spec()
    F, u = spec.field, spec.field.u
    rec = expand_alpha(spec, 5)
    want = [F.one, u**7, u**2, u**11, -u]
    assert rec.quotients == [Poly.monomial(F, 1, c) for c in want]
    assert rec.provenance == "direct"
    assert rec.verify_determinants()


def test_expansion_head_and_leading_degree():
    F9 = make_field(3, 2)
    u = F9.u
    spec = TypeSpec(field=F9, t=1, k=1, lambdas=(u, F9.one, -u), eps1=u, eps2=-F9.one)
    rec = expand_alpha(spec, 9)
    head = [Poly.monomial(F9, 1, c) for c in spec.lambdas]
    assert rec.quotients[:3] == head
    assert rec.quotients[0].degree() == 1
    assert rec.verify_determinants()
    short = expand_alpha(spec, 3)
    assert short.quotients == head


def test_expansion_deterministic():
    spec = corollary_spec()
    a = expand_alpha(spec, 8)
    b = expand_alpha(spec, 8)
    assert a.quotients == b.quotients
    assert a.to_json_dict() == b.to_json_dict()


def test_functional_equation_from_record():
    spec = corollary_spec()
    F, r, l = spec.field, spec.r, spec.l
    rec = expand_alpha(spec, 14)
    alpha = deep_alpha(spec, -260)
    tail = contfrac.predicted_record(F, rec.quotients[l:])
    xm, ym = tail.convergent(len(tail))
    approx = LaurentSeries.from_rational(xm, ym, floor=-(2 * ym.degree() - 1))
    Pk, Qk = _seed_polys(spec)
    res = (
        alpha.frobenius_pow(r)
        - LaurentSeries.from_poly(Pk.scaled(spec.eps1)) * approx
        - LaurentSeries.from_poly(Qk.scaled(spec.eps2))
    )
    assert not res.known_nonzero()


def test_check_root_accepts_iterate():
    spec = corollary_spec()
    alpha = deep_alpha(spec, -300)
    assert alpha.floor <= -300
    result = check_root(spec, alpha)
    assert result.ok
    assert result.leading_exponent is None


def test_check_root_rejects_mutation():
    spec = corollary_spec()
    F = spec.field
    alpha = deep_alpha(spec, -120)
    bad = alpha + LaurentSeries.monomial(F, -37, F.u)
    result = check_root(spec, bad)
    assert not result.ok
    assert result.leading_exponent is not None


def test_check_root_rejects_plain_t():
    spec = corollary_spec()
    F = spec.field
    t_series = LaurentSeries.from_poly(Poly.monomial(F, 1))
    assert not check_root(spec, t_series).ok


def test_bigger_frobenius_power():
    # r = 9 over the prime field, top admissible level
    F = make_field(3, 1)
    spec = TypeSpec(
        field=F, t=2, k=4, lambdas=(F.one, F.from_int(2)), eps1=F.one, eps2=F.one
    )
    rec = expand_alpha(spec, 6)
    assert len(rec) == 6
    assert rec.quotients[0] == Poly.monomial(F, 1)
    assert rec.verify_determinants()
    alpha = deep_alpha(spec, -150)
    assert check_root(spec, alpha).ok


# -- the equation form against the former relation form ----------------------


def _relation_iterate(spec, target_floor):
    """Reference: the former loop on the defining relation itself.

    Start from [head, T] expanded to floor -1, then per round divide
    alpha^r - eps2 Qk by eps1 Pk and push the quotient z through the
    head's Moebius map (x_l z + x_{l-1})/(y_l z + y_{l-1}).
    """
    field, r, l = spec.field, spec.r, spec.l
    series = LaurentSeries.from_poly
    Pk, Qk = _seed_polys(spec)
    xs, ys = _head_continuants(spec)
    e1P, e2Q = series(Pk.scaled(spec.eps1)), series(Qk.scaled(spec.eps2))
    z0 = Poly.monomial(field, 1)
    alpha = LaurentSeries.from_rational(
        xs[l] * z0 + xs[l - 1], ys[l] * z0 + ys[l - 1], floor=-1
    )
    for _ in range(hyper._MAX_ROUNDS):
        if alpha.floor <= target_floor:
            return alpha
        slack = (target_floor + r - 1) // r
        if alpha.floor < slack:
            alpha = alpha.truncated(slack)
        z = (alpha.frobenius_pow(r) - e2Q) / e1P
        nxt = (series(xs[l]) * z + series(xs[l - 1])) / (
            series(ys[l]) * z + series(ys[l - 1])
        )
        assert nxt.floor < alpha.floor
        alpha = nxt
    raise AssertionError("reference iteration did not converge")


def _relation_expand(monkeypatch, spec, n_max):
    """expand_alpha with the reference loop in place of _iterate; (record, loops)."""
    floors = []

    def reference(eq, lam1, target_floor):
        floors.append(target_floor)
        return _relation_iterate(spec, target_floor)

    with monkeypatch.context() as m:
        m.setattr(hyper, "_iterate", reference)
        rec = expand_alpha(spec, n_max)
    return rec, len(floors)


def _random_spec(rng, p, s, t, k, l):
    F = make_field(p, s)
    units = list(F.nonzero_elements())
    return TypeSpec(
        field=F,
        t=t,
        k=k,
        lambdas=tuple(rng.choice(units) for _ in range(l)),
        eps1=rng.choice(units),
        eps2=rng.choice(units),
    )


@pytest.mark.parametrize(
    "p,s,t,k",
    [
        (3, 3, 1, 1),
        (5, 1, 1, 2),
        (5, 2, 1, 1),
        (7, 1, 1, 3),
        (3, 1, 2, 4),
        (3, 2, 2, 1),
        (7, 1, 2, 1),
        (5, 1, 2, 7),
    ],
)
def test_iterate_equals_relation_form(p, s, t, k):
    rng = random.Random(1000 * p + 100 * s + 10 * t + k)
    for l in (1, 2, 3):
        spec = _random_spec(rng, p, s, t, k, l)
        eq = build_equation(spec)
        for floor in (-40, -150, -600):
            want = _relation_iterate(spec, floor)
            got = _iterate(eq, spec.lambdas[0], floor)
            assert got == want, (spec.describe(), floor)


def test_start_is_the_head_at_floor_minus_one():
    rng = random.Random(5)
    for p, s, t, k in ((3, 2, 1, 1), (5, 1, 1, 2), (3, 1, 2, 4)):
        for l in (1, 2, 3):
            spec = _random_spec(rng, p, s, t, k, l)
            start = _iterate(build_equation(spec), spec.lambdas[0], -1)
            assert start == _relation_iterate(spec, -1)
            assert start == LaurentSeries.monomial(
                spec.field, 1, spec.lambdas[0], floor=-1
            )


def _retry_spec():
    """A target whose first precision guess falls short, so it is retried."""
    F = make_field(3, 1)
    return TypeSpec(field=F, t=1, k=1, lambdas=(F.one, F.one), eps1=F.one, eps2=F.one)


def _head3_spec():
    F9 = make_field(3, 2)
    u = F9.u
    return TypeSpec(field=F9, t=1, k=1, lambdas=(u, F9.one, -u), eps1=u, eps2=-F9.one)


@pytest.mark.parametrize(
    "make_spec,n_max,retried",
    [(corollary_spec, 600, False), (_head3_spec, 40, False), (_retry_spec, 12, True)],
    ids=["corollary-c-600", "head-3", "retry"],
)
def test_expand_alpha_equals_relation_form(monkeypatch, make_spec, n_max, retried):
    spec = make_spec()
    want, loops = _relation_expand(monkeypatch, spec, n_max)
    assert (loops > 1) == retried
    got = expand_alpha(spec, n_max)
    assert got.quotients == want.quotients
    assert got.to_json_dict() == want.to_json_dict()


def test_one_series_division_per_round(monkeypatch):
    counts = {"inverse": 0, "rounds": 0}
    inverse, frob = LaurentSeries.inverse, LaurentSeries.frobenius_pow

    def counted_inverse(self, floor=None):
        counts["inverse"] += 1
        return inverse(self, floor)

    def counted_frob(self, r):
        counts["rounds"] += 1
        return frob(self, r)

    monkeypatch.setattr(LaurentSeries, "inverse", counted_inverse)
    monkeypatch.setattr(LaurentSeries, "frobenius_pow", counted_frob)
    for spec in (corollary_spec(), _retry_spec()):
        eq = build_equation(spec)
        counts.update(inverse=0, rounds=0)
        _iterate(eq, spec.lambdas[0], -1)
        assert counts == {"inverse": 0, "rounds": 0}
        _iterate(eq, spec.lambdas[0], -300)
        assert counts["rounds"] > 1
        assert counts["inverse"] == counts["rounds"]
        counts.update(inverse=0, rounds=0)
        expand_alpha(spec, 12)
        assert counts["inverse"] == counts["rounds"] > 1


def test_retries_stop_before_the_degree_cap(monkeypatch):
    # quotient degrees grow geometrically (1, 1, 9, 41, 209, ...), so each
    # retry deepens the floor about fivefold; the one past -2^20 is refused
    F = make_field(5, 1)
    spec = TypeSpec(field=F, t=1, k=2, lambdas=(F.el((3,)),), eps1=F.one, eps2=F.el((3,)))
    floors = []
    iterate = hyper._iterate

    def recorded(eq, lam1, target_floor):
        floors.append(target_floor)
        return iterate(eq, lam1, target_floor)

    monkeypatch.setattr(hyper, "_iterate", recorded)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="_DEGREE_CAP"):
        expand_alpha(spec, 12)
    assert time.perf_counter() - start < 5.0
    assert len(floors) < hyper._MAX_RETRIES
    assert -hyper._DEGREE_CAP <= floors[-1] < -hyper._DEGREE_CAP // 5
    assert perfect._DEGREE_CAP is hyper._DEGREE_CAP
