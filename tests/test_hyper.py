"""Tests for equation building and the direct transducer expansion.

The reference is the former direct engine, kept here: the defining
relation iterated as a truncated Laurent series, Euclid on the result
(contfrac.expand_series), and its rule for retrying at a deeper
precision floor.  Candidate roots are checked by the equation's residual
series, also kept here.
"""

import dataclasses
import hashlib
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from hyperquad import contfrac, hyper, perfect
from hyperquad.ffield import f27_preset, make_field
from hyperquad.fpoly import Poly
from hyperquad.hyper import (
    ConvergenceError,
    TypeSpec,
    build_equation,
    expand_alpha,
    _head_continuants,
)
from hyperquad.laurent import LaurentSeries
from hyperquad.seedpair import admissible_set, build_seedpair

from checks import determinants_hold

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _seed_polys(spec):
    """Pk and Qk over the spec field by the former embedding: each F_p
    coefficient padded with zero coordinates, not Poly.scaled_into."""
    sp = build_seedpair(spec.p, spec.t, spec.k)
    pad = ((0, 0), (0, spec.field.s - 1))
    return tuple(
        Poly.from_block(spec.field, np.pad(f.block(), pad)) for f in (sp.Pk, sp.Qk)
    )


def corollary_spec():
    F = f27_preset()
    u = F.u
    return TypeSpec(field=F, t=1, k=1, lambdas=(F.one,), eps1=-(u**6), eps2=u**3)


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
    assert determinants_hold(rec)


def test_expansion_head_and_leading_degree():
    F9 = make_field(3, 2)
    u = F9.u
    spec = TypeSpec(field=F9, t=1, k=1, lambdas=(u, F9.one, -u), eps1=u, eps2=-F9.one)
    rec = expand_alpha(spec, 9)
    head = [Poly.monomial(F9, 1, c) for c in spec.lambdas]
    assert rec.quotients[:3] == head
    assert rec.quotients[0].degree() == 1
    assert determinants_hold(rec)
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
    alpha = _relation_iterate(spec, -260)
    tail = contfrac.predicted_record(F, rec.quotients[l:])
    xm, ym = tail.numerators[len(tail)], tail.denominators[len(tail)]
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
    alpha = _relation_iterate(spec, -300)
    assert alpha.floor <= -300
    assert not _residual(spec, alpha).known_nonzero()


def test_check_root_rejects_mutation():
    spec = corollary_spec()
    F = spec.field
    alpha = _relation_iterate(spec, -120)
    bad = alpha + LaurentSeries.monomial(F, -37, F.u)
    assert _residual(spec, bad).known_nonzero()


def test_check_root_rejects_plain_t():
    spec = corollary_spec()
    F = spec.field
    t_series = LaurentSeries.from_poly(Poly.monomial(F, 1))
    assert _residual(spec, t_series).known_nonzero()


def test_bigger_frobenius_power():
    # r = 9 over the prime field, top admissible level
    F = make_field(3, 1)
    spec = TypeSpec(
        field=F, t=2, k=4, lambdas=(F.one, F.from_int(2)), eps1=F.one, eps2=F.one
    )
    rec = expand_alpha(spec, 6)
    assert len(rec) == 6
    assert rec.quotients[0] == Poly.monomial(F, 1)
    assert determinants_hold(rec)
    alpha = _relation_iterate(spec, -150)
    assert not _residual(spec, alpha).known_nonzero()


# -- the transducer against the former series engine -------------------------


class GaveUp(Exception):
    """The series reference stopped where the former engine raised."""


def _relation_iterate(spec, target_floor):
    """alpha to the given floor by iterating the defining relation itself.

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
    for _ in range(200):
        if alpha.floor <= target_floor:
            return alpha
        slack = (target_floor + r - 1) // r
        if alpha.floor < slack:
            alpha = alpha.truncated(slack)
        z = (alpha.frobenius_pow(r) - e2Q) / e1P
        nxt = (series(xs[l]) * z + series(xs[l - 1])) / (
            series(ys[l]) * z + series(ys[l - 1])
        )
        if nxt.floor >= alpha.floor:
            raise GaveUp(f"stalled at floor {alpha.floor}")
        alpha = nxt
    raise GaveUp(f"no convergence to floor {target_floor}")


def _residual(spec, alpha):
    """The defining equation evaluated at alpha; a root to alpha's floor
    leaves no known nonzero coefficient."""
    eq, series = build_equation(spec), LaurentSeries.from_poly
    ar = alpha.frobenius_pow(spec.r)
    return (
        series(eq.lead) * ar * alpha
        + series(eq.second) * ar
        + series(eq.linear) * alpha
        + series(eq.constant)
    )


def _series_expand(spec, n_max, cap=hyper._DEGREE_CAP):
    """The former engine: floor -4*n_max, deepened while quotients are missing."""
    needed = 4 * n_max
    for _ in range(8):
        rec = contfrac.expand_series(_relation_iterate(spec, -needed), n_max)
        if len(rec) >= n_max:
            return rec
        top_deg = max([q.degree() for q in rec.quotients], default=1)
        needed = max(2 * needed, 2 * n_max * (1 + top_deg))
        if needed > cap:
            raise GaveUp(f"floor -{needed} is past -{cap}")
    raise GaveUp("no complete expansion within 8 retries")


def _assert_matches_series(spec, n_max, cap=hyper._DEGREE_CAP):
    """expand_alpha's record, checked against the reference; None if skipped."""
    try:
        want = _series_expand(spec, n_max, cap)
    except GaveUp:
        return None
    got = expand_alpha(spec, n_max)
    assert got.quotients == want.quotients, (spec.describe(), n_max)
    # the reference may call a truncated expansion "rational" when Euclid's
    # remainder vanishes at its last confirmed quotient
    assert (got.provenance, got.status) == ("direct", "complete")
    return got


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


def _head3_spec():
    F9 = make_field(3, 2)
    u = F9.u
    return TypeSpec(field=F9, t=1, k=1, lambdas=(u, F9.one, -u), eps1=u, eps2=-F9.one)


def _retry_spec():
    """A target on which the former engine's first precision guess fell short."""
    F = make_field(3, 1)
    return TypeSpec(field=F, t=1, k=1, lambdas=(F.one, F.one), eps1=F.one, eps2=F.one)


@pytest.mark.parametrize(
    "make_spec,n_max",
    [(corollary_spec, 600), (_head3_spec, 40), (_retry_spec, 12)],
    ids=["corollary-c-600", "head-3", "retry"],
)
def test_expand_alpha_equals_relation_form(make_spec, n_max):
    assert _assert_matches_series(make_spec(), n_max) is not None


def _quotient_digest(quotients):
    text = json.dumps([q.block().tolist() for q in quotients], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _verify_entries(workload):
    pools = json.loads(REFERENCE.read_text())[workload]
    if workload == "grid-sweep":
        return pools["closed"] + pools["open"]
    return pools["verify"]


@pytest.mark.parametrize("workload,count", [("grid-sweep", 522), ("deep-tower", 13)])
def test_transducer_matches_series_on_reference_requests(workload, count):
    # every verify request of the benchmark's recorded pools
    entries = _verify_entries(workload)
    assert len(entries) == count
    fields = {}
    for e in entries:
        p, t, k, s, _l = e["cell"]
        key = (p, s, tuple(e["modulus"]))
        F = fields.setdefault(key, make_field(p, s, key[2]))
        spec = TypeSpec(
            field=F, t=t, k=k, lambdas=tuple(F.el(c) for c in e["lambdas"]),
            eps1=F.el(e["eps1"]), eps2=F.el(e["eps2"]),
        )
        rec = _assert_matches_series(spec, e["n"])
        assert rec is not None and _quotient_digest(rec.quotients) == e["digest"]


def _reference_spec(e):
    p, t, k, s, _l = e["cell"]
    F = make_field(p, s, e["modulus"])
    return TypeSpec(
        field=F, t=t, k=k, lambdas=tuple(F.el(c) for c in e["lambdas"]),
        eps1=F.el(e["eps1"]), eps2=F.el(e["eps2"]),
    )


@pytest.mark.parametrize("workload,count", [("grid-sweep", 522), ("deep-tower", 13)])
def test_certified_expansion_equals_divided_on_reference_requests(workload, count):
    # the predicted quotients of every verify request (all are perfect) as
    # candidates, then with one of them plus 1: deg(P - cR) = deg R, so that
    # candidate fails its certificate by exactly one degree and is divided
    entries = _verify_entries(workload)
    assert len(entries) == count
    rng = random.Random(count)
    for e in entries:
        spec, n = _reference_spec(e), e["n"]
        seqs = perfect.generate_sequences(spec, n)
        assert not isinstance(seqs, perfect.NotPerfect)
        plain = expand_alpha(spec, n).quotients
        candidates = perfect.predicted_record_from(seqs, n).quotients
        assert expand_alpha(spec, n, candidates).quotients == plain
        i = rng.randrange(n)
        candidates[i] = candidates[i] + Poly.one(spec.field)
        assert expand_alpha(spec, n, candidates).quotients == plain, (spec.describe(), i)


# (p, s, t): the sweep's fields and Frobenius powers; over F_27, t = 1 and
# t = 2 both move coefficients under Frobenius
SWEEP = [(3, 1, 1), (3, 2, 1), (3, 3, 1), (5, 1, 1), (5, 2, 1), (7, 1, 1),
         (11, 1, 1), (13, 1, 1), (3, 1, 2), (3, 3, 2), (5, 1, 2)]


@pytest.mark.parametrize("p,s,t", SWEEP)
def test_transducer_matches_series_on_random_targets(p, s, t):
    rng = random.Random(100 * p + 10 * s + t)
    levels = admissible_set(p, t)
    compared = 0
    for _ in range(24):
        spec = _random_spec(rng, p, s, t, rng.choice(levels), rng.randint(1, 3))
        # targets whose reference floor would pass -2^16 are skipped, for time
        rec = _assert_matches_series(spec, rng.randint(2, 25), cap=1 << 16)
        compared += rec is not None
    assert compared >= 18


def _cap_spec():
    F = make_field(5, 1)
    return TypeSpec(field=F, t=1, k=2, lambdas=(F.el((3,)),), eps1=F.one, eps2=F.el((3,)))


def test_expansion_stops_before_the_degree_cap(monkeypatch):
    # quotient degrees grow about fivefold (1, 1, 9, 41, 209, ...); a_11
    # needs a_10^r, of degree 5 * 651041 = 3255205, past 2^20
    spec = _cap_spec()
    absorbed = []
    spread = hyper.frobenius_spread

    def recorded(a, t, field):
        absorbed.append((a.shape[0] - 1) * spec.r)
        return spread(a, t, field)

    monkeypatch.setattr(hyper, "frobenius_spread", recorded)
    start = time.perf_counter()
    rec = expand_alpha(spec, 10)
    assert len(rec) == 10 and rec.status == "complete"
    assert rec.quotients[-1].degree() == 651041
    absorbed.clear()
    with pytest.raises(ConvergenceError, match="degree 3255205, past _DEGREE_CAP"):
        expand_alpha(spec, 11)
    assert time.perf_counter() - start < 5.0
    assert max(absorbed) <= hyper._DEGREE_CAP
    assert perfect._DEGREE_CAP is hyper._DEGREE_CAP


def test_emitted_degree_is_capped_too(monkeypatch):
    # r = 9, k = 4: a_4 has degree 2k + r = 17 after absorbs of degree 9
    # only, so with the cap at 10 the emission is what must be refused
    F = make_field(3, 1)
    spec = TypeSpec(field=F, t=2, k=4, lambdas=(F.one, F.one), eps1=-F.one, eps2=F.one)
    assert [q.degree() for q in expand_alpha(spec, 6).quotients] == [1, 1, 1, 17, 1, 1]
    monkeypatch.setattr(hyper, "_DEGREE_CAP", 10)
    assert len(expand_alpha(spec, 3)) == 3
    with pytest.raises(ConvergenceError, match="a_4 of degree 17 is past _DEGREE_CAP"):
        expand_alpha(spec, 4)


def test_stall_raises_a_named_error(monkeypatch):
    # a well-formed equation cannot stall (module docstring); one with no
    # X^(r+1) term starts at R = 0 with nothing emitted to absorb
    spec = corollary_spec()
    eq = build_equation(spec)
    broken = dataclasses.replace(eq, lead=Poly.zero(spec.field))
    monkeypatch.setattr(hyper, "build_equation", lambda _spec: broken)
    with pytest.raises(ConvergenceError, match="stalled"):
        expand_alpha(spec, 3)


@pytest.mark.parametrize("p,s,t", SWEEP)
def test_equation_map_is_head_times_relation(p, s, t):
    # M = (-second, -constant; lead, linear) = H * (1, -eps2 Qk; 0, eps1 Pk)
    rng = random.Random(7 * p + s + t)
    for k in admissible_set(p, t):
        for l in (1, 2, 3):
            spec = _random_spec(rng, p, s, t, k, l)
            eq = build_equation(spec)
            xs, ys = _head_continuants(spec)
            Pk, Qk = _seed_polys(spec)
            e1P, e2Q = Pk.scaled(spec.eps1), Qk.scaled(spec.eps2)
            assert -eq.second == xs[l] and eq.lead == ys[l]
            assert -eq.constant == e1P * xs[l - 1] - e2Q * xs[l]
            assert eq.linear == e1P * ys[l - 1] - e2Q * ys[l]
