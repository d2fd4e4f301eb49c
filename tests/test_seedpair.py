"""Tests for admissible levels, seed construction, and the g/h families."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperquad import contfrac, hyper, seedpair
from hyperquad.exactq import (
    q_coefficients_rational,
    reduce_mod,
    theta_omega_rational,
    v_sequence_rational,
)
from hyperquad.ffield import embed, f27_preset, make_field
from hyperquad.fpoly import Poly
from hyperquad.seedpair import (
    AdmissibilityError,
    UndefinedValueError,
    admissible_set,
    build_seedpair,
    eval_g,
    eval_h,
    g_fraction,
    h_fraction,
    is_admissible,
    validate_identities,
)

from checks import determinants_hold

GRID = [
    (p, t, k)
    for p in (3, 5, 7)
    for t in (1, 2)
    for k in admissible_set(p, t)
]


def test_admissible_small_cases():
    assert admissible_set(3, 1) == [1]
    assert admissible_set(5, 1) == [1, 2]
    assert admissible_set(5, 2) == [1, 2, 7, 12]
    assert admissible_set(3, 2) == [1, 4]
    assert admissible_set(7, 2) == [1, 2, 3, 10, 17, 24]


@pytest.mark.parametrize("p,t", [(3, 1), (3, 3), (5, 2), (7, 2), (11, 1)])
def test_admissible_shape(p, t):
    r = p**t
    levels = admissible_set(p, t)
    assert levels == sorted(set(levels))
    assert all(1 <= k <= (r - 1) // 2 for k in levels)
    assert (r - 1) // 2 in levels
    if t == 1:
        assert levels == list(range(1, (p - 1) // 2 + 1))


def _former_admissible_set(p, t):
    """The enumeration admissible_set used to run: every m p^j + (p^j - 1)/2 in a set."""
    levels = set()
    for j in range(t):
        pj = p**j
        for m in range(1, (p - 1) // 2 + 1):
            levels.add(m * pj + (pj - 1) // 2)
    return sorted(levels)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_progressions_match_the_former_enumeration(p, t):
    want = _former_admissible_set(p, t)
    assert admissible_set(p, t) == want
    ks = range(-1, (p**t - 1) // 2 + 3)
    assert [k for k in ks if is_admissible(p, t, k)] == want


def test_large_prime_never_lists_its_levels(monkeypatch):
    # p = 33 554 393 < 2^25 has (p - 1)/2 = 16 777 196 levels at t = 1
    p = 33_554_393

    def refuse(p, t):
        raise AssertionError("admissible levels were listed")

    for module in (seedpair, hyper):
        monkeypatch.setattr(module, "admissible_set", refuse, raising=False)
    F = make_field(p, 1)
    one = F.one
    for k in (1, (p - 1) // 2):
        hyper.TypeSpec(field=F, t=1, k=k, lambdas=(one,), eps1=one, eps2=one)
    with pytest.raises(ValueError, match="not an admissible level"):
        hyper.TypeSpec(field=F, t=1, k=(p + 1) // 2, lambdas=(one,), eps1=one, eps2=one)
    assert build_seedpair.__wrapped__(p, 1, 1).v == (one, -one)
    with pytest.raises(AdmissibilityError, match=r"1 <= m <= \(p-1\)/2"):
        build_seedpair.__wrapped__(p, 1, (p + 1) // 2)


def test_build_rejects_a_v_that_is_not_a_unit(monkeypatch):
    # a mutation of the seed constants that the integrality checks must catch
    def mutated(k):
        v = v_sequence_rational(k)
        return [v[0] * 5, *v[1:]]

    monkeypatch.setattr(seedpair, "v_sequence_rational", mutated)
    with pytest.raises(seedpair.InternalConsistencyError, match="not a p-adic unit"):
        build_seedpair.__wrapped__(5, 1, 2)


def test_build_rejects_a_b_with_a_pole(monkeypatch):
    def mutated(k):
        b = q_coefficients_rational(k)
        return [b[0] / 5, *b[1:]]

    monkeypatch.setattr(seedpair, "q_coefficients_rational", mutated)
    with pytest.raises(seedpair.InternalConsistencyError, match="has a pole"):
        build_seedpair.__wrapped__(5, 1, 2)


def test_admissible_rejects_bad_input():
    with pytest.raises(ValueError):
        admissible_set(2, 1)
    with pytest.raises(ValueError):
        admissible_set(9, 1)
    with pytest.raises(ValueError):
        admissible_set(5, 0)


def test_build_smallest_seed():
    sp = build_seedpair(3, 1, 1)
    F = sp.field
    assert sp.theta == F.from_int(1)
    assert sp.omega == F.from_int(-1)
    assert sp.v == (F.from_int(1), F.from_int(-1))
    assert sp.w == (F.from_int(1), F.from_int(-1))
    assert sp.b == (F.from_int(1),)
    assert sp.Pk == Poly(F, [-1, 0, 1])
    assert sp.Qk == Poly.monomial(F, 1)


def test_build_level_two_mod_seven():
    sp = build_seedpair(7, 1, 2)
    F = sp.field
    assert [x.coeffs[0] for x in sp.v] == [3, 5, 1, 1]
    assert sp.Pk == Poly(F, [-1, 0, 1]) ** 2


def test_build_rejects_inadmissible():
    with pytest.raises(AdmissibilityError):
        build_seedpair(3, 1, 2)
    with pytest.raises(AdmissibilityError):
        build_seedpair(5, 2, 3)
    with pytest.raises(AdmissibilityError):
        build_seedpair(5, 1, 0)


@pytest.mark.parametrize("p,t,k", GRID)
def test_grid_expansion_matches_v(p, t, k):
    sp = build_seedpair(p, t, k)
    rec = contfrac.expand_rational(sp.Pk, sp.Qk)
    assert rec.quotients == [Poly.monomial(sp.field, 1, c) for c in sp.v]
    assert determinants_hold(rec)


@pytest.mark.parametrize("p,t,k", GRID)
def test_grid_identities_pass(p, t, k):
    report = validate_identities(build_seedpair(p, t, k))
    assert set(report) == {
        "v_symmetry",
        "g_recursion",
        "g_reciprocal_form",
        "w_recurrence",
        "g_final_form",
        "v_last_value",
        "gh_product_ratio",
        "gh_boundary",
    }
    bad = [name for name, passed in report.items() if not passed]
    assert bad == []


def test_g_endpoint_values():
    for p, t, k in [(3, 1, 1), (5, 1, 2), (7, 2, 10)]:
        sp = build_seedpair(p, t, k)
        zero = sp.field.zero
        assert eval_g(sp, 0, zero) == sp.theta
        assert eval_g(sp, 2 * k, zero) == sp.theta.inverse()
        for i in range(2 * k + 1):
            assert eval_h(sp, i, zero).is_zero()


@pytest.mark.parametrize("p,t,k", GRID)
def test_g_at_zero_is_eval_g_at_zero(p, t, k):
    # GRID spans the (p, t) pairs of the acceptance grid
    sp = build_seedpair(p, t, k)
    assert len(sp.g_at_zero) == 2 * k + 1
    for i in range(2 * k + 1):
        assert sp.g_at_zero[i] == eval_g(sp, i, sp.field.zero), i


def test_g_recursion_on_extension_field():
    # g_(i+1) = 2k theta (-v_(i+1) + 2k theta / g_i): at every point of F_27
    # for k = 1, and of F_13 for every level k = 1..6 admitted there
    cases = [(build_seedpair(3, 1, 1), f27_preset())]
    cases += [(build_seedpair(13, 1, k), make_field(13, 1)) for k in range(1, 7)]
    for sp, F in cases:
        two_k_theta = F.from_int(2 * sp.k) * embed(F, sp.theta)
        checked = 0
        for x in F.elements():
            for i in range(2 * sp.k):
                try:
                    gi = eval_g(sp, i, x)
                    gi1 = eval_g(sp, i + 1, x)
                except UndefinedValueError:
                    continue
                if gi.is_zero():
                    continue
                assert gi1 == two_k_theta * (-embed(F, sp.v[i]) + two_k_theta / gi)
                checked += 1
        # each i loses at most the poles of g_i, g_(i+1) and the zero of g_i
        assert checked >= 2 * sp.k * (F.p**F.s - 3)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    num=st.integers(min_value=-30, max_value=30),
    den=st.integers(min_value=1, max_value=12),
    i=st.integers(min_value=0, max_value=11),
)
def test_g_recursion_exact(k, num, den, i):
    # the recursion over F_13, its scalars reduced from the exact rationals
    assume(i < 2 * k)
    sp = build_seedpair(13, 1, k)
    F = sp.field
    x = F.from_int(reduce_mod(Fraction(num, den), 13))
    thetaq, _ = theta_omega_rational(k)
    v = v_sequence_rational(k)
    two_k_theta = F.from_int(reduce_mod(2 * k * thetaq, 13))
    try:
        gi = eval_g(sp, i, x)
        gi1 = eval_g(sp, i + 1, x)
    except UndefinedValueError:
        assume(False)
    assume(not gi.is_zero())
    assert gi1 == two_k_theta * (-F.from_int(reduce_mod(v[i], 13)) + two_k_theta / gi)


def test_product_ratio_identity_sampled():
    sp = build_seedpair(5, 1, 2)
    F = make_field(5, 2)
    omega = F.from_int(sp.omega.coeffs[0])
    for x in F.nonzero_elements():
        for i in range(1, 2 * sp.k + 1):
            try:
                lhs = eval_g(sp, i, x) * eval_g(sp, i - 1, x) * omega
                rhs = eval_h(sp, i - 1, x) / eval_h(sp, i, x)
            except UndefinedValueError:
                continue
            assert lhs == rhs


def test_boundary_identity_sampled():
    sp = build_seedpair(3, 2, 4)
    F = make_field(3, 2)
    for x in F.elements():
        try:
            assert eval_g(sp, 0, x) * eval_h(sp, 0, x) == x
        except UndefinedValueError:
            pass


def test_poles_raise():
    sp = build_seedpair(3, 1, 1)
    F = f27_preset()
    theta = F.from_int(sp.theta.coeffs[0])
    with pytest.raises(UndefinedValueError):
        eval_g(sp, 2, theta)
    with pytest.raises(UndefinedValueError):
        eval_h(sp, 0, -theta)
    with pytest.raises(ValueError):
        eval_g(sp, 3, F.zero)


def test_h_zero_over_prime_field():
    # for k = 1 the first family member is x/(theta + x) with theta = -1/2
    sp = build_seedpair(13, 1, 1)
    F = sp.field
    two, half = F.from_int(2), F.from_int(2).inverse()
    for x in F.elements():
        if x == half:
            with pytest.raises(UndefinedValueError):
                eval_h(sp, 0, x)
        else:
            assert eval_h(sp, 0, x) == two * x / (two * x - F.one)
    assert eval_g(sp, 0, F.zero) == -half


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_reduced_scalars_match_exact_rationals(p):
    # every admissible k <= 24, each at the least t admitting it; levels
    # first admitted at t = 4 are at least 3^3 + 13 = 40
    levels = {}
    for t in (3, 2, 1):
        for k in admissible_set(p, t):
            if k <= 24:
                levels[k] = t
    for k, t in sorted(levels.items()):
        sp = build_seedpair(p, t, k)
        F = sp.field
        thetaq, _ = theta_omega_rational(k)
        vq = v_sequence_rational(k)
        want_g = [
            2 * k * thetaq * vq[i - 1] * Fraction(i, 2 * k - 2 * i + 1)
            for i in range(1, 2 * k)
        ]
        want_h = [(-1) ** i * math.comb(2 * k, i) for i in range(2 * k + 1)]
        middle = tuple(F.from_int(reduce_mod(c, p)) for c in want_g)
        assert sp.g_at_zero[1:-1] == middle
        assert sp.g_at_zero[0] == F.from_int(reduce_mod(thetaq, p))
        assert sp.g_at_zero[-1] == F.from_int(reduce_mod(1 / thetaq, p))
        assert sp.h_scalars == tuple(F.from_int(reduce_mod(c, p)) for c in want_h)


# -- the former families, one branch per end member ---------------------------


def _former_eval_g(pair, i, x):
    k, field = pair.k, x.field
    theta = embed(field, pair.theta)
    if i == 0:
        return theta + x
    if i == 2 * k:
        den = theta - x
        if den.is_zero():
            raise UndefinedValueError(i)
        return den.inverse()
    den = theta + embed(field, pair.w[i - 1]) * x
    if den.is_zero():
        raise UndefinedValueError(i)
    c = embed(field, pair.g_at_zero[i])
    return c * (theta + embed(field, pair.w[i]) * x) / den


def _former_eval_h(pair, i, x):
    k, field = pair.k, x.field
    theta = embed(field, pair.theta)
    if i == 0 or i == 2 * k:
        den = theta + x if i == 0 else theta - x
        if den.is_zero():
            raise UndefinedValueError(i)
        return x / den
    c = embed(field, pair.h_scalars[i])
    den = (theta + embed(field, pair.w[i]) * x) * (
        theta + embed(field, pair.w[i - 1]) * x
    )
    if den.is_zero():
        raise UndefinedValueError(i)
    return c * theta * x / den


def _former_g_fraction(pair, i):
    field, k = pair.field, pair.k
    one = Poly.one(field)
    X = Poly.monomial(field, 1)
    th = Poly.constant(field, pair.theta)
    if i == 0:
        return th + X, one
    if i == 2 * k:
        return one, th - X
    num = (th + X.scaled(pair.w[i])).scaled(pair.g_at_zero[i])
    return num, th + X.scaled(pair.w[i - 1])


def _former_h_fraction(pair, i):
    field, k = pair.field, pair.k
    X = Poly.monomial(field, 1)
    th = Poly.constant(field, pair.theta)
    if i == 0:
        return X, th + X
    if i == 2 * k:
        return X, th - X
    den = (th + X.scaled(pair.w[i])) * (th + X.scaled(pair.w[i - 1]))
    return X.scaled(pair.h_scalars[i] * pair.theta), den


def _value_or_pole(fn, *args):
    try:
        return fn(*args)
    except UndefinedValueError:
        return "pole"


ONE_FORMULA_CASES = (
    [(build_seedpair(13, 1, k), make_field(13, 1)) for k in range(1, 7)]
    + [(build_seedpair(5, 1, k), make_field(5, 2)) for k in (1, 2)]
    + [(build_seedpair(3, 1, 1), f27_preset())]
    + [(build_seedpair(7, 1, k), make_field(7, 2)) for k in (1, 2, 3)]
)


@pytest.mark.parametrize(
    "sp,F", ONE_FORMULA_CASES, ids=[f"F{F.order}-k{sp.k}" for sp, F in ONE_FORMULA_CASES]
)
def test_one_formula_matches_former_end_member_code(sp, F):
    poles = 0
    for x in F.elements():
        for i in range(2 * sp.k + 1):
            for new, old in ((eval_g, _former_eval_g), (eval_h, _former_eval_h)):
                got = _value_or_pole(new, sp, i, x)
                assert got == _value_or_pole(old, sp, i, x), (new.__name__, i, x)
                poles += got == "pole"
    assert poles > 0  # the comparison reaches the poles too
    for new, old in ((g_fraction, _former_g_fraction), (h_fraction, _former_h_fraction)):
        for i in range(2 * sp.k + 1):
            (num, den), (num0, den0) = new(sp, i), old(sp, i)
            # equal up to one common unit: den0 = u den and num0 = u num
            u = den0.leading() / den.leading()
            assert den.scaled(u) == den0 and num.scaled(u) == num0, (new.__name__, i)


def test_field_evaluation_does_no_rational_arithmetic(monkeypatch):
    sp = build_seedpair(5, 2, 7)
    F = make_field(5, 2)
    points = [F.zero, F.one, F.u, F.u + F.from_int(3), F.from_int(2) * F.u]

    def values():
        out = []
        for x in points:
            for fn in (eval_g, eval_h):
                for i in range(2 * sp.k + 1):
                    try:
                        out.append(fn(sp, i, x))
                    except UndefinedValueError:
                        out.append(None)
        for i in range(2 * sp.k + 1):
            out.append(g_fraction(sp, i))
            out.append(h_fraction(sp, i))
        return out

    before = values()

    def refuse(*args):
        raise AssertionError("rational constants recomputed on the field path")

    monkeypatch.setattr(seedpair, "v_sequence_rational", refuse)
    monkeypatch.setattr(seedpair, "theta_omega_rational", refuse)
    assert values() == before


def test_family_index_is_checked():
    sp = build_seedpair(5, 1, 2)
    for fn in (eval_g, eval_h):
        for i in (-1, 2 * sp.k + 1):
            with pytest.raises(ValueError):
                fn(sp, i, sp.field.one)
    for fn in (g_fraction, h_fraction):
        with pytest.raises(ValueError):
            fn(sp, 2 * sp.k + 1)


def test_embed_scalars():
    F3, F27 = make_field(3, 1), f27_preset()
    for n in range(3):
        c = F3.from_int(n)
        assert embed(F27, c) == F27.from_int(n)
        assert embed(F3, c) is c
    u = F27.u
    assert embed(F27, u) is u
    with pytest.raises(ValueError):
        embed(F27, make_field(5, 1).one)
    with pytest.raises(ValueError):
        embed(F27, make_field(3, 2).u)
    with pytest.raises(ValueError):
        embed(make_field(3, 2), F27.one)


def test_embedded_polynomials():
    sp = build_seedpair(3, 2, 4)
    F27 = f27_preset()
    c = F27.u + F27.one
    for f in (sp.Pk, sp.Qk, Poly.zero(sp.field), Poly.one(sp.field)):
        coeffs = [embed(F27, f.coefficient(i)) for i in range(f.degree() + 1)]
        lifted = f.scaled_into(F27.one)
        assert lifted.field is F27
        assert lifted == Poly(F27, coeffs)
        assert f.scaled_into(c) == Poly(F27, [a * c for a in coeffs])
        assert f.scaled_into(sp.field.one) == f
    assert sp.Pk.scaled_into(F27.zero) == Poly.zero(F27)
    F9 = make_field(3, 2)
    with pytest.raises(ValueError):
        Poly(make_field(5, 1), [1, 2]).scaled_into(F27.one)
    with pytest.raises(ValueError):
        Poly.monomial(F9, 2, F9.u).scaled_into(F27.one)
