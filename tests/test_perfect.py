"""Tests for the predicted-expansion machinery.

The worked F_27 target (head [T], eps1 = -u^6, eps2 = u^3, k = 1) is
used as the main frozen oracle: its delta/gamma/lambda values and the
first five quotients were computed by hand from the recursions before
the module existed.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from hyperquad import perfect
from hyperquad.contfrac import ExpansionRecord
from hyperquad.ffield import degree_over_prime, f27_preset, make_field
from hyperquad.fpoly import Poly
from hyperquad.hyper import ConvergenceError, TypeSpec, expand_alpha
from hyperquad.perfect import (
    CASE_CLOSED,
    CASE_OPEN,
    BudgetError,
    IndexMachinery,
    NotPerfect,
    PerfectSequences,
    build_tower,
    case_one_eps1,
    classify_case,
    condition_II,
    consistency_suite,
    degenerate_next_lambda,
    differential_verify,
    generate_sequences,
    predict_expansion,
)
from hyperquad.seedpair import build_seedpair


def corollary_spec() -> TypeSpec:
    F = f27_preset()
    u = F.u
    return TypeSpec(
        field=F, t=1, k=1, lambdas=(F.one,), eps1=-(u**6), eps2=u**3
    )


# -- index machinery ---------------------------------------------------------


def test_index_map_small_case():
    idx = IndexMachinery(k=1, l=1)
    assert [idx.f(n) for n in range(1, 6)] == [2, 5, 8, 11, 14]
    # level 1 off the image of f, +1 per preimage hop
    assert idx.i(1) == 1
    assert idx.i(2) == 2
    assert idx.i(3) == 1
    assert idx.i(4) == 1
    assert idx.i(5) == 3
    assert idx.i(14) == 4
    assert idx.i(41) == 5
    assert idx.i(122) == 6


def test_index_map_preimage_roundtrip():
    idx = IndexMachinery(k=2, l=3)
    for n in range(1, 60):
        assert idx.preimage(idx.f(n)) == n
    hits = {idx.f(n) for n in range(1, 60)}
    for m in range(1, 60):
        if m not in hits:
            assert idx.i(m) == 1


def test_index_map_rejects_bad_args():
    with pytest.raises(ValueError):
        IndexMachinery(k=0, l=1)
    with pytest.raises(ValueError):
        IndexMachinery(k=1, l=1).i(0)


# -- tower -------------------------------------------------------------------


def test_tower_constant_when_degrees_balance():
    # deg Pk = r - 1 makes every level degree one
    for p, t, k in [(3, 1, 1), (5, 1, 2), (7, 1, 3)]:
        pair = build_seedpair(p, t, k)
        T = Poly.monomial(pair.field, 1)
        assert build_tower(pair, 6) == [T] * 6


def test_tower_growth_oracle():
    pair = build_seedpair(5, 1, 1)
    A = build_tower(pair, 3)
    F = pair.field
    assert A[0] == Poly.monomial(F, 1)
    assert A[1] == Poly(F, [0, 1, 0, 1])  # T^3 + T
    assert A[2].degree() == 13
    assert all(a.leading() == F.one for a in A)


def test_tower_budget_cap(monkeypatch):
    pair = build_seedpair(7, 2, 1)  # r = 49: degrees 1, 47, 2301, 112747, ...
    assert [a.degree() for a in build_tower(pair, 4)] == [1, 47, 2301, 112747]
    with pytest.raises(BudgetError, match="degree 5524603, past _DEGREE_CAP"):
        build_tower(pair, 5)
    # the cap bounds the spread T^49, not the level's degree 47 after // Pk
    monkeypatch.setattr(perfect, "_DEGREE_CAP", 48)
    with pytest.raises(BudgetError, match="level 2 needs A_1\\^r of degree 49, past"):
        build_tower(pair, 2)


def _reference_pool_pairs():
    """(p, t, k) of every benchmark verify request, with the depth it needs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    pools = json.loads(path.read_text())
    entries = [e for pool in pools["grid-sweep"].values() for e in pool]
    depths = {}
    for e in entries + pools["deep-tower"]["verify"]:
        p, t, k, _s, l = e["cell"]
        idx = IndexMachinery(k, l)
        depth = max(idx.i(n) for n in range(1, e["n"] + 1))
        depths[p, t, k] = max(depth, depths.get((p, t, k), 0))
    return sorted(depths.items())


def test_tower_spread_equals_power_by_squaring():
    # over F_p, A(T)^r = A(T^r): the tower built by the row spread equals
    # the one built from A^r by repeated squaring
    pairs = _reference_pool_pairs()
    assert len(pairs) == 18
    for (p, t, k), depth in pairs:
        pair = build_seedpair(p, t, k)
        want = [Poly.monomial(pair.field, 1)]
        while len(want) < depth:
            want.append((want[-1] ** (p**t)) // pair.Pk)
        assert build_tower(pair, depth) == want, (p, t, k)


@pytest.fixture
def build_spy(monkeypatch):
    """An empty tower memo; the (p, t, k, depth) of every build_tower call
    and the (p, t, k, from, to) of every run of _grow, the level loop, that
    has a level to add."""
    monkeypatch.setattr(perfect, "_towers", {})
    builds, grows = [], []
    real_build, real_grow = perfect.build_tower, perfect._grow

    def counting_build(pair, depth):
        builds.append((pair.p, pair.t, pair.k, depth))
        return real_build(pair, depth)

    def counting_grow(pair, A, depth):
        if len(A) < depth:
            grows.append((pair.p, pair.t, pair.k, len(A), depth))
        return real_grow(pair, A, depth)

    monkeypatch.setattr(perfect, "build_tower", counting_build)
    monkeypatch.setattr(perfect, "_grow", counting_grow)
    return builds, grows


def test_tower_memo_builds_each_level_once_per_pair(build_spy):
    builds, grows = build_spy
    # c shares (p, t) with a, and its tower is constant T
    a, b, c = build_seedpair(5, 1, 1), build_seedpair(7, 2, 1), build_seedpair(5, 1, 2)
    want = {pair: perfect.build_tower(pair, 4) for pair in (a, b, c)}
    builds.clear(), grows.clear()
    asks = [(a, 3), (b, 2), (a, 1), (c, 3), (a, 3), (b, 2), (a, 4), (c, 2), (b, 1), (a, 4)]
    for pair, depth in asks:
        assert perfect._tower(pair, depth) == want[pair][:depth]
    # one build per pair; the deeper ask for a grows its memo from level 3
    assert builds == [(5, 1, 1, 3), (7, 2, 1, 2), (5, 1, 2, 3)]
    assert grows == [(5, 1, 1, 1, 3), (7, 2, 1, 1, 2), (5, 1, 2, 1, 3), (5, 1, 1, 3, 4)]


def test_tower_memo_through_requests(build_spy):
    builds, grows = build_spy
    spec = corollary_spec()
    for n in (5, 40, 14, 2, 40):
        predict_expansion(spec, n)
        differential_verify(spec, n)
    # depth 3 for n = 5, then 4 for n = 40; smaller asks read prefixes
    assert builds == [(3, 1, 1, 3)]
    assert grows == [(3, 1, 1, 1, 3), (3, 1, 1, 3, 4)]


def test_tower_memo_never_keeps_a_budget_error(build_spy):
    builds, grows = build_spy
    pair = build_seedpair(7, 2, 1)  # A_5 would pass the degree cap
    with pytest.raises(BudgetError):
        perfect._tower(pair, 5)
    want = perfect.build_tower(pair, 4)
    builds.clear(), grows.clear()
    assert perfect._tower(pair, 3) == want[:3]
    for _ in range(2):
        with pytest.raises(BudgetError):
            perfect._tower(pair, 5)
    # the first past-cap ask still adds A_4, which is below the cap
    assert builds == [(7, 2, 1, 3)]
    assert grows == [(7, 2, 1, 1, 3), (7, 2, 1, 3, 5), (7, 2, 1, 4, 5)]
    assert perfect._tower(pair, 4) == want and len(grows) == 3


def test_tower_memo_hands_out_fresh_lists(build_spy):
    builds, _ = build_spy
    pair = build_seedpair(5, 1, 1)
    want = perfect.build_tower(pair, 3)
    got = perfect._tower(pair, 3)
    got[0] = Poly.zero(pair.field)
    got.append(Poly.one(pair.field))
    del perfect._tower(pair, 2)[:]
    assert perfect._tower(pair, 3) == want
    assert perfect._tower(pair, 4)[:3] == want
    assert len(builds) == 2


# -- F_p tower times an F_q scalar -----------------------------------------
#
# The references are the former path: each tower polynomial embedded into
# F_q by padding its F_p coefficients with zero coordinates, then scaled
# by Poly.scaled (the kernel's multiplication matrix).


def _former_embed(f: Poly, field) -> Poly:
    return Poly.from_block(field, np.pad(f.block(), ((0, 0), (0, field.s - 1))))


def _former_shape(q: Poly, A: Poly) -> bool:
    A = _former_embed(A, q.field)
    return q.degree() == A.degree() and q == A.scaled(q.leading())


def _random_specs(p, s, seed, count, perfect_only):
    F = make_field(p, s)
    rng = random.Random(seed)
    elements = list(F.nonzero_elements())
    out = []
    while len(out) < count:
        lambdas = (rng.choice(elements), rng.choice(elements))
        eps1, eps2 = rng.choice(elements), rng.choice(elements)
        if not perfect_only:
            try:
                lambdas = (lambdas[0], degenerate_next_lambda(F, 1, 1, lambdas[:1], eps2))
            except ValueError:  # the head already breaks at index 1
                continue
        spec = TypeSpec(field=F, t=1, k=1, lambdas=lambdas, eps1=eps1, eps2=eps2)
        if perfect_only == isinstance(generate_sequences(spec, 30), PerfectSequences):
            out.append(spec)
    return out


@pytest.mark.parametrize("s", (1, 2, 3))
def test_predicted_quotients_match_former_embed_then_scale(s):
    for spec in _random_specs(5, s, seed=11 * s, count=4, perfect_only=True):
        seqs = generate_sequences(spec, 30)
        idx = seqs.index
        tower = build_tower(seqs.pair, max(idx.i(n) for n in range(1, 31)))
        want = [
            _former_embed(tower[idx.i(n) - 1], spec.field).scaled(seqs.lambdas[n])
            for n in range(1, 31)
        ]
        got = perfect.predicted_record_from(seqs, 30).quotients
        assert got == want
        assert max(q.degree() for q in got) > 1
        for q in got:  # normal form: entries in [0, p), nonzero top row
            b = q.block()
            assert b.shape[1] == s and b[-1].any() and 0 <= b.min() and b.max() < 5


@pytest.mark.parametrize("s", (1, 2, 3))
def test_first_shape_break_matches_former_embed_then_scale(s):
    for spec in _random_specs(5, s, seed=13 * s, count=3, perfect_only=False):
        direct = expand_alpha(spec, 30)
        idx = IndexMachinery(spec.k, spec.l)
        pair = build_seedpair(spec.p, spec.t, spec.k)
        tower = build_tower(pair, max(idx.i(n) for n in range(1, 31)))
        shapes = [
            perfect._scalar_quotient_shape(q, tower[idx.i(n) - 1])
            for n, q in enumerate(direct.quotients, 1)
        ]
        want = [
            _former_shape(q, tower[idx.i(n) - 1])
            for n, q in enumerate(direct.quotients, 1)
        ]
        assert shapes == want and not all(shapes)
        assert perfect._first_shape_break(direct, spec, idx) == shapes.index(False) + 1


# -- worked F_27 target ------------------------------------------------------


def test_condition_II_head_delta_oracle():
    spec = corollary_spec()
    u = spec.field.u
    head = condition_II(spec)
    assert head == [u**4]
    assert classify_case(spec, head[-1]) == CASE_OPEN


def test_sequences_frozen_scalars():
    spec = corollary_spec()
    F, u = spec.field, spec.field.u
    seqs = generate_sequences(spec, 12)
    assert isinstance(seqs, PerfectSequences)
    assert seqs.case == CASE_OPEN
    assert seqs.deltas[0] == u**23  # u^-3
    assert seqs.deltas[1] == u**4
    assert seqs.gammas[1] == u
    assert seqs.C0 == F.one
    want_lams = {2: u**7, 3: u**2, 4: u**11, 5: -u}
    for n, lam in want_lams.items():
        assert seqs.lambdas[n] == lam


def test_sequences_branch_recursions():
    # the three-term branch laws specialised to this target
    spec = corollary_spec()
    F, u = spec.field, spec.field.u
    one = F.one
    seqs = generate_sequences(spec, 40)
    g, d, lam = seqs.gammas, seqs.deltas, seqs.lambdas
    for n in range(1, 13):
        c = g[n] ** 3
        sign = 1 if n % 2 == 0 else -1
        assert g[3 * n - 1] == c / (one + c)
        assert g[3 * n] == c / (one - c * c)
        assert g[3 * n + 1] == c / (one - c)
        assert d[3 * n - 1] == u ** (5 * sign % 26) * d[n] ** 3 * (one + c)
        assert d[3 * n] == (c - one) / d[3 * n - 1]
        assert d[3 * n + 1] == d[3 * n - 1] / (one - c * c)
        assert lam[3 * n - 1] == -(u ** (6 * sign % 26)) * lam[n] ** 3
        assert lam[3 * n] == u ** (6 * -sign % 26) * d[n].inverse()
        assert lam[3 * n + 1] == -lam[3 * n].inverse()


def test_sequences_gamma_degree_invariant():
    spec = corollary_spec()
    seqs = generate_sequences(spec, 60)
    assert all(degree_over_prime(x) == 3 for x in seqs.gammas.values())
    # so no gamma ever lands in F_3, and the open case never terminates
    # by hitting a prime-field pole coincidence at these indices
    assert all(not x.is_zero() for x in seqs.gammas.values())


def test_predicted_quotients_match_frozen_expansion():
    spec = corollary_spec()
    F, u = spec.field, spec.field.u
    rec = predict_expansion(spec, 5)
    assert isinstance(rec, ExpansionRecord)
    assert rec.provenance == "predicted"
    T = Poly.monomial(F, 1)
    assert rec.quotients == [
        T, T.scaled(u**7), T.scaled(u**2), T.scaled(u**11), T.scaled(-u)
    ]
    assert rec.verify_determinants()


def test_differential_match_on_worked_target():
    spec = corollary_spec()
    report = differential_verify(spec, 40)
    assert report.status == "match"
    assert report.perfect is True
    assert report.case == CASE_OPEN
    assert report.first_mismatch is None
    assert report.n_checked == 40
    assert report.direct.verify_determinants()
    assert report.predicted.quotients == report.direct.quotients


def test_differential_mismatch_and_inconclusive_on_worked_target(monkeypatch):
    # the perfect path's two other outcomes, with the direct engine replaced
    spec = corollary_spec()
    good = perfect.expand_alpha(spec, 40)
    planted = list(good.quotients)
    planted[6] = planted[6].scaled(spec.field.u)
    bad = ExpansionRecord(spec.field, planted, "direct", "complete")
    monkeypatch.setattr(perfect, "expand_alpha", lambda _spec, _n: bad)
    report = differential_verify(spec, 40)
    assert (report.status, report.first_mismatch, report.n_checked) == ("mismatch", 7, 40)
    assert report.direct is bad and report.predicted.quotients == good.quotients

    def stalled(_spec, _n):
        raise ConvergenceError("stalled")

    monkeypatch.setattr(perfect, "expand_alpha", stalled)
    report = differential_verify(spec, 40)
    assert (report.status, report.first_mismatch, report.n_checked) == ("inconclusive", None, 0)
    assert report.direct is None and report.predicted.quotients == good.quotients
    assert report.perfect is True and report.case == CASE_OPEN


def test_consistency_suite_all_green():
    spec = corollary_spec()
    seqs = generate_sequences(spec, 35)
    report = consistency_suite(seqs)
    assert report == {
        "delta_first_order": True,
        "delta_tower_step": True,
        "delta_block_value": True,
        "gamma_coupling": True,
        "gamma_seed_forms": True,
        "gamma_block_ratios": True,
    }


def test_consistency_suite_detects_mutation():
    spec = corollary_spec()
    seqs = generate_sequences(spec, 35)
    seqs.deltas[7] = seqs.deltas[7] * spec.field.u
    report = consistency_suite(seqs)
    assert report["delta_first_order"] is False


# -- closed case -------------------------------------------------------------


def closed_case_spec() -> TypeSpec:
    F = f27_preset()
    u = F.u
    eps2 = u**3
    eps1 = case_one_eps1(F, 1, 1, (F.one,), eps2)
    return TypeSpec(field=F, t=1, k=1, lambdas=(F.one,), eps1=eps1, eps2=eps2)


def test_case_one_constructor_lands_in_closed_case():
    spec = closed_case_spec()
    assert spec.eps1 == -spec.field.one  # u^13
    head = condition_II(spec)
    assert classify_case(spec, head[-1]) == CASE_CLOSED


def test_closed_case_sequences_and_match():
    spec = closed_case_spec()
    seqs = generate_sequences(spec, 30)
    assert seqs.case == CASE_CLOSED
    assert seqs.C0 is None
    assert all(x.is_zero() for x in seqs.gammas.values())
    suite = consistency_suite(seqs)
    assert all(suite.values())
    assert "gamma_identically_zero" in suite
    report = differential_verify(spec, 30)
    assert report.status == "match"
    assert report.case == CASE_CLOSED


def test_closed_case_reads_g_at_zero_without_eval_g(monkeypatch):
    calls = []
    real = perfect.eval_g

    def counting(pair, i, x):
        calls.append(i)
        return real(pair, i, x)

    monkeypatch.setattr(perfect, "eval_g", counting)
    seqs = generate_sequences(closed_case_spec(), 60)
    assert seqs.case == CASE_CLOSED and calls == []
    assert all(consistency_suite(seqs).values())
    assert generate_sequences(corollary_spec(), 60).case == CASE_OPEN
    assert calls


# -- breakdown targets -------------------------------------------------------


def test_degenerate_lambda_kills_next_delta():
    F = f27_preset()
    u = F.u
    lam2 = degenerate_next_lambda(F, 1, 1, (F.one,), u**3)
    spec = TypeSpec(
        field=F, t=1, k=1, lambdas=(F.one, lam2), eps1=-(u**6), eps2=u**3
    )
    out = condition_II(spec)
    assert isinstance(out, NotPerfect)
    assert out.index == 2
    assert out.reason == "zero-delta"


def test_breakdown_target_mismatches_in_direct_expansion():
    F = f27_preset()
    u = F.u
    lam2 = degenerate_next_lambda(F, 1, 1, (F.one,), u**3)
    spec = TypeSpec(
        field=F, t=1, k=1, lambdas=(F.one, lam2), eps1=-(u**6), eps2=u**3
    )
    report = differential_verify(spec, 40)
    assert report.perfect is False
    assert report.failure is not None and report.failure.index == 2
    assert report.status == "mismatch"
    assert report.first_mismatch is not None
    assert report.direct.verify_determinants()
    # the offending quotient really is off-pattern: not c*T
    bad = report.direct.quotients[report.first_mismatch - 1]
    T = Poly.monomial(F, 1)
    assert bad != T.scaled(bad.leading()) or bad.degree() != 1


# -- randomised structural checks --------------------------------------------


def test_condition_II_two_routes_agree_on_random_specs():
    # condition_II internally cross-checks the bracket against the
    # first-order recursion and raises on disagreement
    F = make_field(5, 2)
    rng = random.Random(7)
    units = list(F.nonzero_elements())
    for _ in range(25):
        k = rng.choice([1, 2])
        l = rng.choice([1, 2, 3])
        spec = TypeSpec(
            field=F, t=1, k=k,
            lambdas=tuple(rng.choice(units) for _ in range(l)),
            eps1=rng.choice(units), eps2=rng.choice(units),
        )
        out = condition_II(spec)
        if isinstance(out, NotPerfect):
            assert out.reason == "zero-delta"
        else:
            assert len(out) == l and all(not d.is_zero() for d in out)


def test_case_one_constructor_random_fields():
    rng = random.Random(11)
    for p, t, k in [(7, 1, 1), (7, 1, 3), (5, 1, 2)]:
        F = make_field(p, 2)
        units = list(F.nonzero_elements())
        for _ in range(5):
            lambdas = tuple(rng.choice(units) for _ in range(2))
            eps2 = rng.choice(units)
            eps1 = case_one_eps1(F, t, k, lambdas, eps2)
            if eps1 is None:
                continue
            spec = TypeSpec(
                field=F, t=t, k=k, lambdas=lambdas, eps1=eps1, eps2=eps2
            )
            head = condition_II(spec)
            assert not isinstance(head, NotPerfect)
            assert classify_case(spec, head[-1]) == CASE_CLOSED
            seqs = generate_sequences(spec, 25)
            if isinstance(seqs, PerfectSequences):
                assert all(g.is_zero() for g in seqs.gammas.values())
                assert all(consistency_suite(seqs).values())


def test_balanced_cells_keep_degree_one_quotients():
    # wherever 2k = r - 1 every predicted quotient is scalar * T
    rng = random.Random(3)
    for p, k in [(3, 1), (5, 2), (7, 3)]:
        F = make_field(p, 2)
        units = list(F.nonzero_elements())
        spec = TypeSpec(
            field=F, t=1, k=k,
            lambdas=(rng.choice(units),),
            eps1=rng.choice(units), eps2=rng.choice(units),
        )
        rec = predict_expansion(spec, 30)
        if isinstance(rec, NotPerfect):
            continue
        assert all(q.degree() == 1 for q in rec.quotients)
        assert all(q.coefficient(0).is_zero() for q in rec.quotients)


def test_generate_rejects_silly_argument():
    with pytest.raises(ValueError):
        generate_sequences(corollary_spec(), 0)
