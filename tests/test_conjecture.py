"""Orbit explorer tests: symbolic factor coverage."""

import pytest

from hyperquad import _gfkernel
from hyperquad.conjecture import (
    DEFAULT_BUDGET,
    DEFAULT_DEGREE_CAP,
    new_ledger,
    run_conjecture,
    step_orbit,
)
from hyperquad.fpoly import Poly, factor
from hyperquad.seedpair import build_seedpair, h_fraction


def test_first_generation_functions_over_f5():
    led = new_ledger(5)
    F = led.field
    led = step_orbit(led)
    assert led.depth == 1
    # theta = 2: x/(x+2), x/(4-x^2), x/(2-x), that is 2x/(2x-1),
    # 4x/(1-4x^2) and -2x/(2x+1), kept as the pairs the closed form builds
    x = Poly(F, [0, 1])
    assert led.frontier[2] == (x, Poly(F, [2, 1]))
    assert led.frontier[3] == (x, Poly(F, [4, 0, -1]))
    assert led.frontier[4] == (x, Poly(F, [2, -1]))


def test_first_generation_factor_haul_over_f5():
    led = step_orbit(new_ledger(5))
    F = led.field
    x = Poly.monomial(F, 1)
    # roots 0, 1/2 = 3, and +-1/2; the monic linear factors x, x+2, x+3
    expected = {
        x: 1,
        x + Poly.constant(F, F.from_int(2)): 2,
        x + Poly.constant(F, F.from_int(3)): 3,
    }
    assert led.seen_factors == expected
    assert led.nodes == 4
    assert not led.dropped


def test_depth_zero_report_contains_only_x():
    rep = run_conjecture(7, 0, 2)
    assert rep.depth == 0
    assert [r.found for r in rep.rows] == [1, 0, 0]
    assert rep.rows[0].total == 7
    assert rep.factors_found == 1
    assert not rep.truncated


def test_single_generation_report_over_f3():
    rep = run_conjecture(3, 1, 0)
    assert rep.rows[0].degree == 1
    assert rep.rows[0].total == 3
    assert rep.rows[0].found >= 1  # at least the factor x
    assert rep.non_power_of_two_degrees == ()


def test_all_factor_degrees_are_powers_of_two():
    rep = run_conjecture(3, 5, 4)
    assert rep.non_power_of_two_degrees == ()
    assert all(r.found <= r.total for r in rep.rows)
    assert rep.depth == 5
    # degree-1 coverage over F_3 is complete almost immediately
    assert rep.rows[0].found == rep.rows[0].total == 3


def test_coverage_monotone_in_depth():
    shallow = run_conjecture(3, 2, 3)
    deep = run_conjecture(3, 5, 3)
    for a, b in zip(shallow.rows, deep.rows):
        assert b.found >= a.found


def test_determinism_of_reports():
    a = run_conjecture(5, 4, 3)
    b = run_conjecture(5, 4, 3)
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


def test_json_shape():
    rep = run_conjecture(5, 2, 1)
    blob = rep.to_json_dict()
    assert sorted(blob) == [
        "coverage", "depth", "non_power_of_two_degrees", "p", "truncated",
    ]
    assert blob["coverage"][0] == {
        "degree": 1, "total": 5, "found": rep.rows[0].found
    }


def test_node_budget_truncates():
    rep = run_conjecture(5, 6, 1, budget=30)
    assert rep.truncated
    assert rep.depth < 6
    assert rep.nodes <= 30


def test_degree_cap_truncates():
    rep = run_conjecture(3, 6, 1, degree_cap=4)
    assert rep.truncated
    # capped branches are dropped, so nothing beyond the cap was kept
    full = run_conjecture(3, 6, 1)
    assert rep.factors_found <= full.factors_found


def test_ledger_rejects_nonpositive_budget_and_degree_cap():
    for bad in (0, -5):
        with pytest.raises(ValueError):
            new_ledger(3, budget=bad)
        with pytest.raises(ValueError):
            new_ledger(3, degree_cap=bad)
        with pytest.raises(ValueError):
            run_conjecture(3, 3, 1, budget=bad)
        with pytest.raises(ValueError):
            run_conjecture(3, 3, 1, degree_cap=bad)
    # the smallest legal values still run
    assert run_conjecture(3, 3, 1, budget=1).nodes == 1
    assert run_conjecture(3, 3, 0, degree_cap=1).nodes >= 1


def test_ledger_rejects_bad_prime():
    with pytest.raises(ValueError):
        new_ledger(4)
    with pytest.raises(ValueError):
        new_ledger(2)


def test_run_conjecture_rejects_negative_args():
    with pytest.raises(ValueError):
        run_conjecture(3, -1, 2)
    with pytest.raises(ValueError):
        run_conjecture(3, 2, -1)


def test_run_conjecture_rejects_rows_past_the_degree_cap():
    # the rows stop at the largest power of two within the cap
    for cap, top in ((1, 0), (4, 2), (7, 2), (4096, 12)):
        assert len(run_conjecture(3, 1, top, degree_cap=cap).rows) == top + 1
        with pytest.raises(ValueError, match="degree cap"):
            run_conjecture(3, 1, top + 1, degree_cap=cap)
    # checked before any walk or count, so a huge request fails at once
    with pytest.raises(ValueError, match="degree cap"):
        run_conjecture(3, 10, 10**9)


# -- the closed-form walk against the former generic composition -------------


def _compose(hnum, hden, num, den):
    # the former walk: h(num/den) cleared of denominators by substituting
    # and homogenising by the larger of the two map degrees
    D = max(hnum.degree(), hden.degree())
    field = num.field
    npow = [Poly.one(field)]
    dpow = [Poly.one(field)]
    for _ in range(D):
        npow.append(npow[-1] * num)
        dpow.append(dpow[-1] * den)

    def clear(h):
        acc = Poly.zero(field)
        for j, c in enumerate(h.coefficient(i) for i in range(h.degree() + 1)):
            if not c.is_zero():
                acc = acc + (npow[j] * dpow[D - j]).scaled(c)
        return acc

    return clear(hnum), clear(hden)


def _reduced(num, den):
    """num/den in lowest terms with a monic denominator, as the former walk kept it."""
    g = num.gcd(den)
    num, den = num // g, den // g
    inv = den.leading().inverse()
    return num.scaled(inv), den.scaled(inv)


def _degree(u):
    return max(u[0].degree(), u[1].degree())


def _full_ledger(seen, dropped, frontier, nodes, depth, truncated):
    return (
        list(seen.items()), list(dropped), list(frontier.items()),
        nodes, depth, truncated,
    )


def _reference_walk(p, depth, budget, degree_cap):
    """Full ledger after each generation, by the former walk from u_1 = x.

    Every kept child is rebuilt by composing the map with the node and
    reducing, and both its numerator and denominator are factored.
    """
    pair = build_seedpair(p, 1, 1)
    maps = [h_fraction(pair, i) for i in range(3)]
    seen, dropped = {}, []

    def record(u, index):
        for part in u:
            if part.degree() >= 1:
                for irr, _ in factor(part).factors:
                    seen.setdefault(irr, index)

    seed = (Poly.monomial(pair.field, 1), Poly.one(pair.field))
    frontier, nodes, gen, truncated = {1: seed}, 1, 0, False
    record(seed, 1)
    history = []
    for _ in range(depth):
        if nodes + 3 * len(frontier) > budget:
            truncated = True
            history.append(_full_ledger(seen, dropped, frontier, nodes, gen, truncated))
            break
        nxt = {}
        for n in sorted(frontier):
            u = frontier[n]
            for i, (hnum, hden) in enumerate(maps):
                index = 3 * n - 1 + i
                num, den = _compose(hnum, hden, *u)
                if den.is_zero():
                    dropped.append((index, "pole"))
                    continue
                rf = _reduced(num, den)
                if _degree(rf) < 1:
                    dropped.append((index, "constant"))
                    continue
                if _degree(rf) > degree_cap:
                    dropped.append((index, "degree-cap"))
                    truncated = True
                    continue
                record(rf, index)
                nxt[index] = rf
                nodes += 1
        frontier, gen = nxt, gen + 1
        history.append(_full_ledger(seen, dropped, frontier, nodes, gen, truncated))
        if not frontier:
            break
    return history


def _closed_form_walk(p, depth, budget, degree_cap):
    led = new_ledger(p, budget=budget, degree_cap=degree_cap)
    history = []
    for _ in range(depth):
        before = led.depth
        led = step_orbit(led)
        reduced = {n: _reduced(*u) for n, u in led.frontier.items()}
        history.append(
            _full_ledger(
                led.seen_factors, led.dropped, reduced,
                led.nodes, led.depth, led.truncated,
            )
        )
        if led.depth == before or not led.frontier:
            break
    return history


WALK_CASES = [
    # (p, depth, budget, degree_cap), all from u_1 = x
    (3, 5, DEFAULT_BUDGET, DEFAULT_DEGREE_CAP),
    (5, 5, DEFAULT_BUDGET, DEFAULT_DEGREE_CAP),
    (7, 4, DEFAULT_BUDGET, DEFAULT_DEGREE_CAP),
    (11, 3, DEFAULT_BUDGET, DEFAULT_DEGREE_CAP),
    (3, 7, DEFAULT_BUDGET, DEFAULT_DEGREE_CAP),
    (5, 6, DEFAULT_BUDGET, DEFAULT_DEGREE_CAP),
    (3, 6, DEFAULT_BUDGET, 4),
    (5, 6, 30, DEFAULT_DEGREE_CAP),
]


@pytest.mark.parametrize("p,depth,budget,degree_cap", WALK_CASES)
def test_closed_form_walk_matches_former_walk(p, depth, budget, degree_cap):
    want = _reference_walk(p, depth, budget, degree_cap)
    got = _closed_form_walk(p, depth, budget, degree_cap)
    assert got == want


def test_walk_nodes_are_coprime_pairs():
    # step_orbit takes no gcd; the module docstring proves none is needed
    for p, depth, budget, degree_cap in WALK_CASES:
        led = new_ledger(p, budget=budget, degree_cap=degree_cap)
        one = Poly.one(led.field)
        for _ in range(depth):
            led = step_orbit(led)
            for a, b in led.frontier.values():
                assert a.gcd(b) == one


def test_walk_takes_no_gcd(monkeypatch):
    led = new_ledger(5)

    def refuse(self, other):
        raise AssertionError("the orbit walk reduced a node")

    monkeypatch.setattr(Poly, "gcd", refuse)
    for _ in range(4):
        led = step_orbit(led)
    assert led.depth == 4
    assert led.nodes == 1 + 3 + 9 + 27 + 81


def test_walk_cases_drop_children_as_the_closed_form_predicts():
    # h_0 and h_2 keep a node's degree d and h_1 doubles it, so the middle
    # child is never kept without its h_0 sibling, which already recorded
    # plus.  From x no child is a pole or a constant: only the cap drops.
    reasons = set()
    for p, depth, budget, degree_cap in WALK_CASES:
        led = new_ledger(p, budget=budget, degree_cap=degree_cap)
        for _ in range(min(depth, 5)):
            parents, before = dict(led.frontier), led.depth
            led = step_orbit(led)
            if led.depth == before:
                break  # budget exhausted
            kept = led.frontier
            for n, u in parents.items():
                for i in (3 * n - 1, 3 * n + 1):
                    if i in kept:
                        assert _degree(kept[i]) == _degree(u)
                if 3 * n in kept:
                    assert 3 * n - 1 in kept
                    assert _degree(kept[3 * n]) == 2 * _degree(u)
        reasons |= {reason for _, reason in led.dropped}
    assert reasons == {"degree-cap"}


@pytest.mark.parametrize("p,depth", [(3, 5), (5, 4), (7, 3)])
def test_at_most_two_factorizations_per_frontier_node(monkeypatch, p, depth):
    calls = []
    real = _gfkernel.factor

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(_gfkernel, "factor", counting)
    led = new_ledger(p)
    for _ in range(depth):
        before, frontier = len(calls), len(led.frontier)
        led = step_orbit(led)
        assert len(calls) - before <= 2 * frontier


def _distinct_monic_parts(p, depth):
    """Distinct monic parts of a walk from x, by a test-side walk with no cap."""
    pair = build_seedpair(p, 1, 1)
    x = Poly.monomial(pair.field, 1)
    parts, frontier = {x}, [(x, Poly.one(pair.field))]
    for _ in range(depth):
        nxt = []
        for a, b in frontier:
            tb = b.scaled(pair.theta)
            plus, minus = tb + a, tb - a
            parts |= {q.monic() for q in (plus, minus) if q.degree() >= 1}
            nxt += [(a, plus), (a * b, plus * minus), (a, minus)]
        frontier = nxt
    return len(parts)


@pytest.mark.parametrize("p,depth,calls", [(3, 5, 35), (5, 5, 61), (7, 4, 37)])
def test_each_distinct_monic_part_is_factored_once(monkeypatch, p, depth, calls):
    # the benchmark's orbit requests; factoring each node's plus and minus
    # once would take 223, 219 and 77 calls, every part it is handed 445,
    # 437 and 153, and keying the parts without monic() 114 at p = 5 and
    # 65 at p = 7
    made = []
    real = _gfkernel.factor

    def counting(f, field):
        made.append(f.tobytes())
        return real(f, field)

    monkeypatch.setattr(_gfkernel, "factor", counting)
    run_conjecture(p, depth, 3)
    assert len(made) == calls == _distinct_monic_parts(p, depth)
    assert len(set(made)) == calls


def test_outer_children_share_a_part_with_their_parent():
    # with theta = -1/2 the h_0 child's plus is theta times its parent's
    # minus, and the h_2 child's minus theta times its parent's plus
    for p, depth, budget, degree_cap in WALK_CASES:
        led = new_ledger(p, budget=budget, degree_cap=degree_cap)
        theta = led.theta
        for _ in range(min(depth, 5)):
            parents, before = dict(led.frontier), led.depth
            led = step_orbit(led)
            if led.depth == before:
                break  # budget exhausted
            for n, (a, b) in parents.items():
                tb = b.scaled(theta)
                plus, minus = tb + a, tb - a
                if 3 * n - 1 in led.frontier:
                    a0, b0 = led.frontier[3 * n - 1]
                    assert b0.scaled(theta) + a0 == minus.scaled(theta)
                if 3 * n + 1 in led.frontier:
                    a2, b2 = led.frontier[3 * n + 1]
                    assert b2.scaled(theta) - a2 == plus.scaled(theta)
