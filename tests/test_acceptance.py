"""Acceptance sweep: nine numbered end-to-end checks.

Each test prints one `criterion N: PASS|FAIL` line so a full run reads
as a checklist (run pytest with -s to see the lines as they appear).
The heavy generators are shared: criteria 7 and 9 re-consume the data
produced for criteria 1 through 5 via a lazy module cache, so any test
can still run in isolation.

Depth policy for the big grid: quotients sit on a tower whose degrees
grow geometrically whenever r > 2k+1, so the direct engine's cost is
governed by the total quotient degree, not the quotient count.  Every
cell is therefore verified to the largest depth whose degree total fits
a fixed budget, and full 200-quotient runs are reserved for the cells
where that is affordable.  The bound of the unbounded cells is a real
wall: at (p, t, k) = (7, 2, 1) the fourth tower polynomial already has
degree 112747.
"""

import math
import random
import time
from fractions import Fraction
from functools import wraps

from hyperquad.cli import corollary_c_spec
from hyperquad.conjecture import run_conjecture
from hyperquad.contfrac import expand_rational
from hyperquad.exactq import q_coefficients_rational, v_sequence_rational, vp
from hyperquad.ffield import make_field
from hyperquad.fpoly import Poly
from hyperquad.hyper import TypeSpec, build_equation
from hyperquad.perfect import (
    CASE_CLOSED,
    CASE_OPEN,
    IndexMachinery,
    NotPerfect,
    case_one_eps1,
    differential_verify,
    generate_sequences,
)
from hyperquad.seedpair import admissible_set, build_seedpair, validate_identities

from checks import (
    consistency_suite,
    degenerate_next_lambda,
    degree_over_prime,
    determinants_hold,
)

# (p, t) pairs for the scalar-integrality grid and the full draw grid
GRID_PT = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]
FULL_PT = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)]

_BULK_DEGREE_CAP = 400
_DEEP_DEGREE_CAP = 2500
_BULK_N = 60

_CACHE: dict = {}
_FIELDS: dict = {}


def _criterion(number):
    """Print one checklist line for the wrapped test."""

    def deco(fn):
        @wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number}: FAIL")
                raise
            print(f"criterion {number}: PASS")

        return run

    return deco


def _field(p, s):
    if (p, s) not in _FIELDS:
        F = make_field(p, s)
        _FIELDS[(p, s)] = (F, list(F.nonzero_elements()))
    return _FIELDS[(p, s)]


# -- the reference over Q: polynomials are low-to-high lists of Fractions ----


def _qq_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _qq_euclid(num, den):
    """Euclid's quotients of num/den over Q, by schoolbook long division."""
    quotients = []
    while den:
        rem, q = list(num), [Fraction(0)] * (len(num) - len(den) + 1)
        for i in range(len(q) - 1, -1, -1):
            q[i] = rem[i + len(den) - 1] / den[-1]
            for j, d in enumerate(den):
                rem[i + j] -= q[i] * d
        quotients.append(_qq_trim(q))
        num, den = den, _qq_trim(rem)
    return quotients


def _rational_seed_polys(k):
    """P_k = (T^2 - 1)^k and Q_k = sum b_i T^(2i+1) with the exact constants."""
    Pk = [Fraction(0)] * (2 * k + 1)
    for j in range(k + 1):
        Pk[2 * j] = Fraction((-1) ** (k - j) * math.comb(k, j))
    Qk = [Fraction(0)] * (2 * k)
    for i, b in enumerate(q_coefficients_rational(k)):
        Qk[2 * i + 1] = b
    return Pk, Qk


def _depth_budget(p, t, k, l, cap, n_hi=_BULK_N):
    """Largest n <= n_hi whose quotient degrees total at most cap."""
    idx = IndexMachinery(k, l)
    levels = [idx.i(n) for n in range(1, n_hi + 1)]
    degs = [1]
    while len(degs) < max(levels):
        degs.append(p**t * degs[-1] - 2 * k)
    total = 0
    best = 0
    for n, lev in enumerate(levels, start=1):
        total += degs[lev - 1]
        if total > cap:
            break
        best = n
    return max(best, l + 1)


def _forced_draw(rng, field, units, t, k, l):
    """One random head with eps1 chosen to force the closed case.

    Returns None when the head scalars already break the definability
    condition, in which case no eps1 can force anything.
    """
    lams = tuple(rng.choice(units) for _ in range(l))
    eps2 = rng.choice(units)
    eps1 = case_one_eps1(field, t, k, lams, eps2)
    if eps1 is None:
        return None
    return TypeSpec(field=field, t=t, k=k, lambdas=lams, eps1=eps1, eps2=eps2)


def _consume(grid, rep):
    """Fold one verification report into the shared tallies.

    The determinant and recursion checks belong to later criteria, so
    their time is booked apart from the verification work itself.
    """
    t0 = time.monotonic()
    for rec in (rep.direct, rep.predicted):
        if rec is not None:
            grid["det_total"] += 1
            if not determinants_hold(rec):
                grid["det_bad"] += 1
    grid["det_elapsed"] += time.monotonic() - t0
    t0 = time.monotonic()
    if rep.sequences is not None:
        suite = consistency_suite(rep.sequences)
        grid["suite_total"] += 1
        bad = sorted(name for name, ok in suite.items() if not ok)
        if bad:
            grid["suite_bad"].append(bad)
    grid["suite_elapsed"] += time.monotonic() - t0


# -- shared producers --------------------------------------------------------


def _rational_records():
    if "rational" not in _CACHE:
        t0 = time.monotonic()
        out = []
        for k in range(1, 7):
            out.append((k, _qq_euclid(*_rational_seed_polys(k))))
        _CACHE["rational"] = {"records": out, "elapsed": time.monotonic() - t0}
    return _CACHE["rational"]


def _scalar_grid():
    if "scalar_grid" not in _CACHE:
        t0 = time.monotonic()
        out = []
        for p, t in GRID_PT:
            for k in admissible_set(p, t):
                pair = build_seedpair(p, t, k)
                out.append((p, t, k, pair, expand_rational(pair.Pk, pair.Qk)))
        _CACHE["scalar_grid"] = {"cells": out, "elapsed": time.monotonic() - t0}
    return _CACHE["scalar_grid"]


def _corollary():
    if "corollary" not in _CACHE:
        t0 = time.monotonic()
        spec = corollary_c_spec()
        rep = differential_verify(spec, 300)
        _CACHE["corollary"] = {
            "spec": spec,
            "equation": build_equation(spec),
            "report": rep,
            "elapsed": time.monotonic() - t0,
        }
    return _CACHE["corollary"]


# full 200-quotient runs on the cells where the tower stays affordable
_SHOWCASES = [
    (3, 1, 1, 3, 1),
    (3, 2, 4, 3, 1),
    (5, 1, 2, 3, 1),
    (5, 2, 12, 3, 1),
    (7, 1, 3, 3, 1),
    (7, 2, 24, 3, 1),
    (5, 1, 1, 2, 1),
    (7, 1, 1, 2, 1),
    (7, 1, 2, 2, 1),
]

# one balanced cell per prime carries the open-case witness over p^3
_OPEN_CELLS = [(3, 1), (5, 2), (7, 3)]


def _grid():
    if "grid" in _CACHE:
        return _CACHE["grid"]
    t0 = time.monotonic()
    rng = random.Random(0x5EED)
    grid = {
        "rows": [],
        "showcases": [],
        "deep": [],
        "open": [],
        "total_draws": 0,
        "qualified": 0,
        "cell_min_qualified": 30,
        "det_total": 0,
        "det_bad": 0,
        "det_elapsed": 0.0,
        "suite_total": 0,
        "suite_bad": [],
        "suite_elapsed": 0.0,
    }

    for p, t in FULL_PT:
        for k in admissible_set(p, t):
            for s in (1, 2, 3):
                F, units = _field(p, s)
                for l in (1, 2, 3):
                    n_bulk = _depth_budget(p, t, k, l, _BULK_DEGREE_CAP)
                    qualified = 0
                    for _ in range(30):
                        grid["total_draws"] += 1
                        spec = _forced_draw(rng, F, units, t, k, l)
                        if spec is None:
                            continue
                        qualified += 1
                        rep = differential_verify(spec, n_bulk)
                        grid["rows"].append(
                            ((p, t, k, s, l), n_bulk, rep.status, rep.case,
                             rep.n_checked)
                        )
                        _consume(grid, rep)
                    grid["qualified"] += qualified
                    grid["cell_min_qualified"] = min(
                        grid["cell_min_qualified"], qualified
                    )

    # one deeper draw per geometric cell, crossing an extra tower level
    for p, t in FULL_PT:
        for k in admissible_set(p, t):
            if p**t == 2 * k + 1:
                continue
            n_deep = _depth_budget(p, t, k, 1, _DEEP_DEGREE_CAP)
            F, units = _field(p, 1)
            for _ in range(8):
                spec = _forced_draw(rng, F, units, t, k, 1)
                if spec is not None:
                    break
            rep = differential_verify(spec, n_deep)
            grid["deep"].append(((p, t, k), n_deep, rep.status, rep.n_checked))
            _consume(grid, rep)

    for p, t, k, s, l in _SHOWCASES:
        F, units = _field(p, s)
        for _ in range(8):
            spec = _forced_draw(rng, F, units, t, k, l)
            if spec is not None:
                break
        rep = differential_verify(spec, 200)
        grid["showcases"].append(
            ((p, t, k, s, l), rep.status, rep.case, rep.n_checked)
        )
        _consume(grid, rep)

    # open-case draws can die far past the head (the gamma orbit may
    # reach a pole of a branch map), so screen the whole sequence run
    for p, k in _OPEN_CELLS:
        F, units = _field(p, 3)
        report = None
        for _ in range(200):
            spec = TypeSpec(
                field=F, t=1, k=k,
                lambdas=(rng.choice(units),),
                eps1=rng.choice(units), eps2=rng.choice(units),
            )
            seqs = generate_sequences(spec, 200)
            if isinstance(seqs, NotPerfect) or seqs.case != CASE_OPEN:
                continue
            report = differential_verify(spec, 200)
            break
        grid["open"].append((p, report))
        if report is not None:
            _consume(grid, report)

    grid["elapsed"] = time.monotonic() - t0
    _CACHE["grid"] = grid
    return grid


# cheap cells for the negative direction; the zero is planted in the head
_NEGATIVE_CELLS = [
    (3, 1, 1, 1), (3, 2, 4, 1), (5, 1, 1, 1), (5, 1, 2, 2),
    (5, 2, 12, 2), (7, 1, 2, 1), (7, 1, 3, 3), (7, 2, 24, 2),
    (3, 1, 1, 2), (5, 1, 2, 3),
]


def _negatives():
    if "negatives" in _CACHE:
        return _CACHE["negatives"]
    rng = random.Random(0xD0DA)
    out = []
    slot = 0
    while len(out) < 20:
        p, t, k, s = _NEGATIVE_CELLS[slot % len(_NEGATIVE_CELLS)]
        l = 2 + (slot % 2)
        zero_at = 2 if l == 2 else 2 + (slot // 2) % 2
        slot += 1
        F, units = _field(p, s)
        spec = None
        for _ in range(40):
            head = [rng.choice(units) for _ in range(zero_at - 1)]
            eps2 = rng.choice(units)
            try:
                lam = degenerate_next_lambda(F, t, k, head, eps2)
            except ValueError:
                continue
            head.append(lam)
            while len(head) < l:
                head.append(rng.choice(units))
            spec = TypeSpec(
                field=F, t=t, k=k, lambdas=tuple(head),
                eps1=rng.choice(units), eps2=eps2,
            )
            break
        assert spec is not None, f"could not plant a zero at {(p, t, k, s)}"
        rep = differential_verify(spec, 200)
        out.append((spec, zero_at, rep))
    _CACHE["negatives"] = out
    return out


# -- the nine criteria -------------------------------------------------------


@_criterion(1)
def test_rational_expansion_identity():
    data = _rational_records()
    for k, quotients in data["records"]:
        assert len(quotients) == 2 * k
        assert quotients == [[0, v] for v in v_sequence_rational(k)]
    first = dict(data["records"])
    assert first[1] == [[0, 1], [0, -1]]
    assert first[2] == [
        [0, 3],
        [0, Fraction(1, 3)],
        [0, Fraction(-3, 4)],
        [0, Fraction(-4, 3)],
    ]
    assert data["elapsed"] < 1.0


@_criterion(2)
def test_scalar_integrality_grid():
    data = _scalar_grid()
    t0 = time.monotonic()
    seen = set()
    for p, t, k, pair, rec in data["cells"]:
        seen.add((p, t))
        for v in v_sequence_rational(k):
            assert vp(v, p) == 0
        for i in range(2 * k + 1):
            assert vp(math.comb(2 * k, i), p) == 0
        for b in q_coefficients_rational(k):
            assert vp(b, p) >= 0
        want = [Poly.monomial(pair.field, 1, v) for v in pair.v]
        assert rec.quotients == want
    assert seen == set(GRID_PT)
    assert admissible_set(3, 1) == [1]
    assert admissible_set(5, 1) == [1, 2]
    assert admissible_set(5, 2) == [1, 2, 7, 12]
    assert data["elapsed"] + (time.monotonic() - t0) < 5.0


@_criterion(3)
def test_f27_preset_end_to_end():
    data = _corollary()
    spec, eq, rep = data["spec"], data["equation"], data["report"]
    F, u = spec.field, spec.field.u

    assert eq.lead == Poly.one(F)
    assert eq.second == Poly.monomial(F, 1, -F.one)
    assert eq.linear == Poly.monomial(F, 1, -(u**3))
    assert eq.constant == Poly(F, [-(u**6), F.zero, u])

    assert rep.status == "match" and rep.case == CASE_OPEN
    assert rep.n_checked == 300
    assert all(q.degree() == 1 for q in rep.direct.quotients)
    first_five = [F.one, u**7, u**2, u**11, -u]
    assert rep.direct.quotients[:5] == [
        Poly.monomial(F, 1, c) for c in first_five
    ]

    seqs = rep.sequences
    assert seqs.gammas[1] == u
    assert seqs.C0 == F.one
    assert seqs.deltas[1] == u**4
    assert all(
        degree_over_prime(seqs.gammas[n]) == 3 for n in range(1, 301)
    )
    assert data["elapsed"] < 30.0


@_criterion(4)
def test_forced_case_grid_matches():
    grid = _grid()

    assert grid["total_draws"] == 162 * 30
    # a draw that fails the definability condition carries no claim;
    # every other draw must match at its budgeted depth, and no cell
    # may come up empty (over F_3 only a couple of heads survive)
    assert grid["qualified"] >= 4000
    assert grid["cell_min_qualified"] >= 1
    for cell, n_bulk, status, case, n_checked in grid["rows"]:
        assert status == "match", (cell, status)
        assert case == CASE_CLOSED, (cell, case)
        assert n_checked == n_bulk, (cell, n_checked, n_bulk)

    assert len(grid["deep"]) == 12
    for cell, n_deep, status, n_checked in grid["deep"]:
        assert status == "match" and n_checked == n_deep, (cell, status)

    assert len(grid["showcases"]) == len(_SHOWCASES)
    for cell, status, case, n_checked in grid["showcases"]:
        assert status == "match" and case == CASE_CLOSED, (cell, status)
        assert n_checked == 200, (cell, n_checked)

    assert [p for p, _ in grid["open"]] == [3, 5, 7]
    for p, rep in grid["open"]:
        assert rep is not None, f"no open-case draw found over p={p}"
        assert rep.status == "match" and rep.case == CASE_OPEN
        assert rep.n_checked == 200

    verify_time = grid["elapsed"] - grid["det_elapsed"] - grid["suite_elapsed"]
    assert verify_time < 300.0


@_criterion(5)
def test_planted_zero_forces_mismatch():
    data = _negatives()
    assert len(data) == 20
    for spec, zero_at, rep in data:
        assert rep.status == "mismatch"
        assert rep.failure is not None
        assert rep.failure.index == zero_at
        assert rep.first_mismatch is not None
        assert rep.first_mismatch <= 200


@_criterion(6)
def test_identity_suite_and_seed_forms():
    for p, t, k, pair, _ in _scalar_grid()["cells"]:
        report = validate_identities(pair)
        assert len(report) >= 8
        bad = sorted(name for name, ok in report.items() if not ok)
        assert not bad, (p, t, k, bad)

    # both closed forms of the first gamma must agree on random targets
    rng = random.Random(0xF00D)
    agreed = 0
    attempts = 0
    while agreed < 200:
        attempts += 1
        assert attempts < 5000
        p, t = FULL_PT[rng.randrange(len(FULL_PT))]
        k = rng.choice(admissible_set(p, t))
        F, units = _field(p, rng.randrange(1, 4))
        l = rng.randrange(1, 4)
        spec = TypeSpec(
            field=F, t=t, k=k,
            lambdas=tuple(rng.choice(units) for _ in range(l)),
            eps1=rng.choice(units), eps2=rng.choice(units),
        )
        seqs = generate_sequences(spec, spec.l + 1)
        if isinstance(seqs, NotPerfect) or seqs.case != CASE_OPEN:
            continue
        suite = consistency_suite(seqs)
        assert suite["gamma_seed_forms"] is True
        agreed += 1


@_criterion(7)
def test_recursion_consistency_sweep():
    grid = _grid()
    assert grid["suite_total"] >= 4000
    assert grid["suite_bad"] == []

    cor = _corollary()
    suite = consistency_suite(cor["report"].sequences)
    assert suite and all(suite.values())

    # a corrupted delta must trip the first-order recursion check
    mutated = generate_sequences(corollary_c_spec(), 40)
    mutated.deltas[7] = mutated.deltas[7] * mutated.spec.field.u
    broken = consistency_suite(mutated)
    assert broken["delta_first_order"] is False


@_criterion(8)
def test_orbit_factor_coverage():
    t0 = time.monotonic()
    for p, deep_depth in ((3, 7), (5, 6)):
        shallow = run_conjecture(p, 4, 2, budget=50_000)
        deep = run_conjecture(p, deep_depth, 2, budget=50_000)
        for rep in (shallow, deep):
            assert not rep.non_power_of_two_degrees
            assert not rep.truncated
            assert rep.nodes <= 50_000
        assert [row.degree for row in deep.rows] == [1, 2, 4]
        for row in deep.rows:
            assert row.found <= row.total
            if row.degree <= 2:
                assert row.found > 0
        for row_s, row_d in zip(shallow.rows, deep.rows):
            assert row_s.degree == row_d.degree
            assert row_s.found <= row_d.found
    assert time.monotonic() - t0 < 300.0


@_criterion(9)
def test_determinants_on_every_record():
    checked = 0
    for _, _, _, _, rec in _scalar_grid()["cells"]:
        assert determinants_hold(rec)
        checked += 1
    rep = _corollary()["report"]
    assert determinants_hold(rep.direct)
    assert determinants_hold(rep.predicted)
    checked += 2
    for _, _, neg_rep in _negatives():
        assert determinants_hold(neg_rep.direct)
        checked += 1
    grid = _grid()
    assert grid["det_bad"] == 0
    assert grid["det_total"] >= 8000
    checked += grid["det_total"]
    assert checked >= 8000
