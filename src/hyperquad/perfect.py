"""Predicted expansions with linear-in-tower partial quotients.

For an expansion target the full quotient sequence can sometimes be
written a_n = lambda_n * A_{i(n)}, with A an explicit polynomial tower
and lambda_n scalars produced by first-order recursions.  Targets for
which this holds at every index are called perfect.  This module
decides perfectness, generates the scalar sequences delta, gamma and
lambda with their case split (closed case: the gamma obstruction
vanishes; open case: gamma must avoid poles and zeros forever), builds
the predicted expansion, and verifies it against the direct engine
quotient by quotient, with the prediction offered to that engine as
candidates it certifies or replaces.

The tower depends only on the seed pair (p, t, k), and build_tower makes
level j + 1 from level j alone, so a tower of depth d is a prefix of every
deeper one.  _tower keeps the deepest tower built per (p, t, k) and hands
out prefixes of it as fresh lists.  The first request for a pair calls
build_tower; a deeper request later grows the memo from its top level,
so each level is built once per pair.  _grow checks the degree cap before
it appends a level, so a BudgetError leaves the memo a correct tower.

The tower lies over F_p and each predicted quotient lambda_n * A_i(n) over
F_q.  Poly.scaled_into makes that product as one outer product of A's
coefficient column with the coordinates of lambda_n, mod p: an F_p
coefficient times an F_q element scales each coordinate.  A is monic and
lambda_n != 0, so the top row is coords(lambda_n) and the block is in
normal form.  The shape test of a direct quotient uses the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import contfrac
from ._gfkernel import frobenius_spread
from .contfrac import ExpansionRecord, UndefinedBracketError
from .ffield import FieldDesc, FieldElement, frobenius, frobenius_inverse
from .fpoly import Poly
from .hyper import _DEGREE_CAP, ConvergenceError, TypeSpec, expand_alpha
from .seedpair import (
    InternalConsistencyError,
    SeedPair,
    UndefinedValueError,
    build_seedpair,
    constants_in,
    eval_g,
    eval_h,
)

__all__ = [
    "CASE_CLOSED",
    "CASE_OPEN",
    "IndexMachinery",
    "NotPerfect",
    "PerfectSequences",
    "MatchReport",
    "BudgetError",
    "condition_II",
    "classify_case",
    "generate_sequences",
    "predict_expansion",
    "differential_verify",
    "case_one_eps1",
]

# case tags: III1 is the branch where the gamma seed vanishes, III2 the
# branch where a nonzero gamma sequence must survive indefinitely
CASE_CLOSED = "III1"
CASE_OPEN = "III2"


class BudgetError(RuntimeError):
    """A requested prediction needs tower polynomials beyond the cap."""


class IndexMachinery:
    """The index maps n -> f(n) and n -> i(n) for given (k, l).

    f(n) = (2k+1)n + l - 2k strictly exceeds n, so the tower level
    i(n) (1 off the image of f, else one more than the level of the
    preimage) is well defined by descent.
    """

    def __init__(self, k: int, l: int):
        if k < 1 or l < 1:
            raise ValueError("k and l must be positive")
        self.k = k
        self.l = l
        self._levels: dict[int, int] = {}

    def f(self, n: int) -> int:
        return (2 * self.k + 1) * n + self.l - 2 * self.k

    def preimage(self, n: int) -> int | None:
        """m with f(m) = n, or None."""
        m, rem = divmod(n - self.l + 2 * self.k, 2 * self.k + 1)
        return m if rem == 0 and m >= 1 else None

    def i(self, n: int) -> int:
        if n < 1:
            raise ValueError("indices start at 1")
        out = self._levels.get(n)
        if out is None:
            m = self.preimage(n)
            out = 1 if m is None else self.i(m) + 1
            self._levels[n] = out
        return out


# deepest tower built so far per (p, t, k); _tower reads it
_towers: dict[tuple[int, int, int], list[Poly]] = {}


def build_tower(pair: SeedPair, depth: int) -> list[Poly]:
    """A_1..A_depth over F_p: A_1 = T, then polynomial parts of A^r/Pk.

    When deg Pk = r - 1 the division is degree-neutral and the tower is
    constant T; otherwise degrees grow by a factor close to r per level.
    """
    return _grow(pair, [Poly.monomial(pair.field, 1)], depth)


def _grow(pair: SeedPair, A: list[Poly], depth: int) -> list[Poly]:
    """A, grown in place to depth levels, each made from the one below."""
    r = pair.p**pair.t
    while len(A) < depth:
        top = A[-1]
        d = top.degree() * r
        if d > _DEGREE_CAP:
            raise BudgetError(
                f"tower level {len(A) + 1} needs A_{len(A)}^r of degree {d}, "
                "past _DEGREE_CAP"
            )
        # over F_p, A(T)^r = A(T^r)
        spread = frobenius_spread(top.block(), pair.t, pair.field)
        A.append(Poly.from_block(pair.field, spread) // pair.Pk)
    return A


def _tower(pair: SeedPair, depth: int) -> list[Poly]:
    """A_1..A_depth over F_p, a fresh list read off the memo (module docstring)."""
    key = (pair.p, pair.t, pair.k)
    tower = _towers.get(key)
    if tower is None:
        tower = _towers[key] = build_tower(pair, depth)
    else:
        _grow(pair, tower, depth)
    return tower[:depth]


@dataclass(frozen=True)
class NotPerfect:
    """Structured breakdown report: where and why the pattern stops."""

    index: int
    reason: str  # zero-delta | zero-gamma | pole-of-g | pole-of-h
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"index": self.index, "reason": self.reason, "detail": self.detail}


@dataclass
class PerfectSequences:
    """Scalar sequences of a perfect expansion, generated to n_max."""

    spec: TypeSpec
    pair: SeedPair
    case: str
    n_max: int
    deltas: dict[int, FieldElement]  # indices 0..n_max
    gammas: dict[int, FieldElement]  # indices 1..n_max; zero in the closed case
    lambdas: dict[int, FieldElement]  # indices 1..n_max
    C0: FieldElement | None
    index: IndexMachinery

    def to_json_dict(self, prefix: int = 20) -> dict:
        def head(seq):
            keys = sorted(seq)[:prefix]
            return {str(i): str(seq[i]) for i in keys}

        return {
            "case": self.case,
            "C0": None if self.C0 is None else str(self.C0),
            "deltas": head(self.deltas),
            "gammas": head(self.gammas),
            "lambdas": head(self.lambdas),
        }

    def tower(self, n: int) -> list[Poly]:
        """A_1..A_d, d the deepest level i(m) of any m <= n: i(1) = 1 and f
        is increasing, so level j is first reached at m = f^(j-1)(1)."""
        depth, m = 1, self.index.f(1)
        while m <= n:
            depth, m = depth + 1, self.index.f(m)
        return _tower(self.pair, depth)


def condition_II(spec: TypeSpec):
    """The head deltas, or the breakdown making them undefinable.

    delta_n for 1 <= n <= l comes from the constants bracket
    [lambda_n^r, ..., lambda_1^r, 2k theta eps2^-1] scaled by 2k theta;
    the same values must satisfy the first-order recursion from
    delta_0 = -(omega eps2)^-1, and both routes are computed and
    compared.  Returns the list [delta_1..delta_l] or NotPerfect.
    """
    F, t, k = spec.field, spec.t, spec.k
    consts = constants_in(build_seedpair(spec.p, t, k), F)
    theta, omega = consts.theta, consts.omega
    two_k_theta = F.from_int(2 * k) * theta
    anchor = two_k_theta * spec.eps2.inverse()
    lam_r = [frobenius(lam, t) for lam in spec.lambdas]

    deltas = []
    prev = -(omega * spec.eps2).inverse()
    for n in range(1, spec.l + 1):
        try:
            bracket = contfrac.eval_finite_constants(
                lam_r[n - 1 :: -1] + [anchor]
            )
        except UndefinedBracketError as exc:
            raise InternalConsistencyError(
                f"bracket undefined at n={n} before a zero delta was seen: {exc}"
            ) from exc
        d_n = two_k_theta * bracket
        recursed = two_k_theta * lam_r[n - 1] - (omega * prev).inverse()
        if d_n != recursed:
            raise InternalConsistencyError(
                f"bracket and recursion disagree for delta_{n}"
            )
        if d_n.is_zero():
            return NotPerfect(
                index=n,
                reason="zero-delta",
                detail=f"head delta_{n} vanishes; the quotient pattern must break",
            )
        deltas.append(d_n)
        prev = d_n
    return deltas


def classify_case(spec: TypeSpec, delta_l: FieldElement) -> str:
    """Closed case iff delta_l equals 4k^2 theta (eps1/eps2)^r."""
    F, k = spec.field, spec.k
    theta = constants_in(build_seedpair(spec.p, spec.t, k), F).theta
    target = F.from_int(4 * k * k) * theta * frobenius(spec.eps1 / spec.eps2, spec.t)
    return CASE_CLOSED if delta_l == target else CASE_OPEN


def generate_sequences(spec: TypeSpec, n_max: int):
    """All three scalar sequences up to index n_max, or NotPerfect.

    In the open case the gamma values are pushed through the h family
    at gamma_n^r and must stay nonzero and off the poles; any failure
    is reported with its index, reason and the base index it came from.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    pair = build_seedpair(spec.p, spec.t, spec.k)
    F, t, k, l = spec.field, spec.t, spec.k, spec.l
    idx = IndexMachinery(k, l)
    consts = constants_in(pair, F)
    theta, omega = consts.theta, consts.omega

    head = condition_II(spec)
    if isinstance(head, NotPerfect):
        return head
    deltas = dict(enumerate([-(omega * spec.eps2).inverse(), *head]))
    lambdas = dict(enumerate(spec.lambdas, start=1))
    case = classify_case(spec, deltas[l])

    e1r = frobenius(spec.eps1, t)
    # each scalar below is needed to the power +1 or -1 by parity; the
    # pair (x^-1, x) indexed by the bool "power is +1" inverts x once
    e1r_pm = (e1r.inverse(), e1r)
    eps1_pm = (spec.eps1.inverse(), spec.eps1)
    gammas: dict[int, FieldElement] = {}
    C0 = None
    if case == CASE_OPEN:
        g1_r = (
            (F.from_int(4 * k * k) * theta * e1r * deltas[l].inverse()
             - frobenius(spec.eps2, t))
            * theta
            * frobenius(deltas[1], t).inverse()
        )
        gammas[1] = frobenius_inverse(g1_r, t)
        for n in range(2, l + 1):
            gammas[n] = gammas[n - 1] * (deltas[n] * deltas[n - 1] * omega).inverse()
        C0 = (
            gammas[l]
            * e1r
            * frobenius(deltas[1] * gammas[1], t).inverse()
            * (deltas[l] * omega).inverse()
        )
        if gammas[1].is_zero() or C0.is_zero():
            raise InternalConsistencyError("open case produced a zero gamma seed")
    else:
        for n in range(1, min(l, n_max) + 1):
            gammas[n] = F.zero

    n = 1
    while idx.f(n) <= n_max:
        fn = idx.f(n)
        x = frobenius(gammas[n], t) if case == CASE_OPEN else F.zero
        n_even = n % 2 == 0
        dn_r = frobenius(deltas[n], t)
        dn_r_pm = (dn_r.inverse(), dn_r)
        dn_pm = (deltas[n].inverse(), deltas[n])
        lam_r = frobenius(lambdas[n], t)
        for i in range(2 * k + 1):
            m = fn + i
            if m > n_max:
                break
            i_even = i % 2 == 0
            if case == CASE_CLOSED:  # x = 0, so g_i(x) is a pair constant
                gval = consts.g_at_zero[i]
            else:
                try:
                    gval = eval_g(pair, i, x)
                except UndefinedValueError:
                    return NotPerfect(
                        index=m,
                        reason="pole-of-g",
                        detail=f"g_{i} has a pole at gamma_{n}^r",
                    )
            d_new = e1r_pm[n_even == i_even] * dn_r_pm[i_even] * gval
            if d_new.is_zero():
                return NotPerfect(
                    index=m,
                    reason="zero-delta",
                    detail=f"g_{i}(gamma_{n}^r) = 0 kills delta_{m}",
                )
            deltas[m] = d_new
            if case == CASE_OPEN:
                try:
                    hval = eval_h(pair, i, x)
                except UndefinedValueError:
                    return NotPerfect(
                        index=m,
                        reason="pole-of-h",
                        detail=f"h_{i} has a pole at gamma_{n}^r",
                    )
                g_new = C0 * hval
                if g_new.is_zero():
                    return NotPerfect(
                        index=m,
                        reason="zero-gamma",
                        detail=f"h_{i}(gamma_{n}^r) = 0 kills gamma_{m}",
                    )
                gammas[m] = g_new
            else:
                gammas[m] = F.zero
            if i == 0:
                lambdas[m] = eps1_pm[n_even] * lam_r
            else:
                lambdas[m] = -(consts.v[i - 1] * eps1_pm[n_even == i_even] * dn_pm[i_even])
            if lambdas[m].is_zero():
                raise InternalConsistencyError(f"lambda_{m} vanished unexpectedly")
        n += 1

    return PerfectSequences(
        spec=spec,
        pair=pair,
        case=case,
        n_max=n_max,
        deltas={i: v for i, v in deltas.items() if i <= n_max},
        gammas={i: v for i, v in gammas.items() if 1 <= i <= n_max},
        lambdas={i: v for i, v in lambdas.items() if i <= n_max},
        C0=C0,
        index=idx,
    )


def predict_expansion(spec: TypeSpec, n_max: int):
    """Quotients lambda_n * A_{i(n)} for n <= n_max, or NotPerfect."""
    seqs = generate_sequences(spec, n_max)
    if isinstance(seqs, NotPerfect):
        return seqs
    return predicted_record_from(seqs, n_max)


def predicted_record_from(seqs: PerfectSequences, n_max: int) -> ExpansionRecord:
    if n_max > seqs.n_max:
        raise ValueError("sequences were not generated far enough")
    tower = seqs.tower(n_max)
    quotients = [
        tower[seqs.index.i(n) - 1].scaled_into(seqs.lambdas[n]) for n in range(1, n_max + 1)
    ]
    return contfrac.predicted_record(seqs.spec.field, quotients)


# -- differential verification ----------------------------------------------


@dataclass(frozen=True)
class MatchReport:
    """Outcome of comparing predicted and direct expansions."""

    n_requested: int
    n_checked: int
    case: str | None
    perfect: bool
    status: str  # match | mismatch | inconclusive
    first_mismatch: int | None
    failure: NotPerfect | None
    direct: ExpansionRecord | None
    predicted: ExpansionRecord | None
    sequences: PerfectSequences | None


def _scalar_quotient_shape(q: Poly, A: Poly) -> bool:
    """Is q a nonzero scalar multiple of the (monic, F_p) tower polynomial?"""
    if q.degree() != A.degree():
        return False
    return q == A.scaled_into(q.leading())


def differential_verify(spec: TypeSpec, n_max: int) -> MatchReport:
    """Compare the predicted expansion against the direct engine.

    Perfect targets must match quotient for quotient.  The direct engine
    takes the predicted quotients as candidates, so each one that is right
    costs a product in place of a division (hyper module docstring); the
    direct record is still the one the equation alone gives, and it is
    compared with the prediction as before.  For targets that
    are not perfect the direct expansion is scanned for the first index
    whose quotient is not a scalar multiple of its tower polynomial;
    the report is inconclusive if no such index shows up within n_max
    or if the degree cap is reached first.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    seqs = generate_sequences(spec, n_max)

    if isinstance(seqs, NotPerfect):
        failure = seqs
        case = None
        head = condition_II(spec)
        if not isinstance(head, NotPerfect):
            case = classify_case(spec, head[-1])
        idx = IndexMachinery(spec.k, spec.l)
        # staged direct expansion: breakdowns usually surface early, so
        # avoid expanding all n_max quotients before looking
        n_stage = min(n_max, 32)
        while True:
            try:
                direct = expand_alpha(spec, n_stage)
            except ConvergenceError:
                return MatchReport(
                    n_requested=n_max, n_checked=0, case=case, perfect=False,
                    status="inconclusive", first_mismatch=None, failure=failure,
                    direct=None, predicted=None, sequences=None,
                )
            bad = _first_shape_break(direct, spec, idx)
            if bad is not None:
                return MatchReport(
                    n_requested=n_max, n_checked=len(direct), case=case,
                    perfect=False, status="mismatch", first_mismatch=bad,
                    failure=failure, direct=direct, predicted=None,
                    sequences=None,
                )
            if n_stage >= n_max:
                return MatchReport(
                    n_requested=n_max, n_checked=len(direct), case=case,
                    perfect=False, status="inconclusive", first_mismatch=None,
                    failure=failure, direct=direct, predicted=None,
                    sequences=None,
                )
            n_stage = min(n_max, 2 * n_stage)

    predicted = predicted_record_from(seqs, n_max)
    try:
        direct = expand_alpha(spec, n_max, predicted.quotients)
    except ConvergenceError:
        direct = None
    if direct is None:
        status, first_bad, checked = "inconclusive", None, 0
    else:
        pairs = zip(direct.quotients, predicted.quotients)
        first_bad = next((j for j, (a, b) in enumerate(pairs, 1) if a != b), None)
        status = "match" if first_bad is None else "mismatch"
        checked = min(len(direct), len(predicted))
    return MatchReport(
        n_requested=n_max, n_checked=checked, case=seqs.case, perfect=True,
        status=status, first_mismatch=first_bad, failure=None,
        direct=direct, predicted=predicted, sequences=seqs,
    )


def _first_shape_break(direct: ExpansionRecord, spec: TypeSpec, idx) -> int | None:
    pair = build_seedpair(spec.p, spec.t, spec.k)
    levels = [idx.i(n) for n in range(1, len(direct) + 1)]
    tower = _tower(pair, max(levels))
    for n, (q, i) in enumerate(zip(direct.quotients, levels), start=1):
        if not _scalar_quotient_shape(q, tower[i - 1]):
            return n
    return None


# -- boundary-case constructors ---------------------------------------------


def case_one_eps1(
    field: FieldDesc, t: int, k: int, lambdas, eps2: FieldElement
) -> FieldElement | None:
    """The unique eps1 putting (lambdas, eps1, eps2) in the closed case.

    The head deltas do not involve eps1, so delta_l is computable first
    and the closed-case equation 4k^2 theta (eps1/eps2)^r = delta_l is
    solved by inverting the Frobenius power.  Returns None when the
    head deltas themselves break down.
    """
    probe = TypeSpec(
        field=field, t=t, k=k, lambdas=tuple(lambdas),
        eps1=field.one, eps2=eps2,
    )
    head = condition_II(probe)
    if isinstance(head, NotPerfect):
        return None
    theta = constants_in(build_seedpair(field.p, t, k), field).theta
    ratio_r = head[-1] * (field.from_int(4 * k * k) * theta).inverse()
    return eps2 * frobenius_inverse(ratio_r, t)
