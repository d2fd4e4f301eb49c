"""Factor coverage of the iterated h-family orbit over a prime field.

Starting from u_1 = x, each node u spawns the three children h_0(u),
h_1(u), h_2(u) of the k = 1 family, h_0 = x/(theta+x), h_1 =
-2 theta x/(theta^2-x^2) and h_2 = x/(theta-x) with theta = -1/2.  A
node is stored as the coprime pair (a, b) with u = a/b.  With plus =
theta b + a and minus = theta b - a, its children are the pairs
(a, plus), (ab, plus minus) and (a, minus), since -2 theta = 1, and they
are coprime again: gcd(a, theta b +- a) = gcd(b, theta b +- a) = 1, and
gcd(plus, minus) divides 2 theta b and 2a, so it is 1 as p is odd and
theta != 0.  So no node is ever reduced; a pair is a/b up to a unit,
which changes neither degrees nor the monic irreducibles it factors
into.  From u_1 = x every node is non-constant: the h_i are non-constant
maps, so they send a non-constant u to a non-constant u.  Hence plus
and minus never vanish (theta b +- a = 0 would make u = -+theta) and no
child is a pole or a constant; the only children left out are those
past the degree cap.  The factors of a and b were recorded with the
parent, so a node factors only plus and minus.  Every monic irreducible
dividing a numerator or denominator along the way is collected with the
first orbit index that shows it, and the haul is compared against the
full census of irreducibles whose degree is a power of two.  The
inclusion (only power-of-two degrees show up) is proved; equality is
the open question this explorer probes.

Each distinct monic part is factored once per walk.  The walk records
nodes in increasing orbit index: generation g covers the interval
[(3^g+1)/2, (3^(g+1)-1)/2], the frontier is visited in sorted order, and
the children 3n-1, 3n, 3n+1 increase with n.  So a part seen before had
its irreducibles recorded at a smaller index, which seen_factors keeps,
and skipping it changes nothing.  Repeats are common.  Some are
structural: as theta + 1 = -theta, the h_0 child (a, plus) has plus
theta plus + a = theta^2 b - theta a = theta minus, and the h_2 child
(a, minus) has minus theta minus - a = theta plus.  Low-degree parts
also recur often in small fields.

A numeric companion walks the same maps on finite-field elements,
twisted by a Frobenius power, and records element degrees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .exactq import is_prime
from .ffield import FieldDesc, FieldElement, degree_over_prime, frobenius
from .fpoly import Poly, factor, irreducibles
from .seedpair import (
    InternalConsistencyError,
    SeedPair,
    UndefinedValueError,
    build_seedpair,
    eval_h,
)

__all__ = [
    "OrbitLedger",
    "CoverageRow",
    "CoverageReport",
    "GeneralOrbitTrace",
    "new_ledger",
    "step_orbit",
    "run_conjecture",
    "general_k_orbit",
    "DEFAULT_BUDGET",
    "DEFAULT_DEGREE_CAP",
]

DEFAULT_BUDGET = 50_000
DEFAULT_DEGREE_CAP = 4_096


@dataclass
class OrbitLedger:
    """Frontier-only state of the breadth-first orbit walk.

    Only the last generation is kept, each node as its coprime pair
    (a, b) keyed by orbit index: h_0 and h_2 keep a node's degree
    max(deg a, deg b) and h_1 doubles it, so the whole tree would sink
    the explorer.  Factors live in seen_factors with the orbit index that
    first produced them, and factored holds the monic parts already
    factored; dropped lists the children cut by the degree cap.
    """

    p: int
    field: FieldDesc
    theta: FieldElement
    frontier: dict[int, tuple[Poly, Poly]]
    seen_factors: dict[Poly, int]
    factored: set[Poly]
    dropped: list[tuple[int, str]]
    depth: int
    nodes: int
    budget: int
    degree_cap: int
    truncated: bool


def _record_factors(ledger: OrbitLedger, index: int, *parts: Poly) -> None:
    for part in parts:
        key = part.monic()
        if key.degree() < 1 or key in ledger.factored:
            continue
        ledger.factored.add(key)
        for irr, _mult in factor(key).factors:
            ledger.seen_factors.setdefault(irr, index)


def new_ledger(
    p: int,
    budget: int = DEFAULT_BUDGET,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> OrbitLedger:
    """Fresh ledger holding generation zero, u_1 = x."""
    if not is_prime(p) or p == 2:
        raise ValueError("the orbit lives over an odd prime field")
    if budget < 1 or degree_cap < 1:
        raise ValueError("budget and degree cap must be positive")
    pair = build_seedpair(p, 1, 1)
    field = pair.field
    x = Poly.monomial(field, 1)
    ledger = OrbitLedger(
        p=p,
        field=field,
        theta=pair.theta,
        frontier={1: (x, Poly.one(field))},
        seen_factors={},
        factored=set(),
        dropped=[],
        depth=0,
        nodes=1,
        budget=budget,
        degree_cap=degree_cap,
        truncated=False,
    )
    _record_factors(ledger, 1, x)
    return ledger


def step_orbit(ledger: OrbitLedger) -> OrbitLedger:
    """Advance one generation; budget exhaustion leaves depth unchanged.

    Frontier node n = (a, b) gets the coprime children (a, plus),
    (ab, plus minus) and (a, minus) of the module docstring at orbit
    indices 3n-1, 3n, 3n+1, built without a gcd.  Each child hands its
    new parts (plus, minus or both) to the ledger, which factors a part
    only if its monic form was not factored before in this walk: nodes
    are visited in increasing orbit index, so a repeat's irreducibles
    are already recorded at a smaller index (see the module docstring).
    A child beyond the degree cap is logged in `dropped` and spawns
    nothing, with the truncation flag raised.
    """
    demand = 3 * len(ledger.frontier)
    if ledger.nodes + demand > ledger.budget:
        ledger.truncated = True
        return ledger
    nxt: dict[int, tuple[Poly, Poly]] = {}
    for n in sorted(ledger.frontier):
        a, b = ledger.frontier[n]
        tb = b.scaled(ledger.theta)
        plus, minus = tb + a, tb - a
        children = (
            (a, plus, (plus,)),
            (a * b, plus * minus, (plus, minus)),
            (a, minus, (minus,)),
        )
        for i, (num, den, parts) in enumerate(children):
            index = 3 * n - 1 + i
            if max(num.degree(), den.degree()) > ledger.degree_cap:
                ledger.dropped.append((index, "degree-cap"))
                ledger.truncated = True
                continue
            _record_factors(ledger, index, *parts)
            nxt[index] = (num, den)
            ledger.nodes += 1
    ledger.frontier = nxt
    ledger.depth += 1
    return ledger


@dataclass(frozen=True)
class CoverageRow:
    degree: int
    total: int
    found: int

    @property
    def fraction(self) -> float:
        return self.found / self.total

    def __post_init__(self):
        if not 0 <= self.found <= self.total:
            raise InternalConsistencyError(
                f"found {self.found} of {self.total} irreducibles of degree {self.degree}"
            )


@dataclass(frozen=True)
class CoverageReport:
    p: int
    depth: int
    max_log_degree: int
    rows: tuple[CoverageRow, ...]
    non_power_of_two_degrees: tuple[int, ...]
    truncated: bool
    nodes: int
    factors_found: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "depth": self.depth,
            "coverage": [
                {"degree": r.degree, "total": r.total, "found": r.found}
                for r in self.rows
            ],
            "non_power_of_two_degrees": list(self.non_power_of_two_degrees),
            "truncated": self.truncated,
        }


def run_conjecture(
    p: int,
    depth: int,
    max_log_degree: int,
    budget: int = DEFAULT_BUDGET,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> CoverageReport:
    """Walk the orbit `depth` generations and tally factor coverage.

    Raises ValueError when 2^max_log_degree exceeds degree_cap, as an
    orbit from x records no factor above the cap.  Raises
    InternalConsistencyError if any recorded factor has a degree that is
    not a power of two: that direction is proved, so seeing a violation
    means the arithmetic is broken, not the claim.
    """
    if depth < 0 or max_log_degree < 0:
        raise ValueError("depth and max-log-degree must be nonnegative")
    ledger = new_ledger(p, budget=budget, degree_cap=degree_cap)
    if max_log_degree >= degree_cap.bit_length():
        raise ValueError(f"2^max-log-degree must not exceed the degree cap {degree_cap}")
    for _ in range(depth):
        before = ledger.depth
        ledger = step_orbit(ledger)
        if ledger.depth == before or not ledger.frontier:
            break
    degree_counts = Counter(f.degree() for f in ledger.seen_factors)
    bad = sorted(d for d in degree_counts if d & (d - 1))
    if bad:
        raise InternalConsistencyError(
            f"factors of non-power-of-two degree {bad} recorded; "
            "the proved inclusion rules this out"
        )
    rows = tuple(
        CoverageRow(
            degree=1 << j,
            total=irreducibles(p, 1 << j),
            found=degree_counts.get(1 << j, 0),
        )
        for j in range(max_log_degree + 1)
    )
    return CoverageReport(
        p=p,
        depth=ledger.depth,
        max_log_degree=max_log_degree,
        rows=rows,
        non_power_of_two_degrees=tuple(bad),
        truncated=ledger.truncated,
        nodes=ledger.nodes,
        factors_found=len(ledger.seen_factors),
    )


# -- numeric companion on finite-field elements ------------------------------


@dataclass(frozen=True)
class GeneralOrbitTrace:
    """Reachable set of the numeric orbit x -> h_i(x^r) with degrees."""

    pair: SeedPair
    depth: int
    seen: dict[FieldElement, int]  # value -> first generation
    degree_counts: dict[int, int]
    poles: tuple[tuple[int, int, FieldElement], ...]  # (generation, i, value)

    @property
    def degrees(self) -> set[int]:
        return set(self.degree_counts)


def general_k_orbit(
    pair: SeedPair, seeds, depth: int
) -> GeneralOrbitTrace:
    """Numeric orbit for any admissible k, deduplicated by value.

    The walk applies every h_i to the r-th power of each frontier
    element and records the degree of each reachable value over the
    prime field; pole hits terminate that branch with a record.  The
    ambient field is taken from the seeds, so constants embed wherever
    the caller works.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    seen: dict[FieldElement, int] = {}
    frontier: list[FieldElement] = []
    for s in seeds:
        if not isinstance(s, FieldElement):
            raise TypeError("seeds must be field elements")
        if s not in seen:
            seen[s] = 0
            frontier.append(s)
    poles: list[tuple[int, int, FieldElement]] = []
    for gen in range(1, depth + 1):
        if not frontier:
            break
        nxt: list[FieldElement] = []
        for x in frontier:
            y = frobenius(x, pair.t)
            for i in range(2 * pair.k + 1):
                try:
                    z = eval_h(pair, i, y)
                except UndefinedValueError:
                    poles.append((gen, i, x))
                    continue
                if z not in seen:
                    seen[z] = gen
                    nxt.append(z)
        frontier = nxt
    degree_counts = dict(Counter(degree_over_prime(v) for v in seen))
    return GeneralOrbitTrace(
        pair=pair,
        depth=depth,
        seen=seen,
        degree_counts=degree_counts,
        poles=tuple(poles),
    )
