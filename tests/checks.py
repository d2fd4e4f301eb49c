"""Cross-checks the tests share, kept out of the library.

The checks hold the library's output to laws it does not itself use:
the coupled laws of the generated scalar sequences (with their own
power-by-parity helper), the continuant determinants of a record and
the degree of an element over the prime field.  degenerate_next_lambda
builds a negative control, a head scalar that forces a breakdown.  The
file is not named test_*, so the test modules import it and pytest does
not collect it.
"""

from hyperquad.contfrac import ExpansionRecord
from hyperquad.ffield import FieldDesc, FieldElement, embed, frobenius, frobenius_inverse
from hyperquad.fpoly import Poly
from hyperquad.hyper import TypeSpec
from hyperquad.perfect import CASE_OPEN, NotPerfect, PerfectSequences, condition_II
from hyperquad.seedpair import (
    InternalConsistencyError,
    UndefinedValueError,
    build_seedpair,
    eval_h,
)


def _power_sign(x: FieldElement, positive: bool) -> FieldElement:
    return x if positive else x.inverse()


def consistency_suite(seqs: PerfectSequences) -> dict[str, bool]:
    """Cross-check the generated sequences against their coupled laws.

    All checks are over the already generated index range; any failure
    indicates an implementation bug (or a deliberately mutated input),
    never a property of the expansion target.
    """
    spec, pair = seqs.spec, seqs.pair
    F, t, k, l = spec.field, spec.t, spec.k, spec.l
    idx = seqs.index
    theta = embed(F, pair.theta)
    omega = embed(F, pair.omega)
    two_k_theta = F.from_int(2 * k) * theta
    e1r = frobenius(spec.eps1, t)
    deltas, gammas, lambdas = seqs.deltas, seqs.gammas, seqs.lambdas
    n_top = seqs.n_max
    report: dict[str, bool] = {}

    ok = True
    for n in range(1, n_top + 1):
        if n not in deltas or n not in lambdas:
            continue
        lhs = deltas[n]
        rhs = two_k_theta * theta ** (idx.i(n) - 1) * frobenius(
            lambdas[n], t
        ) - (omega * deltas[n - 1]).inverse()
        ok = ok and lhs == rhs
    report["delta_first_order"] = ok

    ok = True
    n = 1
    while idx.f(n) <= n_top:
        fn = idx.f(n)
        lhs = deltas[fn] + (omega * deltas[fn - 1]).inverse()
        rhs = (
            theta
            * _power_sign(e1r, n % 2 == 0)
            * (frobenius(deltas[n], t)
               + frobenius((omega * deltas[n - 1]).inverse(), t))
        )
        ok = ok and lhs == rhs
        n += 1
    report["delta_tower_step"] = ok

    ok = True
    n = 1
    while idx.f(n) <= n_top:
        fn = idx.f(n)
        dn_r = frobenius(deltas[n], t)
        for i in range(1, 2 * k + 1):
            m = fn + i
            if m > n_top:
                break
            lhs = deltas[m] + (omega * deltas[m - 1]).inverse()
            rhs = -(
                two_k_theta
                * embed(F, pair.v[i - 1])
                * _power_sign(e1r, (n + i) % 2 == 0)
                * _power_sign(dn_r, i % 2 == 0)
            )
            ok = ok and lhs == rhs
        n += 1
    report["delta_block_value"] = ok

    if seqs.case == CASE_OPEN:
        ok = True
        for n in range(2, n_top + 1):
            if n in gammas and (n - 1) in gammas:
                ok = ok and gammas[n] == gammas[n - 1] * (
                    deltas[n] * deltas[n - 1] * omega
                ).inverse()
        report["gamma_coupling"] = ok

        seed_a = (
            (F.from_int(4 * k * k) * theta * e1r * deltas[l].inverse()
             - frobenius(spec.eps2, t))
            * theta
            * frobenius(deltas[1], t).inverse()
        )
        seed_b = (
            (theta * frobenius(deltas[0], t).inverse()
             - e1r * deltas[l].inverse())
            * frobenius((omega * deltas[1]).inverse(), t)
        )
        report["gamma_seed_forms"] = seed_a == seed_b == frobenius(gammas[1], t)

        ok = True
        n = 1
        while idx.f(n) <= n_top:
            fn = idx.f(n)
            x = frobenius(gammas[n], t)
            try:
                h0 = eval_h(pair, 0, x)
                for i in range(1, 2 * k + 1):
                    m = fn + i
                    if m > n_top:
                        break
                    hi = eval_h(pair, i, x)
                    hprev = eval_h(pair, i - 1, x)
                    ok = ok and omega * deltas[m] * deltas[m - 1] == hprev / hi
                    ok = ok and gammas[m] == gammas[fn] * hi / h0
            except UndefinedValueError:
                ok = False
            n += 1
        report["gamma_block_ratios"] = ok
    else:
        report["gamma_identically_zero"] = all(
            g.is_zero() for g in gammas.values()
        )

    return report


def degenerate_next_lambda(
    field: FieldDesc, t: int, k: int, lambdas, eps2: FieldElement
) -> FieldElement:
    """A lambda_{l+1} that makes the next head delta vanish.

    Appending the returned scalar to the head forces a zero delta at
    index l+1, so the extended target must fail the definability
    condition there; used to construct negative controls.
    """
    probe = TypeSpec(
        field=field, t=t, k=k, lambdas=tuple(lambdas),
        eps1=field.one, eps2=eps2,
    )
    head = condition_II(probe)
    if isinstance(head, NotPerfect):
        raise ValueError("head already breaks down; nothing to extend")
    pair = build_seedpair(field.p, t, k)
    theta = embed(field, pair.theta)
    omega = embed(field, pair.omega)
    two_k_theta = field.from_int(2 * k) * theta
    lam_r = (omega * head[-1]).inverse() * two_k_theta.inverse()
    lam = frobenius_inverse(lam_r, t)
    if lam.is_zero():
        raise InternalConsistencyError("degenerate lambda collapsed to zero")
    return lam


def degree_over_prime(x: FieldElement) -> int:
    """Degree of the minimal polynomial of x over F_p."""
    p, s = x.field.p, x.field.s
    y = x
    for d in range(1, s + 1):
        y = y**p
        if y == x:
            return d
    raise AssertionError("Frobenius orbit did not close within s steps")


def determinants_hold(record: ExpansionRecord) -> bool:
    """x_n*y_(n-1) - x_(n-1)*y_n = (-1)^n at every recorded index."""
    xs, ys = record.numerators, record.denominators
    one = Poly.one(record.field)
    for n in range(1, len(xs)):
        det = xs[n] * ys[n - 1] - xs[n - 1] * ys[n]
        if det != (one if n % 2 == 0 else -one):
            return False
    return True
