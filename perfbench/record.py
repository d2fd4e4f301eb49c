"""Regenerate reference.json: the request pools and their output digests.

    python3 perfbench/record.py

Pools are drawn with fixed generators, run once through the library, and
kept only when the run returns the expected status, so every stored
request succeeds at the commit that recorded it.  A benchmark run never
calls this; it reads the stored file and compares each output against the
digest recorded here.  Recording takes about a minute on one core.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hyperquad.cli import corollary_c_spec  # noqa: E402
from hyperquad.conjecture import run_conjecture  # noqa: E402
from hyperquad.ffield import make_field  # noqa: E402
from hyperquad.hyper import TypeSpec  # noqa: E402
from hyperquad.perfect import (  # noqa: E402
    CASE_CLOSED,
    CASE_OPEN,
    IndexMachinery,
    NotPerfect,
    case_one_eps1,
    differential_verify,
    generate_sequences,
    predict_expansion,
)
from hyperquad.seedpair import admissible_set  # noqa: E402

from workloads import REFERENCE, orbit_digest, quotient_digest  # noqa: E402

# the acceptance grid and its depth policy
GRID_PT = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)]
GRID_S = (1, 2, 3)
GRID_L = (1, 2, 3)
GRID_DEGREE_CAP = 400
GRID_N_MAX = 60
CLOSED_DRAWS = 3
OPEN_DRAWS = 2
OPEN_ATTEMPTS = 60

# geometric-tower cells (r > 2k+1), each at the largest n that keeps one
# verification near a second; see README.md for the sizes and why
DEEP_CELLS = [
    ((5, 1, 1, 1, 1), 200),
    ((5, 1, 1, 2, 1), 200),
    ((7, 1, 1, 1, 1), 121),
    ((3, 2, 1, 1, 1), 121),
]
DEEP_DRAWS = 3
COROLLARY_N = 600

ORBITS = [(3, 5), (5, 5), (7, 4)]
ORBIT_MAX_LOG_DEGREE = 3


def depth_budget(p, t, k, l, cap=GRID_DEGREE_CAP, n_hi=GRID_N_MAX):
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


def _entry(spec: TypeSpec, l: int, n: int, case: str, digest: str) -> dict:
    F = spec.field
    return {
        "cell": [F.p, spec.t, spec.k, F.s, l],
        "modulus": list(F.modulus),
        "n": n,
        "lambdas": [list(x.coeffs) for x in spec.lambdas],
        "eps1": list(spec.eps1.coeffs),
        "eps2": list(spec.eps2.coeffs),
        "case": case,
        "digest": digest,
    }


def _verified(spec, l, n, case):
    """Entry for spec if it verifies with the expected case, else None."""
    rep = differential_verify(spec, n)
    if rep.status != "match" or rep.case != case:
        return None
    digest = quotient_digest(rep.direct.quotients)
    pred = predict_expansion(spec, n)
    if isinstance(pred, NotPerfect) or quotient_digest(pred.quotients) != digest:
        return None
    return _entry(spec, l, n, case, digest)


def _closed_draws(rng, F, t, k, l, n, count):
    units = list(F.nonzero_elements())
    out = []
    for _ in range(20 * count):
        if len(out) == count:
            break
        lams = tuple(rng.choice(units) for _ in range(l))
        eps2 = rng.choice(units)
        eps1 = case_one_eps1(F, t, k, lams, eps2)
        if eps1 is None:
            continue
        spec = TypeSpec(field=F, t=t, k=k, lambdas=lams, eps1=eps1, eps2=eps2)
        e = _verified(spec, l, n, CASE_CLOSED)
        if e is not None:
            out.append(e)
    return out


def grid_pools():
    closed, open_ = [], []
    for p, t in GRID_PT:
        for k in admissible_set(p, t):
            rng = random.Random(f"grid:{p}:{t}:{k}")
            for s in GRID_S:
                F = make_field(p, s)
                for l in GRID_L:
                    n = depth_budget(p, t, k, l)
                    closed += _closed_draws(rng, F, t, k, l, n, CLOSED_DRAWS)
            found = []
            for _ in range(OPEN_ATTEMPTS):
                if len(found) == OPEN_DRAWS:
                    break
                s, l = rng.choice(GRID_S), rng.choice(GRID_L)
                F = make_field(p, s)
                units = list(F.nonzero_elements())
                spec = TypeSpec(
                    field=F, t=t, k=k,
                    lambdas=tuple(rng.choice(units) for _ in range(l)),
                    eps1=rng.choice(units), eps2=rng.choice(units),
                )
                n = depth_budget(p, t, k, l)
                seqs = generate_sequences(spec, n)
                if isinstance(seqs, NotPerfect) or seqs.case != CASE_OPEN:
                    continue
                e = _verified(spec, l, n, CASE_OPEN)
                if e is not None:
                    found.append(e)
            open_ += found
            print(f"grid ({p},{t},{k}): {len(closed)} closed, {len(open_)} open", flush=True)
    return {"closed": closed, "open": open_}


def deep_pools():
    out = []
    for (p, t, k, s, l), n in DEEP_CELLS:
        rng = random.Random(f"deep:{p}:{t}:{k}:{s}")
        out += _closed_draws(rng, make_field(p, s), t, k, l, n, DEEP_DRAWS)
        print(f"deep ({p},{t},{k},{s}) n={n}: {len(out)} entries", flush=True)
    spec = corollary_c_spec()
    out.append(_verified(spec, spec.l, COROLLARY_N, CASE_OPEN))
    return {"verify": out}


def orbit_pools():
    out = []
    for p, depth in ORBITS:
        rep = run_conjecture(p, depth, ORBIT_MAX_LOG_DEGREE)
        out.append(
            {"p": p, "depth": depth, "max_log_degree": ORBIT_MAX_LOG_DEGREE,
             "digest": orbit_digest(rep)}
        )
    return {"orbit": out}


def main():
    ref = {
        "grid-sweep": grid_pools(),
        "deep-tower": deep_pools(),
        "orbit-factor": orbit_pools(),
    }
    if any(e is None for e in ref["deep-tower"]["verify"]):
        raise SystemExit("the corollary-c target did not verify")
    # one request per line keeps the file readable and its diffs small
    blocks = []
    for workload, pools in ref.items():
        lists = []
        for name, entries in pools.items():
            rows = ",\n".join("   " + json.dumps(e, sort_keys=True) for e in entries)
            lists.append(f'  "{name}": [\n{rows}\n  ]')
        blocks.append(f' "{workload}": {{\n' + ",\n".join(lists) + "\n }")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
