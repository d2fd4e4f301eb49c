"""Workload definitions: request pools, seeded rounds, execution and checks.

Every request input lives in `reference.json` next to this file, together
with the digest of the output recorded for it (see record.py).  A run
draws its rounds from those pools with a seeded generator, so the same
seed always yields the same requests and every request has a reference.

A round is the unit of work: a run repeats rounds and always finishes the
round it is in, so each run measures the same mix of cells.  Nothing here
imports hyperquad at module level; `Context` does, because the import is
part of the timed set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("grid-sweep", "deep-tower", "orbit-factor")

# Nearest-rank percentile reported as latency_tail_ms.  It is fixed per
# workload, so a faster program (more samples per run) is compared at the
# same percentile; each value keeps at least ten samples beyond it in
# every run at the commit that defined the benchmark.
TAIL_PERCENTILE = {"grid-sweep": 95, "deep-tower": 50, "orbit-factor": 50}


def load_reference(path=REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- digests -----------------------------------------------------------------


def _sha(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def quotient_digest(quotients) -> str:
    """Digest of a partial-quotient sequence, coefficient for coefficient."""
    return _sha([q.block().tolist() for q in quotients])


def orbit_digest(report) -> str:
    """Digest of an orbit coverage report: rows, nodes and factor count."""
    return _sha(
        {
            "rows": [[r.degree, r.total, r.found] for r in report.rows],
            "nodes": report.nodes,
            "factors_found": report.factors_found,
            "depth": report.depth,
            "truncated": report.truncated,
        }
    )


# -- requests ----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One closed-loop request: what to call and what it must return."""

    kind: str  # verify | predict | orbit
    entry: dict

    @property
    def cell(self) -> tuple:
        """(p, t, k, s): the share statistic counts repeats of this key."""
        if self.kind == "orbit":
            return (self.entry["p"], 1, 1, 1)
        p, t, k, s, _l = self.entry["cell"]
        return (p, t, k, s)


class Pools:
    """Reference entries of one workload, grouped the way rounds draw them."""

    def __init__(self, reference: dict, workload: str):
        pools = reference[workload]
        self.groups: list[tuple[str, list[dict]]] = []
        if workload == "grid-sweep":
            self.groups += _grouped("verify", pools["closed"], lambda e: tuple(e["cell"]))
            self.groups += _grouped("verify", pools["open"], lambda e: tuple(e["cell"][:3]))
            self.groups += _grouped("predict", pools["closed"], lambda e: tuple(e["cell"][:4]))
        elif workload == "deep-tower":
            self.groups += _grouped("verify", pools["verify"], lambda e: tuple(e["cell"]))
        else:
            self.groups += [("orbit", [e]) for e in pools["orbit"]]

    def next_round(self, rng: random.Random) -> list[Request]:
        """One request per group, drawn from its pool, in shuffled order."""
        reqs = [Request(kind, rng.choice(pool)) for kind, pool in self.groups]
        rng.shuffle(reqs)
        return reqs

    def requests(self) -> list[Request]:
        """Every request the workload can make."""
        return [Request(kind, e) for kind, pool in self.groups for e in pool]


def _grouped(kind, entries, key):
    groups = defaultdict(list)
    for e in entries:
        groups[key(e)].append(e)
    return [(kind, groups[g]) for g in sorted(groups)]


# -- set-up, execution, checks -------------------------------------------------


class Context:
    """Modules, fields and seed pairs a workload needs; building it is the set-up."""

    def __init__(self, pools: Pools):
        from hyperquad import conjecture, perfect
        from hyperquad.ffield import make_field
        from hyperquad.hyper import TypeSpec
        from hyperquad.seedpair import build_seedpair

        self.perfect = perfect
        self.conjecture = conjecture
        self.TypeSpec = TypeSpec
        self.fields = {}
        for req in pools.requests():
            p, t, k, s = req.cell
            if "modulus" in req.entry:
                mod = tuple(req.entry["modulus"])
                self.fields[(p, s, mod)] = make_field(p, s, mod)
            build_seedpair(p, t, k)

    def spec(self, entry: dict):
        p, t, k, s, _l = entry["cell"]
        F = self.fields[(p, s, tuple(entry["modulus"]))]
        return self.TypeSpec(
            field=F,
            t=t,
            k=k,
            lambdas=tuple(F.el(c) for c in entry["lambdas"]),
            eps1=F.el(entry["eps1"]),
            eps2=F.el(entry["eps2"]),
        )

    def prepare(self, req: Request):
        """A zero-argument callable for the request; inputs built untimed.

        Library functions are looked up on their modules at call time, so
        a tracer installed after set-up sees every call.
        """
        e = req.entry
        if req.kind == "orbit":
            conj = self.conjecture
            return lambda: conj.run_conjecture(e["p"], e["depth"], e["max_log_degree"])
        spec = self.spec(e)
        perfect = self.perfect
        if req.kind == "verify":
            return lambda: perfect.differential_verify(spec, e["n"])
        return lambda: perfect.predict_expansion(spec, e["n"])


def check(req: Request, out) -> bool:
    """Does the output match the status and digest recorded for the input?"""
    e = req.entry
    if req.kind == "orbit":
        return orbit_digest(out) == e["digest"]
    if req.kind == "verify":
        return (
            out.status == "match"
            and out.case == e["case"]
            and out.direct is not None
            and quotient_digest(out.direct.quotients) == e["digest"]
        )
    quotients = getattr(out, "quotients", None)  # NotPerfect has none
    return quotients is not None and quotient_digest(quotients) == e["digest"]
