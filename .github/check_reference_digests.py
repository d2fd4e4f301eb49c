"""Run every recorded benchmark request once and check its output digest.

A seeded benchmark round draws a subset of the request pools in
perfbench/reference.json; this script runs each recorded input once,
with hyperquad imported from src/.  From the repository root:

    python3 .github/check_reference_digests.py

It prints the match count and one line per mismatch, and exits 1 if any
digest mismatches.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, Context, Pools, check, load_reference  # noqa: E402


def main() -> int:
    ref = load_reference()
    seen, bad = Counter(), []
    for w in WORKLOADS:
        pools = Pools(ref, w)
        ctx = Context(pools)
        for req in pools.requests():
            seen[w] += 1
            if not check(req, ctx.prepare(req)()):
                bad.append((w, req.kind, req.entry.get("cell")))
    print(dict(seen), f"{sum(seen.values()) - len(bad)} of {sum(seen.values())} match")
    for line in bad:
        print("digest mismatch:", *line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
