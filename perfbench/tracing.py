"""Per-layer tracing from outside the library: span timers and counters.

`install` replaces each traced library function with a wrapper that times
it as a span and bumps counters computed from its arguments or result.
The wrapper is bound everywhere the original was: on its module, on every
hyperquad module that imported it by name (`from .hyper import
expand_alpha` in perfect, `build_seedpair` in four modules) and, for
methods, on the class.

Spans are aggregated in memory per layer rather than logged one by one,
since the scalar field layer alone makes millions of calls per round.  A
layer's self time is its span time minus the time of its child spans,
where a child's time includes its wrapper's own bookkeeping: tracing cost
is charged to no layer, and the self times of one request add up to less
than the request's span by exactly that cost.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (layer name, module, attribute path); a dotted path names a method
LAYERS = [
    ("gfkernel.mul", "_gfkernel", "mul"),
    ("gfkernel.divmod_block", "_gfkernel", "divmod_block"),
    ("gfkernel.gcd_block", "_gfkernel", "gcd_block"),
    ("gfkernel.powmod", "_gfkernel", "powmod"),
    ("gfkernel.factor", "_gfkernel", "factor"),
    ("ffield.mul", "ffield", "FieldElement.__mul__"),
    ("ffield.inverse", "ffield", "FieldElement.inverse"),
    ("ffield.pow", "ffield", "FieldElement.__pow__"),
    ("fpoly.poly_mul", "fpoly", "Poly.__mul__"),
    ("fpoly.poly_divmod", "fpoly", "Poly.__divmod__"),
    ("fpoly.from_block", "fpoly", "Poly.from_block"),
    ("laurent.mul", "laurent", "LaurentSeries.__mul__"),
    ("laurent.inverse", "laurent", "LaurentSeries.inverse"),
    ("laurent.frobenius_pow", "laurent", "LaurentSeries.frobenius_pow"),
    ("contfrac.expand_series", "contfrac", "expand_series"),
    ("contfrac.predicted_record", "contfrac", "predicted_record"),
    ("exactq.v_sequence_rational", "exactq", "v_sequence_rational"),
    ("seedpair.build_seedpair", "seedpair", "build_seedpair"),
    ("seedpair.eval_g", "seedpair", "eval_g"),
    ("seedpair.eval_h", "seedpair", "eval_h"),
    ("hyper.expand_alpha", "hyper", "expand_alpha"),
    ("perfect.generate_sequences", "perfect", "generate_sequences"),
    ("perfect.build_tower", "perfect", "build_tower"),
    ("perfect.predicted_record_from", "perfect", "predicted_record_from"),
    ("perfect.differential_verify", "perfect", "differential_verify"),
    ("perfect.predict_expansion", "perfect", "predict_expansion"),
    ("conjecture.step_orbit", "conjecture", "step_orbit"),
    ("conjecture.run_conjecture", "conjecture", "run_conjecture"),
]

# the root span wrapped around each request by the harness
REQUEST = "request"


class Tracer:
    """Span and counter recorder; one per process, single-threaded."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.nesting_errors = 0
        self._stack: list[list[float]] = []

    def wrap(self, name, fn, before=None, after=None):
        """fn timed as span `name`; hooks see the arguments or the result."""
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            try:
                if before is not None:
                    before(args)
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span = clock() - start
                    stack.pop()
                    own = span - frame[0]
                    if own < -1e-9:  # children outlasted their parent
                        self.nesting_errors += 1
                    rec[0] += 1
                    rec[1] += span
                    rec[2] += own
                if after is not None:
                    after(result)
                return result
            finally:
                if stack:
                    stack[-1][0] += clock() - entered

        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]


def _rows(block) -> int:
    """Row count of a coefficient block once trailing zero rows are dropped."""
    n = block.shape[0]
    while n and not block[n - 1].any():
        n -= 1
    return n


def _hooks(tracer: Tracer, kernel):
    counts = tracer.counts
    fft_cutoff = getattr(kernel, "_FFT_CUTOFF", 4096)

    def mul(args):
        # schoolbook coefficient products and the 1-D convolutions whose
        # operand shapes take the FFT path, both computed from shapes
        a, b, field = args[:3]
        la, lb, s2 = a.shape[0], b.shape[0], field.s * field.s
        counts["gfkernel.mul.coeff_products"] += la * lb * s2
        if min(la, lb) > 64 and la + lb - 1 > fft_cutoff:
            counts["gfkernel.mul.fft_calls"] += s2

    def divmod_block(args):
        # long-division row updates: (da - db + 1) rows of db + 1 entries
        a, b, field = args[:3]
        da, db = _rows(a) - 1, _rows(b) - 1
        if 0 <= db <= da:
            counts["gfkernel.divmod_block.coeff_ops"] += (
                (da - db + 1) * (db + 1) * field.s * field.s
            )

    seedpairs = set()

    def build_seedpair(args):
        seedpairs.add(tuple(args))
        counts["seedpair.build_seedpair.distinct"] = len(seedpairs)

    def expand_series(record):
        counts["contfrac.quotients"] += len(record.quotients)

    def run_conjecture(report):
        counts["conjecture.nodes"] += report.nodes
        counts["conjecture.factors_found"] += report.factors_found

    return {
        "gfkernel.mul": (mul, None),
        "gfkernel.divmod_block": (divmod_block, None),
        "seedpair.build_seedpair": (build_seedpair, None),
        "contfrac.expand_series": (None, expand_series),
        "conjecture.run_conjecture": (None, run_conjecture),
    }


def install(tracer: Tracer) -> None:
    """Bind a traced wrapper in place of every layer function in LAYERS."""
    modules = {
        name: importlib.import_module(f"hyperquad.{name}")
        for name in {mod for _, mod, _ in LAYERS}
    }
    loaded = [m for n, m in sys.modules.items() if n.startswith("hyperquad")]
    hooks = _hooks(tracer, modules["_gfkernel"])
    for layer, mod, path in LAYERS:
        before, after = hooks.get(layer, (None, None))
        owner = modules[mod]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(layer, raw.__func__, before, after)))
            else:
                setattr(owner, attr, tracer.wrap(layer, raw, before, after))
            continue
        orig = getattr(owner, path)
        wrapper = tracer.wrap(layer, orig, before, after)
        for m in loaded:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapper)


# Per-layer metrics in report order.  `<layer>.calls` and `<layer>.self_s`
# read the spans, where a layer prefix such as `ffield` sums its member
# spans; every other name is a counter kept by the hooks.
PER_LAYER = [
    "gfkernel.mul.calls", "gfkernel.mul.self_s",
    "gfkernel.mul.coeff_products", "gfkernel.mul.fft_calls",
    "gfkernel.divmod_block.calls", "gfkernel.divmod_block.self_s",
    "gfkernel.divmod_block.coeff_ops",
    "gfkernel.factor.calls", "gfkernel.factor.self_s",
    "gfkernel.gcd_block.calls", "gfkernel.powmod.calls", "gfkernel.powmod.self_s",
    "ffield.mul.calls", "ffield.inverse.calls", "ffield.pow.calls", "ffield.self_s",
    "fpoly.poly_mul.calls", "fpoly.poly_mul.self_s",
    "fpoly.poly_divmod.calls", "fpoly.poly_divmod.self_s", "fpoly.from_block.calls",
    "laurent.inverse.calls", "laurent.inverse.self_s",
    "laurent.mul.self_s", "laurent.frobenius_pow.self_s",
    "contfrac.expand_series.calls", "contfrac.expand_series.self_s",
    "contfrac.predicted_record.self_s", "contfrac.quotients",
    "seedpair.build_seedpair.calls", "seedpair.build_seedpair.distinct",
    "seedpair.build_seedpair.self_s", "seedpair.eval_g.calls", "seedpair.eval_h.calls",
    "exactq.v_sequence_rational.calls", "exactq.v_sequence_rational.self_s",
    "hyper.expand_alpha.calls", "hyper.expand_alpha.self_s", "hyper.attempts_per_expand",
    "perfect.generate_sequences.self_s", "perfect.build_tower.calls",
    "perfect.build_tower.self_s", "perfect.predicted_record_from.self_s",
    "perfect.differential_verify.self_s",
    "conjecture.step_orbit.calls", "conjecture.step_orbit.self_s",
    "conjecture.nodes", "conjecture.factors_found",
]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as {name: (value, unit)}."""
    out: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = (tracer.calls(layer), "count")
        elif what == "self_s":
            out[name] = (
                sum(rec[2] for span, rec in tracer.spans.items()
                    if span == layer or span.startswith(layer + ".")),
                "s",
            )
        elif what == "attempts_per_expand":
            expands = tracer.calls("hyper.expand_alpha")
            out[name] = (
                tracer.calls("contfrac.expand_series") / expands if expands else 0.0,
                "ratio",
            )
        else:
            out[name] = (tracer.counts[name], "count")
    return out
