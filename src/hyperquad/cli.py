"""Command-line front end with reproducible text and JSON output.

Every subcommand is fully determined by its flags; JSON documents echo
the parsed configuration so a run can be reproduced from its own
output.  Exit codes separate tool usage errors (64) from mathematically
meaningful outcomes: 0 for success or full match, 2 for a principled
mismatch (a definability condition fails and the expansion deviates),
3 for runs that end inconclusively (degree cap or budget exhausted).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import conjecture as conjecture_mod
from . import perfect as perfect_mod
from .ffield import FieldDesc, f27_preset, format_element, make_field, parse_element
from .fpoly import format_poly
from .hyper import ConvergenceError, TypeSpec, build_equation, expand_alpha
from .seedpair import AdmissibilityError, build_seedpair, progressions, validate_identities

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64

_SCHEMA = "hyperquad/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract wants 64
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="hyperquad", description=__doc__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("seedpair", help="constants and identity report for (p, t, k)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    def spec_flags(cmd, with_n=True):
        cmd.add_argument("--field", help="field preset, e.g. f27-paper")
        cmd.add_argument("--p", type=int)
        cmd.add_argument("--s", type=int)
        cmd.add_argument("--modulus", help="comma-separated modulus coefficients, low degree first")
        cmd.add_argument("--t", type=int, required=True)
        cmd.add_argument("--k", type=int, required=True)
        cmd.add_argument("--l", type=int)
        cmd.add_argument("--lambdas", required=True, help="comma-separated field elements")
        cmd.add_argument("--eps1", required=True)
        cmd.add_argument("--eps2", required=True)
        if with_n:
            cmd.add_argument("--n", type=int, required=True)
        cmd.add_argument("--format", choices=("text", "json"), default="text")

    spec_flags(sub.add_parser("expand", help="direct expansion from the defining equation"))
    spec_flags(sub.add_parser("predict", help="predicted expansion from the scalar recursions"))
    spec_flags(sub.add_parser("verify", help="differential comparison of predict and expand"))

    cc = sub.add_parser("corollary-c", help="the worked F_27 example end to end")
    cc.add_argument("--n", type=int, required=True)
    cc.add_argument("--format", choices=("text", "json"), default="text")

    cj = sub.add_parser("conjecture", help="factor coverage of the k=1 orbit over F_p")
    cj.add_argument("--p", type=int, required=True)
    cj.add_argument("--depth", type=int, required=True)
    cj.add_argument("--max-log-degree", type=int, required=True)
    cj.add_argument("--budget", type=int, default=conjecture_mod.DEFAULT_BUDGET)
    cj.add_argument("--out", help="write the bare coverage report JSON here")
    cj.add_argument("--format", choices=("text", "json"), default="text")

    return top


# -- flag -> domain object helpers -------------------------------------------


def _field_from_args(args) -> FieldDesc:
    if args.field is not None:
        if args.p is not None or args.s is not None or args.modulus is not None:
            raise UsageError("--field excludes --p/--s/--modulus")
        if args.field != "f27-paper":
            raise UsageError(f"unknown field preset {args.field!r}")
        return f27_preset()
    if args.p is None or args.s is None:
        raise UsageError("need --field or both --p and --s")
    modulus = None
    if args.modulus is not None:
        try:
            modulus = [int(c) for c in args.modulus.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --modulus: {exc}") from exc
    try:
        return make_field(args.p, args.s, modulus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _spec_from_args(args) -> TypeSpec:
    field = _field_from_args(args)
    try:
        lambdas = tuple(
            parse_element(field, part) for part in args.lambdas.split(",")
        )
        eps1 = parse_element(field, args.eps1)
        eps2 = parse_element(field, args.eps2)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.l is not None and args.l != len(lambdas):
        raise UsageError(f"--l {args.l} contradicts {len(lambdas)} lambdas")
    try:
        return TypeSpec(
            field=field, t=args.t, k=args.k,
            lambdas=lambdas, eps1=eps1, eps2=eps2,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _config_echo(args) -> dict:
    """Every flag the subcommand was given or defaulted, by its flag name."""
    return {
        name.replace("_", "-"): value
        for name, value in vars(args).items()
        if value is not None
    }


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        doc = {
            "schema": _SCHEMA,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": _config_echo(args),
        }
        doc.update(payload)
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in lines:
            print(line)


# -- subcommands --------------------------------------------------------------


def cmd_seedpair(args) -> int:
    try:
        pair = build_seedpair(args.p, args.t, args.k)
    except (AdmissibilityError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    report = validate_identities(pair)
    payload = {
        "p": pair.p,
        "t": pair.t,
        "k": pair.k,
        "admissible": [[r.start, r[-1], r.step] for r in progressions(pair.p, pair.t)],
        "v": [format_element(c) for c in pair.v],
        "theta": format_element(pair.theta),
        "omega": format_element(pair.omega),
        "w": [format_element(c) for c in pair.w],
        "b": [format_element(c) for c in pair.b],
        "Pk": format_poly(pair.Pk),
        "Qk": format_poly(pair.Qk),
        "identities": report,
    }
    spans = ", ".join(f"{a}..{b} step {c}" for a, b, c in payload["admissible"])
    lines = [
        f"seed data for p={pair.p}, t={pair.t} (r={pair.p ** pair.t}), k={pair.k}",
        f"admissible k: {spans}",
        f"v     = [{', '.join(payload['v'])}]",
        f"theta = {payload['theta']}",
        f"omega = {payload['omega']}",
        f"w     = [{', '.join(payload['w'])}]",
        f"b     = [{', '.join(payload['b'])}]",
        f"Pk    = {payload['Pk']}",
        f"Qk    = {payload['Qk']}",
        "identities:",
    ]
    lines += [f"  {name}: {'ok' if good else 'FAIL'}" for name, good in report.items()]
    _emit(args, payload, lines)
    return EXIT_OK if all(report.values()) else EXIT_MISMATCH


def _quotient_lines(record_json: dict) -> list[str]:
    # reuses the strings formatted for the JSON payload: formatting a long
    # quotient costs far more than expanding it
    return [f"  a_{i} = {s}" for i, s in enumerate(record_json["quotients"], 1)]


def cmd_expand(args) -> int:
    spec = _spec_from_args(args)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    equation = build_equation(spec)
    try:
        record = expand_alpha(spec, args.n)
    except ConvergenceError as exc:
        _emit(args, {"status": "inconclusive", "error": str(exc)},
              [f"inconclusive: {exc}"])
        return EXIT_INCONCLUSIVE
    payload = {
        "equation": str(equation),
        "record": record.to_json_dict(),
    }
    lines = [
        spec.describe(),
        f"equation: {equation}",
        f"quotients ({len(record)}):",
    ]
    lines += _quotient_lines(payload["record"])
    lines.append(f"status: {record.status}, confirmed: {record.confirmed}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_predict(args) -> int:
    spec = _spec_from_args(args)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    try:
        out = perfect_mod.predict_expansion(spec, args.n)
    except perfect_mod.BudgetError as exc:
        _emit(args, {"status": "inconclusive", "error": str(exc)},
              [f"inconclusive: {exc}"])
        return EXIT_INCONCLUSIVE
    if isinstance(out, perfect_mod.NotPerfect):
        payload = {"status": "not-perfect", "failure": out.to_json_dict()}
        lines = [
            spec.describe(),
            f"not perfect: {out.reason} at index {out.index} ({out.detail})",
        ]
        _emit(args, payload, lines)
        return EXIT_MISMATCH
    payload = {"status": "predicted", "record": out.to_json_dict()}
    lines = [spec.describe(), f"predicted quotients ({len(out)}):"]
    lines += _quotient_lines(payload["record"])
    _emit(args, payload, lines)
    return EXIT_OK


def _verify_payload_and_lines(spec: TypeSpec, report) -> tuple[dict, list[str]]:
    payload = {
        "status": report.status,
        "case": report.case,
        "perfect": report.perfect,
        "n_checked": report.n_checked,
        "first_mismatch": report.first_mismatch,
    }
    lines = [spec.describe(), f"case: {report.case}", f"status: {report.status}"]
    if report.failure is not None:
        payload["failure"] = report.failure.to_json_dict()
        lines.append(
            f"breakdown: {report.failure.reason} at index {report.failure.index}"
        )
    if report.first_mismatch is not None:
        lines.append(f"first mismatch at quotient {report.first_mismatch}")
    if report.sequences is not None:
        seqs = report.sequences
        payload["sequences"] = seqs.to_json_dict(prefix=20)
        payload["C0"] = payload["sequences"]["C0"]
        payload["A"] = [format_poly(a) for a in seqs.tower(report.n_requested)]
        lines.append(f"C0: {payload['C0']}")
        lines.append(f"tower: [{', '.join(payload['A'])}]")
        for name in ("deltas", "gammas", "lambdas"):
            head = payload["sequences"][name]
            shown = ", ".join(f"{i}:{v}" for i, v in list(head.items())[:8])
            lines.append(f"{name}: {shown}")
    if report.direct is not None:
        payload["direct"] = report.direct.to_json_dict()
    if report.predicted is not None:
        payload["predicted"] = report.predicted.to_json_dict()
    return payload, lines


def _verify_exit(report) -> int:
    if report.status == "match":
        return EXIT_OK
    if report.status == "mismatch":
        return EXIT_MISMATCH
    return EXIT_INCONCLUSIVE


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    try:
        report = perfect_mod.differential_verify(spec, args.n)
    except perfect_mod.BudgetError as exc:
        _emit(args, {"status": "inconclusive", "error": str(exc)},
              [f"inconclusive: {exc}"])
        return EXIT_INCONCLUSIVE
    payload, lines = _verify_payload_and_lines(spec, report)
    _emit(args, payload, lines)
    return _verify_exit(report)


def corollary_c_spec() -> TypeSpec:
    field = f27_preset()
    u = field.u
    return TypeSpec(
        field=field, t=1, k=1,
        lambdas=(field.one,), eps1=-(u**6), eps2=u**3,
    )


def cmd_corollary_c(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    spec = corollary_c_spec()
    equation = build_equation(spec)
    report = perfect_mod.differential_verify(spec, args.n)
    payload, lines = _verify_payload_and_lines(spec, report)
    payload["equation"] = str(equation)
    lines.insert(1, f"equation: {equation}")
    _emit(args, payload, lines)
    return _verify_exit(report)


def cmd_conjecture(args) -> int:
    # a count past Python's int-to-str digit limit raises ValueError before any output
    try:
        report = conjecture_mod.run_conjecture(
            args.p, args.depth, args.max_log_degree, budget=args.budget
        )
        blob = report.to_json_dict()
        lines = [
            f"orbit over F_{args.p}: depth {report.depth}, "
            f"{report.nodes} nodes, {report.factors_found} factors"
            + (" (truncated)" if report.truncated else ""),
        ]
        for row in report.rows:
            lines.append(
                f"degree {row.degree:>4}: {row.found}/{row.total} "
                f"({row.fraction:.1%})"
            )
        lines.append(f"non-power-of-two degrees: {list(report.non_power_of_two_degrees)}")
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(blob, handle, indent=2, sort_keys=True)
                handle.write("\n")
        _emit(args, {"report": blob}, lines)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return EXIT_OK


_HANDLERS = {
    "seedpair": cmd_seedpair,
    "expand": cmd_expand,
    "predict": cmd_predict,
    "verify": cmd_verify,
    "corollary-c": cmd_corollary_c,
    "conjecture": cmd_conjecture,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.subcommand](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
