"""Command-line interface: basis construction, generating functions, verification.

Exit codes: 0 success, 2 invalid index/arguments or a generating-function
value beyond the float range, 3 evaluation point outside the certified domain
(override with --unsafe-domain), 4 singular kernel (d_m <= 0).  Structured
output is JSON on stdout; suite timings go to stderr so that reports are
byte-identical for identical flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, SingularityError
from .harmonics import (FACTORIAL, PLAIN, BasisIndex, gf_harm_closed,
                        gf_harm_series, harm_basis)
from .monogenics import MonIndex, gf_mon_closed, gf_mon_series, mon_basis
from .clifford import blade_name
from .verify import SUITES, run_verify


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _sign_value(text: str) -> int:
    if text in ("+", "plus"):
        return +1
    if text in ("-", "minus"):
        return -1
    raise argparse.ArgumentTypeError("sign must be + or - (use --sign=-)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtbasis",
        description="Exact spherical harmonic / spherical monogenic bases and "
                    "their generating functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    basis = sub.add_parser("basis", help="print one basis polynomial")
    basis.add_argument("--kind", choices=("harm", "mon"), required=True)
    basis.add_argument("--m", type=int, required=True, help="ambient dimension")
    basis.add_argument("--k", type=_parse_csv_ints, required=True,
                       help="multi-index k_2,...,k_m")
    basis.add_argument("--sign", type=_sign_value, default=+1,
                       help="+ or - (harmonics only; use --sign=-)")
    basis.add_argument("--norm", choices=(FACTORIAL, PLAIN), default=FACTORIAL)
    basis.add_argument("--format", choices=("json", "text"), default="text")

    genfun = sub.add_parser("genfun", help="evaluate or expand a generating function")
    gsub = genfun.add_subparsers(dest="genfun_command", required=True)

    geval = gsub.add_parser("eval", help="closed-form value at a point")
    geval.add_argument("--kind", choices=("harm", "mon"), required=True)
    geval.add_argument("--m", type=int, required=True)
    geval.add_argument("--x", type=_parse_csv_floats, required=True)
    geval.add_argument("--h", type=_parse_csv_floats, required=True)
    geval.add_argument("--sign", type=_sign_value, default=+1)
    geval.add_argument("--norm", choices=(FACTORIAL, PLAIN), default=FACTORIAL)
    geval.add_argument("--unsafe-domain", action="store_true",
                       help="skip the convergence-box check")
    geval.add_argument("--format", choices=("json", "text"), default="text")

    gseries = gsub.add_parser("series", help="exact truncated series expansion")
    gseries.add_argument("--kind", choices=("harm", "mon"), required=True)
    gseries.add_argument("--m", type=int, required=True)
    gseries.add_argument("--order", type=int, required=True)
    gseries.add_argument("--sign", type=_sign_value, default=+1)
    gseries.add_argument("--norm", choices=(FACTORIAL, PLAIN), default=FACTORIAL)

    verify = sub.add_parser("verify", help="run the identity verification suites")
    verify.add_argument("--m-max", type=int, default=4)
    verify.add_argument("--deg-max", type=int, default=4)
    verify.add_argument("--order", type=int, default=3)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--suite", choices=("all",) + SUITES, default="all")

    return parser


def _cmd_basis(args) -> int:
    try:
        if len(args.k) != args.m - 1:
            raise ValueError(f"--k needs {args.m - 1} entries for --m {args.m}")
        if args.kind == "harm":
            poly = harm_basis(BasisIndex(args.k, args.sign, args.norm))
        else:
            poly = mon_basis(MonIndex(args.k, args.norm))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(poly.to_json(), sort_keys=True))
    else:
        print(poly.to_text())
    return 0


def _format_complex(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r} {sign} {abs(value.imag)!r}i"


def _cmd_genfun_eval(args) -> int:
    try:
        if args.kind == "harm":
            value = gf_harm_closed(args.m, args.x, args.h, args.sign, args.norm,
                                   unsafe_domain=args.unsafe_domain)
        else:
            value = gf_mon_closed(args.m, args.x, args.h, args.norm,
                                  unsafe_domain=args.unsafe_domain)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except SingularityError as exc:
        print(f"singularity: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.kind == "harm":
        if args.format == "json":
            print(json.dumps({"re": value.real, "im": value.imag}, sort_keys=True))
        else:
            print(_format_complex(value))
    else:
        components = [{"blade": mask, "e": blade_name(mask), "value": coeff}
                      for mask, coeff in sorted(value.terms.items())]
        if args.format == "json":
            print(json.dumps({"terms": components}, sort_keys=True))
        else:
            print(value.to_text())
    return 0


def _cmd_genfun_series(args) -> int:
    try:
        if args.kind == "harm":
            series = gf_harm_series(args.m, args.order, args.sign, args.norm)
        else:
            series = gf_mon_series(args.m, args.order, args.norm)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(series.to_json(), sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    try:
        report, timings = run_verify((args.suite,), args.m_max, args.deg_max,
                                     args.order, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    print(f"verify: {report['counts']['pass']} passed, "
          f"{report['counts']['fail']} failed in {timings['total']:.2f}s",
          file=sys.stderr)
    return 0 if report["overall"] == "pass" else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "basis":
        return _cmd_basis(args)
    if args.command == "genfun":
        if args.genfun_command == "eval":
            return _cmd_genfun_eval(args)
        return _cmd_genfun_series(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
