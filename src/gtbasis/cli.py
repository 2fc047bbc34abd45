"""Command-line interface: basis construction, generating functions, verification.

Structured output is JSON on stdout; errors and suite timings go to stderr,
so that reports are byte-identical for identical flags and seed.  `main` is
the one place that turns an exception into an exit code:

    0  success
    1  `verify` found a failing check
    2  invalid input, or a value beyond the float range (ValueError)
    3  point outside the certified domain (DomainError; see --unsafe-domain)
    4  singular kernel, d_m <= 0 (SingularityError)
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, SingularityError
from .harmonics import (FACTORIAL, PLAIN, BasisIndex, _dimension, _norm_sign, gf_harm_closed,
                        gf_harm_series, harm_basis)
from .monogenics import MonIndex, gf_mon_closed, gf_mon_series, mon_basis
from .clifford import blade_name


def _csv_parser(cast, what: str):
    def parse(text: str) -> tuple:
        try:
            return tuple(cast(part) for part in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from exc
    return parse


_parse_csv_ints = _csv_parser(int, "integers")
_parse_csv_floats = _csv_parser(float, "numbers")


def _sign_value(text: str) -> int:
    try:
        return _norm_sign(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("sign must be + or - (use --sign=-)") from exc


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
    verify.add_argument("--suite", default="all",
                        help="one suite by name, or all; an unknown name exits 2")

    return parser


def _cmd_basis(args) -> int:
    _dimension(args.m)
    if len(args.k) != args.m - 1:
        raise ValueError(f"--k needs {args.m - 1} entries for --m {args.m}")
    if args.kind == "harm":
        poly = harm_basis(BasisIndex(args.k, args.sign, args.norm))
    else:
        poly = mon_basis(MonIndex(args.k, args.norm))
    print(json.dumps(poly.to_json(), sort_keys=True) if args.format == "json" else poly.to_text())
    return 0


def _format_complex(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r} {sign} {abs(value.imag)!r}i"


def _cmd_genfun_eval(args) -> int:
    if args.kind == "harm":
        value = gf_harm_closed(args.m, args.x, args.h, args.sign, args.norm,
                               unsafe_domain=args.unsafe_domain)
        data, text = {"re": value.real, "im": value.imag}, _format_complex(value)
    else:
        value = gf_mon_closed(args.m, args.x, args.h, args.norm,
                              unsafe_domain=args.unsafe_domain)
        data = {"terms": [{"blade": mask, "e": blade_name(mask), "value": coeff}
                          for mask, coeff in sorted(value.terms.items())]}
        text = value.to_text()
    print(json.dumps(data, sort_keys=True) if args.format == "json" else text)
    return 0


def _cmd_genfun_series(args) -> int:
    if args.kind == "harm":
        series = gf_harm_series(args.m, args.order, args.sign, args.norm)
    else:
        series = gf_mon_series(args.m, args.order, args.norm)
    print(json.dumps(series.to_json(), sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verify  # imported here so that other commands never load it

    report, timings = run_verify((args.suite,), args.m_max, args.deg_max, args.order, args.seed)
    print(json.dumps(report, sort_keys=True))
    print(f"verify: {report['counts']['pass']} passed, "
          f"{report['counts']['fail']} failed in {timings['total']:.2f}s",
          file=sys.stderr)
    return 0 if report["overall"] == "pass" else 1


def main(argv=None) -> int:
    """Run one command; a ValueError it raises becomes exit code 2, 3 or 4 (see above)."""
    args = build_parser().parse_args(argv)
    if args.command == "genfun":
        command = _cmd_genfun_eval if args.genfun_command == "eval" else _cmd_genfun_series
    else:
        command = _cmd_basis if args.command == "basis" else _cmd_verify
    try:
        return command(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except SingularityError as exc:
        print(f"singularity: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
