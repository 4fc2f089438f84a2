"""Command line front end.

Subcommands mirror the library layers: inspect series coefficients, dualize
a spec, transform radial profiles, verify the summation identity, check the
modular relation, and compare Hermite coefficient routes.

Exit codes: 0 success (and verify PASS), 1 verify FAIL, 2 bad usage,
malformed input or any other thetasum error, 3 resource or tolerance cap hit
(out of memory included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Sequence

from . import hermite as hm
from . import summation as sm
from . import theta as th
from . import transform as tr
from .errors import DomainError, InvalidSpec, ThetasumError, ToleranceNotMet


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        vals = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidSpec(f"{flag} expects comma-separated numbers: {exc}") from None
    if not vals:
        raise InvalidSpec(f"{flag} expects at least one number")
    return vals


def _parse_gauss(text: str) -> tr.GaussPoly:
    """Parse 'c,k,alpha;c,k,alpha;...' into a Gaussian-polynomial profile."""
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [part.strip() for part in chunk.split(",")]
        if len(parts) != 3:
            raise InvalidSpec(f"term {chunk!r} must be 'coeff,power,rate'")
        try:
            terms.append((float(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise InvalidSpec(f"term {chunk!r}: {exc}") from None
    if not terms:
        raise InvalidSpec("--f is empty")
    try:
        return tr.GaussPoly(tuple(terms))
    except DomainError as exc:
        raise InvalidSpec(str(exc)) from None


def _load_spec(args: argparse.Namespace) -> th.ThetaSpec:
    if getattr(args, "spec", None):
        try:
            with open(args.spec, encoding="utf-8") as fh:
                return th.ThetaSpec.from_json(fh.read())
        except OSError as exc:
            raise InvalidSpec(f"cannot read spec file: {exc}") from None
    if getattr(args, "preset", None):
        if args.dim is None:
            raise InvalidSpec("--preset requires --dim")
        return th.preset(args.preset, args.dim)
    raise InvalidSpec("give either --spec PATH or --preset NAME --dim D")


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ThetasumError(f"cannot write --out file: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_rows(rows: list[dict], header: Sequence[str], args: argparse.Namespace) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[key] for key in header])
        _write(buf.getvalue(), args.out)
    else:
        _write(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)


def cmd_theta_coeffs(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    A, N = th.coeff_table(spec, args.L)
    rows = [{"l": l, "A_l": a, "N_l": n} for l, (a, n) in enumerate(zip(A.tolist(), N.tolist()))]
    _emit_rows(rows, ("l", "A_l", "N_l"), args)
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    dual_spec = th.dual(spec)
    _write(json.dumps(dual_spec.to_json_dict(), sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    f = _parse_gauss(args.f)
    radii = _parse_floats(args.p, "--p")
    bad = [p for p in radii if not (math.isfinite(p) and p >= 0)]
    if bad:
        raise DomainError(f"--p radii must be finite and >= 0, got {bad[0]!r}")
    fhat = tr.ft_gausspoly(f, args.dim, experimental_dim=args.experimental_dim)
    rows = [{"p": p, "value": float(fhat.eval(p))} for p in radii]
    _emit_rows(rows, ("p", "value"), args)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    f = _parse_gauss(args.f)
    report = sm.verify(spec, f, tol=args.tol, L_cap=args.L_cap)
    _write(json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n",
           args.out)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: residual {report.residual:.6e} at tol {report.tol:.1e} "
        f"(L={report.L_used}, L*={report.L_star_used})",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def cmd_jacobi_check(args: argparse.Namespace) -> int:
    ts = _parse_floats(args.t, "--t")
    rows = [
        {"kind": kind, "t": t, "residual": th.jacobi_residual(kind, t)}
        for kind in (2, 3, 4)
        for t in ts
    ]
    _emit_rows(rows, ("kind", "t", "residual"), args)
    return 0


def cmd_hermite_demo(args: argparse.Namespace) -> int:
    if not args.alpha > -0.5:
        raise DomainError(f"--alpha must exceed -1/2, got {args.alpha}")
    if args.n_max < 0:
        raise DomainError(f"--n-max must be >= 0, got {args.n_max}")
    profile = lambda x: math.exp(-args.alpha * x * x)
    rows = []
    for n in range(args.n_max + 1):
        closed = hm.gaussian_hermite_coeff(args.alpha, n)
        quad = hm.hermite_coeff_quadrature(profile, n)
        rows.append({
            "n": n,
            "closed": closed,
            "quadrature": quad,
            "abs_diff": abs(closed - quad),
        })
    _emit_rows(rows, ("n", "closed", "quadrature", "abs_diff"), args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    spec_args = argparse.ArgumentParser(add_help=False)
    spec_args.add_argument("--spec", metavar="PATH",
                           help="spec as a JSON file")
    spec_args.add_argument("--preset", choices=th.PRESETS,
                           help="built-in spec family")
    spec_args.add_argument("--dim", type=float, metavar="D",
                           help="dimension parameter for --preset")

    table_args = argparse.ArgumentParser(add_help=False)
    table_args.add_argument("--format", choices=("json", "csv"), default="json")
    table_args.add_argument("--out", metavar="PATH",
                            help="write to file instead of stdout")

    out_only = argparse.ArgumentParser(add_help=False)
    out_only.add_argument("--out", metavar="PATH",
                          help="write to file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="thetasum",
        description="Generalized theta series, their duals, and the "
                    "dimensionally continued summation identity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta-coeffs", parents=[spec_args, table_args],
                       help="tabulate series exponents and coefficients")
    p.add_argument("--L", type=int, default=16,
                   help="largest exponent to tabulate (default 16)")
    p.set_defaults(func=cmd_theta_coeffs)

    p = sub.add_parser("dual", parents=[spec_args, out_only],
                       help="print the dual spec as JSON")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("transform", parents=[table_args],
                       help="radial transform of a Gaussian-polynomial profile")
    p.add_argument("--f", required=True, metavar="TERMS",
                   help="profile as 'coeff,power,rate;...' "
                        "(e.g. '1,0,1' for a unit Gaussian)")
    p.add_argument("--dim", type=float, required=True, metavar="D")
    p.add_argument("--p", default="0,0.5,1,2", metavar="LIST",
                   help="comma-separated radii (default 0,0.5,1,2)")
    p.add_argument("--experimental-dim", action="store_true",
                   help="allow 0 < dim < 1")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", parents=[spec_args, out_only],
                       help="check the summation identity, report as JSON")
    p.add_argument("--f", required=True, metavar="TERMS",
                   help="profile as 'coeff,power,rate;...'")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--L-cap", type=int, default=4096, dest="L_cap",
                   help="largest order L either side may double to; refuse rather "
                        "than sum past it (default 4096). L_used and L_star_used "
                        "are in the same unit")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("jacobi-check", parents=[table_args],
                       help="modular-relation residuals for all three kinds")
    p.add_argument("--t", default="0.5,0.8,1.0,1.6,2.0", metavar="LIST",
                   help="comma-separated scale values")
    p.set_defaults(func=cmd_jacobi_check)

    p = sub.add_parser("hermite-demo", parents=[table_args],
                       help="Gaussian expansion coefficients, closed form vs quadrature")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="Gaussian rate (default 1.0)")
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.set_defaults(func=cmd_hermite_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToleranceNotMet as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. numpy's array allocation at a huge --L
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 3
    except ThetasumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
