"""Command-line front end: evaluate, tabulate, dump constants, verify.

Exit codes: 0 success, 1 identity-suite failure, 2 usage error, 3 pole hit.
Complex values are written "re,im" on the command line; the half-period
keywords w1|w2|w3 (or omega1|...) are accepted for point arguments.
"""

from __future__ import annotations

import argparse
import cmath
import json
import fnmatch
import sys

from .errors import BranchAmbiguity, PoleProximityError, WeierzetaError
from .lattice import build_lattice, constants, constants_to_json
from .theta import SeriesConfig
from .verify import FUNCTIONS, default_suite, reports_to_json, run_suite
from .weier_core import EvalResult, Status


def parse_complex(text: str, lat=None) -> complex:
    """Parse 're,im', a bare real, or a half-period keyword; ValueError
    unless both parts are finite."""
    t = text.strip()
    keywords = {"w1": 1, "omega1": 1, "ω1": 1,
                "w2": 2, "omega2": 2, "ω2": 2,
                "w3": 3, "omega3": 3, "ω3": 3}
    low = t.lower()
    if low in keywords:
        if lat is None:
            raise ValueError(f"half-period keyword {text!r} needs a lattice")
        return lat.half_period(keywords[low])
    parts = t.split(",")
    if len(parts) == 1:
        z = complex(float(parts[0]), 0.0)
    elif len(parts) == 2:
        z = complex(float(parts[0]), float(parts[1]))
    else:
        raise ValueError(f"cannot parse complex literal {text!r}")
    if not cmath.isfinite(z):
        raise ValueError(f"complex literal {text!r} is not finite")
    return z


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega1", default="0.5,0", help="first half-period as 're,im' (default 0.5,0)")
    p.add_argument("--omega3", default=None, help="third half-period as 're,im'")
    p.add_argument(
        "--tau", default=None,
        help="period ratio shorthand; omega3 = tau*omega1 (default lattice: tau = 0.3,1.1)",
    )
    p.add_argument("--abs-tol", type=float, default=1e-16)
    p.add_argument("--rel-tol", type=float, default=1e-16)
    p.add_argument("--max-terms", type=int, default=96)


def _build(args):
    omega1 = parse_complex(args.omega1)
    if args.omega3 is not None and args.tau is not None:
        raise ValueError("give either --omega3 or --tau, not both")
    if args.omega3 is not None:
        omega3 = parse_complex(args.omega3)
    elif args.tau is not None:
        omega3 = parse_complex(args.tau) * omega1
    else:
        omega3 = complex(0.3, 1.1) * omega1
    lat = build_lattice(omega1, omega3)
    cfg = SeriesConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol, max_terms=args.max_terms)
    return lat, cfg


def _value_json(r: EvalResult) -> dict:
    """The JSON fields of a result: value [re, im], null unless Finite, and status."""
    finite = r.status is Status.FINITE
    return {"value": [r.value.real, r.value.imag] if finite else None, "status": r.status.value}


def _value_csv(r: EvalResult) -> str:
    """The CSV fields of a result, "re,im,status", the value empty unless Finite."""
    if r.status is Status.FINITE:
        return f"{r.value.real!r},{r.value.imag!r},{r.status.value}"
    return f",,{r.status.value}"


def _lookup(command: str, args):
    """(table entry, route) for --fn, --route and --a, checked before any
    point is evaluated; None after a usage message."""
    fn = FUNCTIONS.get(args.fn)
    if fn is None:
        see = "--list-fns" if command == "eval" else "eval --list-fns"
        sys.stderr.write(f"{command}: unknown function {args.fn!r}; see {see}\n")
        return None
    if fn.needs_a and args.a is None:
        sys.stderr.write(f"{command}: function {args.fn!r} needs --a\n")
        return None
    try:
        return fn, fn.route(args.route)
    except ValueError:
        sys.stderr.write(f"{command}: route {args.route!r} not valid for {args.fn!r}\n")
        return None


def cmd_eval(args) -> int:
    if args.list_fns:
        for name in sorted(FUNCTIONS):
            sys.stdout.write(name + "\n")
        return 0
    if not args.fn or args.u is None:
        sys.stderr.write("eval: --fn and --u are required\n")
        return 2
    found = _lookup("eval", args)
    if found is None:
        return 2
    fn, route = found
    lat, cfg = _build(args)
    u = parse_complex(args.u, lat)
    a = parse_complex(args.a, lat) if args.a is not None else None
    try:
        res = fn.run(lat, cfg, u, a, route)
    except (PoleProximityError, BranchAmbiguity) as exc:
        sys.stderr.write(f"eval: {exc}\n")
        return 3
    if args.format == "csv":
        sys.stdout.write(f"re_value,im_value,status\n{_value_csv(res)}\n")
    else:
        sys.stdout.write(json.dumps(_value_json(res)) + "\n")
    return 0 if res.status is Status.FINITE else 3


def _parse_axis(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis spec must be 'start:stop:count', got {spec!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("axis count must be >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def cmd_table(args) -> int:
    found = _lookup("table", args)
    if found is None:
        return 2
    fn, route = found
    lat, cfg = _build(args)
    try:
        res = _parse_axis(args.re)
        ims = _parse_axis(args.im)
    except ValueError as exc:
        sys.stderr.write(f"table: {exc}\n")
        return 2
    a = parse_complex(args.a, lat) if args.a is not None else None
    results = []
    for im in ims:
        for re in res:
            try:
                r = fn.run(lat, cfg, complex(re, im), a, route)
            except (PoleProximityError, BranchAmbiguity):
                r = EvalResult(complex("nan"), Status.AT_POLE)
            results.append(r)
    rows = iter(results)
    if args.format == "csv":
        # Row-major over the grid; each axis value is formatted once.
        re_txt = [f"{re!r}," for re in res]
        lines = ["re_u,im_u,re_value,im_value,status\n"]
        for im in ims:
            im_txt = f"{im!r},"
            lines += [f"{x}{im_txt}{_value_csv(next(rows))}\n" for x in re_txt]
        sys.stdout.write("".join(lines))
    else:
        payload = [{"u": [re, im], **_value_json(next(rows))} for im in ims for re in res]
        sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def cmd_constants(args) -> int:
    lat, cfg = _build(args)
    payload = constants_to_json(lat, constants(lat, cfg))
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def cmd_verify(args) -> int:
    lat, cfg = _build(args)
    suite = default_suite()
    if args.only:
        suite = tuple(s for s in suite if fnmatch.fnmatch(s.name, args.only))
        if not suite:
            sys.stderr.write(f"verify: no identity matches {args.only!r}\n")
            return 2
    reports = run_suite(lat, suite, n=args.n, seed=args.seed, cfg=cfg)
    sys.stdout.write(json.dumps(reports_to_json(reports), allow_nan=False) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weierzeta",
        description="Weierstrass elliptic functions, auxiliary zetas, zeta differences, and an identity verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    _add_common(p_eval)
    p_eval.add_argument("--fn", default=None, help="function name; see --list-fns")
    p_eval.add_argument("--u", default=None, help="argument: 're,im' or w1|w2|w3")
    p_eval.add_argument("--a", default=None, help="second argument for Pi")
    p_eval.add_argument("--route", default=None, help="evaluation route where applicable")
    p_eval.add_argument("--list-fns", action="store_true", help="list function names and exit")

    p_table = sub.add_parser("table", help="tabulate a function over a grid")
    _add_common(p_table)
    p_table.add_argument("--fn", required=True)
    p_table.add_argument("--re", required=True, help="real axis as 'start:stop:count'")
    p_table.add_argument("--im", required=True, help="imaginary axis as 'start:stop:count'")
    p_table.add_argument("--a", default=None)
    p_table.add_argument("--route", default=None)

    p_const = sub.add_parser("constants", help="emit lattice constants as JSON")
    _add_common(p_const)

    p_ver = sub.add_parser("verify", help="run the identity suite")
    _add_common(p_ver)
    p_ver.add_argument("--n", type=int, default=100, help="samples per identity")
    p_ver.add_argument("--seed", type=int, default=12345)
    p_ver.add_argument("--only", default=None, help="glob filter on identity names")

    for p in (p_eval, p_table):
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "eval": cmd_eval,
        "table": cmd_table,
        "constants": cmd_constants,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (WeierzetaError, ValueError) as exc:
        sys.stderr.write(f"weierzeta: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
