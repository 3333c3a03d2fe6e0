"""Command-line front end.

Subcommands: ``class`` builds cover classes, ``pair`` evaluates divisors
against curves, ``fnef`` and ``extremal`` report positivity and ray
certificates, ``rays`` enumerates the F-cone, ``table`` regenerates the
canonical CSV tables, and ``eigenrank`` tabulates eigenbundle ranks and
degrees.  Exit codes: 0 success or affirmative verdict, 1 mathematical
negative (not F-nef, not extremal), 2 usage error; 1 also when the reader
closes the output pipe.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from functools import cache
from math import gcd
from operator import attrgetter
from typing import Iterator, Optional, Sequence

from .covers import (
    WeightData,
    hodge_class,
    log_canonical_class,
    p5_class,
    pullback_boundary,
    pullback_combo,
    sym_eigen_det_class,
    sym_weighted_pullbacks,
)
from .eigenforms import eigen_rank_degree_fcurve
from .exactlin import parse_rational
from .moduli import (
    FCURVE_FORMAT,
    _fcurve_terms,
    SymFCurve,
    enumerate_sym_fcurves,
    fcurve_certificate,
    format_divisor,
    parse_divisor,
    psi_expand,
    sym_divisor_from_vector,
    sym_pairing,
    tk_pairing,
    zero_and_negative_fcurves,
)
from .tables import ray_annotations, fcone_rays, table_csv, TABLE_NAMES


def _int(text: str) -> int:
    """int() in ASCII as an argparse type: int() alone reads any Unicode digit."""
    with contextlib.suppress(ValueError):
        if text.isascii():
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_int, text.split(",")))
    except argparse.ArgumentTypeError:
        raise ValueError(f"weights must be a comma-separated integer list, got {text!r}") from None


def _parse_parts(text: str) -> tuple[int, int, int, int]:
    parts = _parse_weights(text)
    if len(parts) != 4:
        raise ValueError(f"expected four comma-separated parts, got {text!r}")
    return parts


def _rational(text: str) -> Fraction:
    """parse_rational as an argparse type: its message, not its name, reaches the user."""
    try:
        return parse_rational(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _cover_weights(args) -> WeightData:
    """Weight data of a connected cover: p and the weights have gcd 1."""
    w = WeightData(_parse_weights(args.weights), args.p)
    common = gcd(w.p, *w.d)
    if common > 1:
        raise ValueError(
            f"weights {args.weights} and degree {w.p} share the factor {common},"
            " so the cover is disconnected"
        )
    return w


# the dest of every class flag, by its name on the command line
CLASS_DESTS = {
    "n": "n", "p": "p", "weights": "weights", "j": "j", "part": "part",
    "part-w": "part_w", "lambda": "c_lambda", "irr": "c_irr", "red": "c_red",
}
REQUIRED_CLASS_FLAGS = ("n", "p", "weights", "j")

# each class kind: the flags it reads and the builder of its class.  A kind
# requires the flags of REQUIRED_CLASS_FLAGS that it reads and takes no flag
# that it does not read; the optional flags have their defaults here.
CLASS_KINDS = {
    "hodge": (("n", "p"), lambda a: hodge_class(a.n, a.p)),
    "boundary": (("n", "p", "part"),
                 lambda a: pullback_boundary(a.n, a.p)[("irr", "red").index(a.part or "irr")]),
    "weighted": (("p", "weights", "part-w"),
                 lambda a: sym_weighted_pullbacks(_cover_weights(a))[
                     ("lambda", "irr", "red").index(a.part_w or "lambda")]),
    "eigen": (("p", "weights", "j"), lambda a: sym_eigen_det_class(_cover_weights(a), a.j)),
    # conformal_blocks_class: p·det E_1
    "cb": (("p", "weights"), lambda a: a.p * sym_eigen_det_class(_cover_weights(a), 1)),
    "combo": (("n", "p", "lambda", "irr", "red"),
              lambda a: pullback_combo(a.n, a.p, a.c_lambda or 0, a.c_irr or 0, a.c_red or 0)),
    "p5": (("n", "j"), lambda a: p5_class(a.n, a.j)),
    "logcanonical": (("n", "p"), lambda a: log_canonical_class(a.n, a.p)),
}


def cmd_class(args) -> int:
    _, build = CLASS_KINDS[args.kind]
    div = build(args)
    vector = div.class_vector()
    ray = vector.ray
    # the ray when it is not the class itself
    prop = ray if any(ray) and vector != ray else None
    if args.json:
        payload = {
            "n": div.n,
            "literal": format_divisor(div),
            "expanded": format_divisor(psi_expand(div)),
            "vector": [str(x) for x in vector],
            "proportional": list(prop) if prop else None,
        }
        print(json.dumps(payload))
    elif args.expand:
        print(format_divisor(psi_expand(div)))
        if prop:
            print("proportional to " + format_divisor(sym_divisor_from_vector(div.n, prop)))
    else:
        print(format_divisor(div))
    return 0


def _curve_lines(tag: str, curves: Sequence[SymFCurve]) -> Iterator[str]:
    # a str() per curve took half of a 22,140-line listing
    return map((tag + FCURVE_FORMAT).__mod__, map(attrgetter("parts"), curves))


def cmd_pair(args) -> int:
    div = parse_divisor(args.divisor, args.n)
    if args.curve is not None:
        f = SymFCurve(_parse_parts(args.curve))
        if f.n != args.n:
            raise ValueError(f"curve parts sum to {f.n}, expected {args.n}")
        print(sym_pairing(div, f))
        return 0
    if args.tk is not None:
        print(tk_pairing(div, args.tk))
        return 0
    curves = enumerate_sym_fcurves(args.n)
    # integer degrees over the class's one denominator, one Fraction per value
    num, den = div._expanded
    degrees = [sum([num[i] * c for i, c in _fcurve_terms(args.n, f.parts)]) for f in curves]
    values = {a: str(Fraction(a, den)) for a in set(degrees)}
    line = FCURVE_FORMAT + " %s"
    print("\n".join([line % (*f.parts, values[a]) for f, a in zip(curves, degrees)]))
    return 0


def cmd_fnef(args) -> int:
    zero, negative = zero_and_negative_fcurves(parse_divisor(args.divisor, args.n))
    # one write for the whole listing: a print per curve took about half of
    # an fnef run at n = 48
    print("\n".join(["F-nef" if not negative else "not F-nef",
                     *_curve_lines("zero: ", zero),
                     *(f"negative: {f} = {deg}" for f, deg in negative)]))
    return 0 if not negative else 1


def cmd_extremal(args) -> int:
    div = parse_divisor(args.divisor, args.n)
    if div.is_zero():
        # every F-curve is orthogonal to it, so the rank below would overshoot
        print("not extremal")
        print("zero class: orthogonal to every F-curve, spans no ray")
        return 1
    orthogonal, negative = zero_and_negative_fcurves(div)
    if negative:
        print("\n".join(["not F-nef", *(f"negative: {f} = {deg}" for f, deg in negative)]))
        return 1
    certificate = fcurve_certificate(orthogonal)
    span = len(certificate)
    target = args.n // 2 - 2
    lines = ["extremal" if span == target else "not extremal", f"rank {span} of {target}",
             *_curve_lines("orthogonal: ", orthogonal)]
    if certificate:
        lines.append("certificate: " + " ".join(_curve_lines("", certificate)))
    print("\n".join(lines))
    return 0 if span == target else 1


def cmd_rays(args) -> int:
    if args.n < 5:
        raise ValueError(f"ray enumeration needs at least 5 markings, got {args.n}")
    basis = [f"D{k}" for k in range(2, args.n // 2 + 1)]
    if args.annotate:
        rows = ray_annotations(args.n)
    else:
        rows = [(ray, []) for ray in fcone_rays(args.n).rays]
    if args.json:
        payload = {
            "n": args.n,
            "basis": basis,
            "rays": [
                {"vector": list(ray), "annotations": labels} for ray, labels in rows
            ],
        }
        print(json.dumps(payload))
        return 0
    print("\n".join([" ".join(map(str, ray)) + ("  " + "; ".join(labels) if labels else "")
                     for ray, labels in rows]))
    return 0


def cmd_table(args) -> int:
    print(table_csv(args.name, args.n), end="")
    return 0


def cmd_eigenrank(args) -> int:
    parts = _parse_parts(args.parts)
    p = args.p
    a, b, c, d = parts
    if args.j is not None:
        rk, deg = eigen_rank_degree_fcurve(a, b, c, d, p, args.j)
        print(f"{args.j} {rk} {deg}")
        return 0
    total_rank, total_deg = 0, Fraction(0)
    for j in range(p):
        rk, deg = eigen_rank_degree_fcurve(a, b, c, d, p, j)
        total_rank += rk
        total_deg += deg
        print(f"{j} {rk} {deg}")
    print(f"total {total_rank} {total_deg}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one line, ``error: <message>``,
    as the ValueErrors of ``main`` are; subparsers are made of this class."""

    def error(self, message: str):
        # argparse takes a literal such as -D2 for an option, then misses the divisor
        head, _, missing = message.partition("the following arguments are required: ")
        if not head and "divisor" in missing.split(", "):
            message += f" (a literal starting with - goes after --: {self.prog} --n 4 -- -D2)"
        self.exit(2, f"error: {message}\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: argparse keeps no state between parse_args calls
    parser = _Parser(
        prog="fcone",
        description="Divisor classes from cyclic covers and the symmetric F-cone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_class = sub.add_parser("class", help="build a cover class and print it")
    p_class.add_argument("kind", choices=list(CLASS_KINDS))
    p_class.add_argument("--n", type=_int, help="number of markings")
    p_class.add_argument("--p", type=_int, help="cover degree")
    p_class.add_argument("--j", type=_int, help="character index")
    p_class.add_argument("--weights", help="comma-separated marking weights")
    p_class.add_argument("--lambda", dest="c_lambda", type=_rational)
    p_class.add_argument("--irr", dest="c_irr", type=_rational)
    p_class.add_argument("--red", dest="c_red", type=_rational)
    p_class.add_argument("--part", choices=["irr", "red"],
                         help="which boundary pullback to print")
    p_class.add_argument("--part-w", choices=["lambda", "irr", "red"],
                         help="which weighted pullback to print")
    form = p_class.add_mutually_exclusive_group()
    form.add_argument("--expand", action="store_true", help="print in the pure-D basis")
    form.add_argument("--json", action="store_true")
    p_class.set_defaults(func=cmd_class)

    p_pair = sub.add_parser("pair", help="pair a divisor against curves")
    p_pair.add_argument("divisor")
    p_pair.add_argument("--n", type=_int, required=True)
    p_pair.add_argument("--curve", help="four comma-separated parts")
    p_pair.add_argument("--tk", type=_int, help="index of a boundary test curve")
    p_pair.set_defaults(func=cmd_pair)

    p_fnef = sub.add_parser("fnef", help="check nonnegativity on all F-curves")
    p_fnef.add_argument("divisor")
    p_fnef.add_argument("--n", type=_int, required=True)
    p_fnef.set_defaults(func=cmd_fnef)

    p_ext = sub.add_parser("extremal", help="certify a divisor as an extremal ray")
    p_ext.add_argument("divisor")
    p_ext.add_argument("--n", type=_int, required=True)
    p_ext.set_defaults(func=cmd_extremal)

    p_rays = sub.add_parser("rays", help="enumerate extreme rays of the F-cone")
    p_rays.add_argument("--n", type=_int, required=True)
    p_rays.add_argument("--annotate", action="store_true",
                        help="label rays by matching cover classes")
    p_rays.add_argument("--json", action="store_true")
    p_rays.set_defaults(func=cmd_rays)

    p_table = sub.add_parser("table", help="print a canonical CSV table")
    p_table.add_argument("name", choices=sorted(TABLE_NAMES))
    p_table.add_argument("--n", type=_int, help="markings for parameterized tables")
    p_table.set_defaults(func=cmd_table)

    p_eig = sub.add_parser("eigenrank", help="eigenbundle ranks and degrees on a curve")
    p_eig.add_argument("parts", help="four comma-separated tail weights")
    p_eig.add_argument("--p", type=_int, required=True)
    p_eig.add_argument("--j", type=_int, help="single character instead of the full table")
    p_eig.set_defaults(func=cmd_eigenrank)

    return parser


def _validate(args) -> None:
    if args.command == "eigenrank" and args.p < 2:
        raise ValueError(f"cover degree must be at least 2, got {args.p}")
    if args.command == "pair" and args.curve is not None and args.tk is not None:
        raise ValueError("pair takes --curve or --tk, not both")
    if args.command == "class":
        reads, _ = CLASS_KINDS[args.kind]
        for flag, dest in CLASS_DESTS.items():
            given = getattr(args, dest) is not None
            if flag in reads and flag in REQUIRED_CLASS_FLAGS and not given:
                raise ValueError(f"class {args.kind} requires --{flag}")
            if flag not in reads and given:
                raise ValueError(f"class {args.kind} takes no --{flag}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _validate(args)
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main_entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()
