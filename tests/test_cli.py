import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fcone.cli import CLASS_KINDS, _build_parser, main
from fcone.covers import hodge_class
from fcone.moduli import (SymFCurve, enumerate_sym_fcurves, fcurve_certificate,
                          fcurve_class_vector, format_divisor, parse_divisor,
                          sym_divisor_from_vector, sym_pairing)
from fcone.tables import TABLE_NAMES, triple_cover_divisor

from oracles import reference_rank

ROOT = Path(__file__).resolve().parents[1]
TABLES_DIR = ROOT / "tables"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_hodge(capsys):
    code, out, err = run(capsys, "class", "hodge", "--n", "6", "--p", "3")
    assert (code, out, err) == (0, "2/9*psi - 2/9*D2\n", "")


def test_class_hodge_expand(capsys):
    code, out, _ = run(capsys, "class", "hodge", "--n", "6", "--p", "3", "--expand")
    assert code == 0
    assert out == "2/15*D2 + 6/15*D3\nproportional to 1*D2 + 3*D3\n"


def test_class_hodge_json(capsys):
    code, out, _ = run(capsys, "class", "hodge", "--n", "10", "--p", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "n": 10,
        "literal": "1/8*psi - 1/8*D3 - 1/8*D5",
        "expanded": "4/18*D2 + 3/18*D3 + 6/18*D4 + 4/18*D5",
        "vector": ["2/9", "1/6", "1/3", "2/9"],
        "proportional": [4, 3, 6, 4],
    }


def test_class_combo_expand(capsys):
    code, out, _ = run(
        capsys, "class", "combo", "--n", "6", "--p", "3", "--lambda", "9", "--irr=-1", "--expand"
    )
    assert code == 0
    assert out == "6/5*D2 + 3/5*D3\nproportional to 2*D2 + 1*D3\n"


def test_class_boundary_parts(capsys):
    code, out, _ = run(capsys, "class", "boundary", "--n", "6", "--p", "2", "--part", "irr")
    assert (code, out) == (0, "2*D2\n")
    code, out, _ = run(capsys, "class", "boundary", "--n", "6", "--p", "2", "--part", "red")
    assert (code, out) == (0, "1/2*D3\n")
    # without --part it is δ_irr
    code, out, _ = run(capsys, "class", "boundary", "--n", "6", "--p", "2")
    assert (code, out) == (0, "2*D2\n")


def test_class_optional_flags(capsys):
    code, out, _ = run(
        capsys, "class", "weighted", "--weights", "1,1,1,1,1,1", "--p", "2", "--part-w", "red"
    )
    assert (code, out) == (0, "1/2*D3\n")
    # combo with only --red: the missing coefficients are 0
    code, out, _ = run(capsys, "class", "combo", "--n", "6", "--p", "2", "--red", "1")
    assert (code, out) == (0, "1/2*D3\n")


def test_class_proportional_keeps_sign(capsys):
    argv = ("class", "combo", "--n", "6", "--p", "2", "--lambda", "1", "--irr=-3")
    code, out, _ = run(capsys, *argv, "--expand")
    assert code == 0
    assert out == "-58/10*D2 + 1/10*D3\nproportional to -58*D2 + 1*D3\n"
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["proportional"] == [-58, 1]


def test_class_p5_expand(capsys):
    code, out, _ = run(capsys, "class", "p5", "--n", "10", "--j", "1", "--expand")
    assert code == 0
    assert out == (
        "10/9*D2 + 30/9*D3 + 60/9*D4 + 55/9*D5\n"
        "proportional to 2*D2 + 6*D3 + 12*D4 + 11*D5\n"
    )


def test_class_weighted_dropped_marking(capsys):
    code, out, _ = run(
        capsys, "class", "weighted", "--weights", "1,1,1,1,1,1,0", "--p", "2", "--expand"
    )
    assert code == 0
    assert out == "1/7*D2 + 1/7*D3\nproportional to 1*D2 + 1*D3\n"


def test_class_eigen_expand(capsys):
    code, out, _ = run(
        capsys, "class", "eigen", "--weights", "1,1,1,1,1,1,1,1,1,1",
        "--p", "5", "--j", "1", "--expand",
    )
    assert code == 0
    assert out == (
        "1/45*D2 + 3/45*D3 + 6/45*D4 + 10/45*D5\n"
        "proportional to 1*D2 + 3*D3 + 6*D4 + 10*D5\n"
    )


def test_class_cb_expand(capsys):
    code, out, _ = run(
        capsys, "class", "cb", "--weights", "1,1,1,1,1,1,1,1,1,1", "--p", "5", "--expand"
    )
    assert code == 0
    assert out == (
        "1/9*D2 + 3/9*D3 + 6/9*D4 + 10/9*D5\n"
        "proportional to 1*D2 + 3*D3 + 6*D4 + 10*D5\n"
    )


def test_class_logcanonical(capsys):
    code, out, _ = run(capsys, "class", "logcanonical", "--n", "6", "--p", "2")
    assert (code, out) == (0, "2/2*psi - 3/2*D2 - 2/2*D3\n")


T3_N12 = "2*psi - 2*D2 - 3*D3 - 2*D4 - 2*D5 - 3*D6"


def test_pair_curve(capsys):
    code, out, _ = run(capsys, "pair", T3_N12, "--n", "12", "--curve", "5,5,1,1")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "pair", T3_N12, "--n", "12", "--curve", "9,1,1,1")
    assert (code, out) == (0, "3\n")


def test_pair_test_curve(capsys):
    code, out, _ = run(capsys, "pair", "1*psi - 1*D2 - 1*D3", "--n", "6", "--tk", "3")
    assert (code, out) == (0, "1\n")


def test_pair_all_curves(capsys):
    code, out, _ = run(capsys, "pair", "1*D2 - 1*D3", "--n", "6")
    assert (code, out) == (0, "F_{3,1,1,1} 4\nF_{2,2,1,1} -3\n")


def test_fnef_positive(capsys):
    code, out, _ = run(capsys, "fnef", "2*psi - 2*D2 - 3*D3 - 2*D4", "--n", "9")
    assert code == 0
    assert out == "F-nef\nzero: F_{5,2,1,1}\nzero: F_{4,2,2,1}\n"


def test_fnef_negative(capsys):
    code, out, _ = run(capsys, "fnef", "1*D2 - 1*D3", "--n", "6")
    assert code == 1
    assert out == "not F-nef\nnegative: F_{2,2,1,1} = -3\n"


def test_extremal_yes(capsys):
    code, out, _ = run(capsys, "extremal", "4*D2 + 6*D3 + 6*D4 + 7*D5", "--n", "10")
    assert code == 0
    assert out == (
        "extremal\n"
        "rank 3 of 3\n"
        "orthogonal: F_{4,2,2,2}\n"
        "orthogonal: F_{3,3,3,1}\n"
        "orthogonal: F_{3,3,2,2}\n"
        "certificate: F_{4,2,2,2} F_{3,3,3,1} F_{3,3,2,2}\n"
    )


def test_extremal_no(capsys):
    code, out, _ = run(capsys, "extremal", "1*D2 + 1*D3", "--n", "6")
    assert (code, out) == (1, "not extremal\nrank 0 of 1\n")
    code, out, _ = run(capsys, "extremal", "2*D2 + 6*D3 + 9*D4 + 14*D5", "--n", "10")
    assert code == 1
    assert out == (
        "not extremal\n"
        "rank 2 of 3\n"
        "orthogonal: F_{7,1,1,1}\n"
        "orthogonal: F_{5,3,1,1}\n"
        "certificate: F_{7,1,1,1} F_{5,3,1,1}\n"
    )
    # the zero class is orthogonal to every F-curve but spans no ray
    for n in ("4", "8"):
        code, out, _ = run(capsys, "extremal", "0", "--n", n)
        assert (code, out) == (
            1, "not extremal\nzero class: orthogonal to every F-curve, spans no ray\n")


@pytest.mark.parametrize("n", ["4", "5"])
def test_extremal_with_a_rank_target_of_zero(capsys, n):
    # one coordinate: a nonzero F-nef class spans the ray, with no curve
    assert run(capsys, "extremal", "psi", "--n", n) == (0, "extremal\nrank 0 of 0\n", "")


def test_extremal_triple_cover_at_48(capsys):
    # the scan stops at the target, after 102 of the 204 zero curves; a
    # target one short would report not extremal
    code, out, _ = run(capsys, "extremal", format_divisor(triple_cover_divisor(48)), "--n", "48")
    lines = out.splitlines()
    assert (code, lines[:2]) == (0, ["extremal", "rank 22 of 22"])
    assert len([line for line in lines if line.startswith("orthogonal: ")]) == 204
    certificate = [
        SymFCurve(tuple(int(x) for x in f.strip("F_{}").split(",")))
        for f in lines[-1].removeprefix("certificate: ").split()
    ]
    assert reference_rank([fcurve_class_vector(f) for f in certificate]) == len(certificate) == 22


def curve_text(f: SymFCurve) -> str:
    return "F_{" + ",".join(str(v) for v in f.parts) + "}"


def reference_listings(d) -> dict[str, tuple[int, str]]:
    """The exit code and stdout of pair, fnef and extremal on d, rendered
    one curve at a time from per-curve degrees."""
    n, curves = d.n, enumerate_sym_fcurves(d.n)
    degrees = [sym_pairing(d, f) for f in curves]
    zero = [f for f, deg in zip(curves, degrees) if deg == 0]
    negative = [f"negative: {curve_text(f)} = {deg}" for f, deg in zip(curves, degrees) if deg < 0]
    pair = "".join(f"{curve_text(f)} {deg}\n" for f, deg in zip(curves, degrees))
    fnef = ["F-nef" if not negative else "not F-nef"]
    fnef += [f"zero: {curve_text(f)}" for f in zero] + negative
    if d.is_zero():
        extremal = (1, ["not extremal", "zero class: orthogonal to every F-curve, spans no ray"])
    elif negative:
        extremal = (1, ["not F-nef", *negative])
    else:
        certificate = fcurve_certificate(zero)
        span = len(certificate)
        lines = ["extremal" if span == n // 2 - 2 else "not extremal",
                 f"rank {span} of {n // 2 - 2}"]
        lines += [f"orthogonal: {curve_text(f)}" for f in zero]
        if certificate:
            lines.append("certificate:" + "".join(" " + curve_text(f) for f in certificate))
        extremal = (0 if span == n // 2 - 2 else 1, lines)
    return {"pair": (0, pair),
            "fnef": (1 if negative else 0, "".join(line + "\n" for line in fnef)),
            "extremal": (extremal[0], "".join(line + "\n" for line in extremal[1]))}


@st.composite
def listing_classes(draw):
    """A positive integer sum of hodge_class(n, p) for p | n and, for 3 | n,
    the triple-cover class, n = 6..60: F-nef, often interior, so with no
    zero curve; in half of the draws a small sparse vector is subtracted,
    which leaves some classes F-nef and makes most not."""
    n = draw(st.integers(6, 60))
    bases = [hodge_class(n, p) for p in range(2, n + 1) if n % p == 0]
    if n % 3 == 0:
        bases.append(triple_cover_divisor(n))
    picked = draw(st.lists(st.sampled_from(bases), min_size=1, max_size=3))
    d = sum((f * draw(st.integers(1, 5)) for f in picked[1:]), picked[0])
    if draw(st.booleans()):
        vector = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=n // 2 - 1,
                               max_size=n // 2 - 1))
        d = d - sym_divisor_from_vector(n, vector)
    return d


@settings(max_examples=60, deadline=None)
@given(listing_classes())
# at n = 6: an interior class (no zero curve), a ray (one zero curve, which
# certifies it), a class negative on one curve, and the zero class
@example(parse_divisor("3*D2 + 4*D3", 6))
@example(parse_divisor("1*D2 + 3*D3", 6))
@example(parse_divisor("1*D2 - 1*D3", 6))
@example(parse_divisor("0", 6))
@example(triple_cover_divisor(48))
def test_curve_listings_match_a_per_curve_rendering(d):
    expected = reference_listings(d)
    literal = format_divisor(d)
    for command in ("pair", "fnef", "extremal"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, literal, "--n", str(d.n)])
        assert (code, out.getvalue()) == expected[command]


# each sequence runs on one parser, and each call must match a fresh parser:
# class kinds that read different flags, --help, and a usage error
PARSER_SEQUENCES = [
    [("class", "boundary", "--n", "6", "--p", "2", "--part", "red"),
     ("class", "boundary", "--n", "6", "--p", "2"),
     ("class", "combo", "--n", "6", "--p", "3", "--lambda", "9", "--irr", "-1", "--expand"),
     ("class", "hodge", "--n", "6", "--p", "2", "--json"),
     ("class", "hodge", "--n", "6", "--p", "2")],
    [("--help",), ("fnef", "psi", "--n", "6")],
    [("class", "hodge", "--n", "6"), ("class", "hodge", "--n", "6", "--p", "3")],
    [("extremal", "psi"), ("extremal", "psi", "--n", "6")],
]


@pytest.mark.parametrize("calls", PARSER_SEQUENCES)
def test_cached_parser_matches_a_fresh_one(capsys, calls):
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    _build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert fresh[0] != fresh[1]


def test_rays_plain(capsys):
    code, out, _ = run(capsys, "rays", "--n", "6")
    assert (code, out) == (0, "1 3\n2 1\n")


def test_rays_annotated(capsys):
    code, out, _ = run(capsys, "rays", "--n", "6", "--annotate")
    assert code == 0
    assert out == (
        "1 3  combo(6,2,12,-1,0); hodge(6,3); eigen(1^6,3,1); eigen(1^6,3,2);"
        " eigen(1^6,6,2); eigen(1^6,6,4)\n"
        "2 1  hodge(6,2); eigen(1^6,2,1); combo(6,3,9,-1,0); eigen(1^6,6,3)\n"
    )


def test_rays_json(capsys):
    code, out, _ = run(capsys, "rays", "--n", "9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == ["D2", "D3", "D4"]
    assert [r["vector"] for r in payload["rays"]] == [
        [1, 1, 2], [1, 3, 2], [1, 3, 6], [3, 3, 4],
    ]


def test_rays_annotated_json(capsys):
    code, out, _ = run(capsys, "rays", "--n", "9", "--annotate", "--json")
    assert code == 0
    payload = json.loads(out)
    annotations = {tuple(r["vector"]): r["annotations"] for r in payload["rays"]}
    assert annotations[(1, 1, 2)] == ["combo(9,3,9,-1,0)"]
    assert "hodge(9,3)" in annotations[(1, 3, 2)]
    assert "wcombo(1^8 2,2,10,-1,-2)" in annotations[(1, 3, 6)]
    assert "weighted(1^8 2,2)" in annotations[(3, 3, 4)]
    assert all(labels for labels in annotations.values())


@pytest.mark.parametrize("n", range(5, 13))
def test_rays_annotated_json_matches_text(capsys, n):
    code, text, _ = run(capsys, "rays", "--n", str(n), "--annotate")
    assert code == 0
    code, out, _ = run(capsys, "rays", "--n", str(n), "--annotate", "--json")
    assert code == 0
    from_text = []
    for line in text.splitlines():
        vector, _, labels = line.partition("  ")
        from_text.append(([int(x) for x in vector.split()], labels.split("; ") if labels else []))
    from_json = [(r["vector"], r["annotations"]) for r in json.loads(out)["rays"]]
    assert from_json == from_text


def test_table_matches_golden(capsys):
    for name in ("n6", "n7", "n9", "n10", "n10-fcurves"):
        code, out, _ = run(capsys, "table", name)
        assert code == 0
        assert out == (TABLES_DIR / f"{name}.csv").read_text()
    code, out, _ = run(capsys, "table", "t3-certificates", "--n", "12")
    assert code == 0
    assert out == (TABLES_DIR / "t3-certificates-n12.csv").read_text()


def test_eigenrank_table(capsys):
    code, out, _ = run(capsys, "eigenrank", "2,2,1,1", "--p", "3")
    assert (code, out) == (0, "0 0 0\n1 1 1/3\n2 1 1/3\ntotal 2 2/3\n")


def test_eigenrank_single(capsys):
    code, out, _ = run(capsys, "eigenrank", "1,1,1,1", "--p", "2", "--j", "1")
    assert (code, out) == (0, "1 1 1/2\n")


# a valid invocation of every class kind, without optional flags
KIND_ARGV = {
    "hodge": ("--n", "6", "--p", "3"),
    "boundary": ("--n", "6", "--p", "2"),
    "weighted": ("--weights", "1,1,1,1,1,1", "--p", "2"),
    "eigen": ("--weights", "1,1,1,1,1,1", "--p", "3", "--j", "1"),
    "cb": ("--weights", "1,1,1,1,1,1", "--p", "3"),
    "combo": ("--n", "6", "--p", "2"),
    "p5": ("--n", "10", "--j", "1"),
    "logcanonical": ("--n", "6", "--p", "2"),
}
# every flag each kind reads; it takes no other class flag
KIND_FLAGS = {
    "hodge": ("n", "p"),
    "boundary": ("n", "p", "part"),
    "weighted": ("p", "weights", "part-w"),
    "eigen": ("p", "weights", "j"),
    "cb": ("p", "weights"),
    "combo": ("n", "p", "lambda", "irr", "red"),
    "p5": ("n", "j"),
    "logcanonical": ("n", "p"),
}
CLASS_FLAG_VALUES = {
    "n": "6", "p": "3", "weights": "1,1,1,1,1,1", "j": "1",
    "part": "red", "part-w": "red", "lambda": "1", "irr": "1", "red": "1",
}

@pytest.mark.parametrize(
    "argv,message",
    [
        (("class", "hodge", "--n", "5", "--p", "2"),
         "degree 2 must divide the number of markings 5"),
        (("class", "eigen", "--weights", "1,1,1,1,1,1", "--p", "2"),
         "class eigen requires --j"),
        (("pair", "1*D2", "--n", "6", "--curve", "1,1,1"),
         "expected four comma-separated parts, got '1,1,1'"),
        (("pair", "1*D2", "--n", "6", "--curve", "1,1,1,1"),
         "curve parts sum to 4, expected 6"),
        (("pair", "2*psi + 1", "--n", "6", "--curve", "3,1,1,1"),
         "constant term '1' is not a divisor"),
        (("rays", "--n", "4"),
         "ray enumeration needs at least 5 markings, got 4"),
        (("eigenrank", "1,1,1,1", "--p", "3"),
         "tail weights (1, 1, 1, 1) do not sum to 0 mod 3"),
        (("eigenrank", "1,1,1,1", "--p", "0"),
         "cover degree must be at least 2, got 0"),
        (("eigenrank", "1,1,1,1", "--p", "-3"),
         "cover degree must be at least 2, got -3"),
        (("fnef", "1/0*D2", "--n", "6"),
         "malformed rational literal '1/0'"),
        (("pair", "1*D2", "--n", "6", "--curve", "3,1,1,1", "--tk", "3"),
         "pair takes --curve or --tk, not both"),
        (("table", "n6", "--n", "9"),
         "table n6 takes no --n"),
        (("class", "weighted", "--weights", "2,2,2,2", "--p", "2"),
         "weights 2,2,2,2 and degree 2 share the factor 2, so the cover is disconnected"),
        (("class", "eigen", "--weights", "3,3,3,3", "--p", "6", "--j", "1"),
         "weights 3,3,3,3 and degree 6 share the factor 3, so the cover is disconnected"),
        (("class", "weighted", "--n", "9", "--weights", "1,1,1,1", "--p", "2"),
         "class weighted takes no --n"),
        (("class", "hodge", "--n", "6", "--p", "3", "--weights", "1,1"),
         "class hodge takes no --weights"),
        (("class", "p5", "--n", "10", "--j", "1", "--p", "3"),
         "class p5 takes no --p"),
        (("class", "cb", "--weights", "1,1,1,1", "--p", "2", "--j", "1"),
         "class cb takes no --j"),
        *(
            (("class", kind, *KIND_ARGV[kind], f"--{flag}", value),
             f"class {kind} takes no --{flag}")
            for kind in KIND_ARGV
            for flag, value in CLASS_FLAG_VALUES.items()
            if flag not in KIND_FLAGS[kind]
        ),
        (("class", "hodge", "--n", "0", "--p", "2"),
         "need at least 4 markings, got n=0"),
        (("class", "boundary", "--n", "-2", "--p", "2"),
         "need at least 4 markings, got n=-2"),
        (("class", "combo", "--n", "0", "--p", "2", "--lambda", "1"),
         "need at least 4 markings, got n=0"),
        (("pair", "1*psi", "--n", "5", "--tk", "2"),
         "no test curve T_k exists below n = 6, got n=5"),
        (("pair", "1*D2", "--n", "4", "--tk", "3"),
         "no test curve T_k exists below n = 6, got n=4"),
        (("class", "cb", "--weights", "2,2,2,2", "--p", "2"),
         "weights 2,2,2,2 and degree 2 share the factor 2, so the cover is disconnected"),
        (("class", "combo", "--n", "6", "--p", "3", "--lambda", "1/0"),
         "argument --lambda: malformed rational literal '1/0'"),
        # an exponent is no rational literal; it was read as 10^5000, and
        # printing that class reached Python's limit on int digits
        (("class", "combo", "--n", "6", "--p", "3", "--lambda", "1e5000"),
         "argument --lambda: malformed rational literal '1e5000'"),
        # non-ASCII digits, which int() alone reads, in a list and in a flag
        (("eigenrank", "1,1,1,\u0661", "--p", "2"),
         "weights must be a comma-separated integer list, got '1,1,1,\u0661'"),
        (("rays", "--n", "\u0666"), "argument --n: invalid int value: '\u0666'"),
        # --json prints no expansion, so it takes no --expand
        (("class", "hodge", "--n", "6", "--p", "3", "--json", "--expand"),
         "argument --expand: not allowed with argument --json"),
        # a term's digits past that limit gave int()'s own message
        pytest.param(("fnef", "D" + "9" * 5000, "--n", "6"),
                     "malformed divisor term 'D" + "9" * 5000 + "'", id="D-index-of-5000-digits"),
    ],
)
def test_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bad_subcommand_and_choice(capsys):
    code, _, err = run(capsys, "class", "boundary-irr", "--n", "6", "--p", "2")
    assert code == 2
    assert "invalid choice" in err
    code, _, err = run(capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("frobnicate",),
    ("class", "nope", "--n", "6", "--p", "2"),
    ("fnef", "psi"),
    ("rays", "--n", "6", "--frob"),
    ("class", "combo", "--n", "6", "--p", "3", "--lambda", "1/0"),
    ("fnef", "-D2", "--n", "4"),
])
def test_argparse_errors_are_one_line(capsys, argv):
    # unknown subcommand, invalid class kind, missing --n, unknown flag, bad
    # rational, and a literal starting with a minus that is not after --
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["pair", "fnef", "extremal"])
def test_a_missing_divisor_names_the_double_dash(capsys, command):
    # a literal starting with a minus is read as an option, so the divisor
    # is missing; the message says where such a literal goes
    code, out, err = run(capsys, command, "-D2", "--n", "4")
    assert (code, out) == (2, "")
    assert err == ("error: the following arguments are required: divisor (a literal starting "
                   f"with - goes after --: fcone {command} --n 4 -- -D2)\n")
    # the hint rides only on a missing divisor
    code, _, err = run(capsys, "rays", "--n", "4", "divisor")
    assert (code, err) == (2, "error: unrecognized arguments: divisor\n")
    code, _, err = run(capsys, command, "D2")
    assert (code, err) == (2, "error: the following arguments are required: --n\n")


# literals no subcommand accepts, and a few it reads in unusual ways: digit
# strings past int()'s limit, an exponent, empty, a zero denominator, bare
# signs, a D index past every n, non-ASCII letters and digits, a NUL.
# Hypothesis draws the first entries most often.
HOSTILE = ("D" + "9" * 5000, "9" * 5000, "1e5000", "", " ", "1/0", "+", "-", "+ -",
           "psi psi", "*D2", "D0", "D1", "D" + "9" * 40, "1.5", "é", "ψ", "٣", "D٣",
           "\x00", ",", "1,,1")


def ints(low: int, high: int) -> st.SearchStrategy[str]:
    return st.integers(low, high).map(str)


def int_lists(low: int, high: int, size: int) -> st.SearchStrategy[str]:
    return st.lists(st.integers(low, high), max_size=size).map(lambda xs: ",".join(map(str, xs)))


RATIONALS = st.sampled_from(["0", "1", "-1", "9", "1/2", "-3/4"])
LITERALS = st.lists(
    st.tuples(st.sampled_from(["+", "-"]), RATIONALS,
              st.sampled_from(["psi", "D2", "D3", "D4", "D5", "D6"])),
    min_size=1, max_size=3,
).map(lambda terms: " ".join(f"{sign} {c}*{sym}" for sign, c, sym in terms))
# values of each flag, as the subcommand grammar reads them; --n stays at
# most 13 (16 for rays) so that every run is fast
FLAG_VALUES = {
    "--n": ints(-1, 13), "--p": ints(-1, 7), "--j": ints(-1, 7),
    "--weights": int_lists(0, 7, 9), "--lambda": RATIONALS, "--irr": RATIONALS,
    "--red": RATIONALS, "--part": st.sampled_from(["irr", "red"]),
    "--part-w": st.sampled_from(["lambda", "irr", "red"]),
    "--curve": int_lists(0, 8, 5), "--tk": ints(-1, 8),
}
SWITCHES = ("--expand", "--json", "--annotate")


@st.composite
def cli_argv(draw) -> list[str]:
    """An argv of the subcommand grammar: a subcommand with its positional
    and the flags it reads, each dropped at times, and at times a flag it
    does not read.  In half of the draws one token is replaced by a hostile
    literal, a value more often than not."""
    command = draw(st.sampled_from(["class", "pair", "fnef", "extremal", "rays", "table",
                                    "eigenrank"]))
    flags: list[str] = []
    if command == "class":
        kind = draw(st.sampled_from(sorted(CLASS_KINDS)))
        argv, flags = [command, kind], [f"--{flag}" for flag in CLASS_KINDS[kind][0]]
    elif command in ("pair", "fnef", "extremal"):
        argv, flags = [command, draw(LITERALS)], ["--n"]
        if command == "pair":
            flags.append(draw(st.sampled_from(["--curve", "--tk", "--n"])))
    elif command == "rays":
        argv = [command, "--n", draw(ints(-1, 16))]
    elif command == "table":
        argv = [command, draw(st.sampled_from(TABLE_NAMES))]
        if draw(st.booleans()):
            argv += ["--n", draw(st.sampled_from(["12", "15", "9", "0", "-3"]))]
    else:
        argv, flags = [command, draw(int_lists(0, 9, 5))], ["--p", "--j"]
    flags += draw(st.lists(st.sampled_from([*FLAG_VALUES, *SWITCHES]), max_size=1))
    for flag in flags:
        if draw(st.integers(0, 5)):
            argv += [flag] if flag in SWITCHES else [flag, draw(FLAG_VALUES[flag])]
    if draw(st.booleans()):
        values = [i for i, token in enumerate(argv) if i and not token.startswith("--")]
        i = draw(st.sampled_from(values or [0]) if draw(st.integers(0, 3)) else
                 st.integers(0, len(argv) - 1))
        argv[i] = draw(st.sampled_from(HOSTILE))
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_main_is_total(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and len(errors) <= 1
    # a usage error is its one line, and names no Python internals
    if code == 2:
        assert out.getvalue() == "" and err.getvalue() == errors[0] + "\n"
        assert "int_max_str_digits" not in errors[0]


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage: fcone" in out


def module_env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", *argv], capture_output=True, text=True, timeout=120,
        env=module_env(),
    )


def test_python_m_fcone_prints_rays():
    header, *rows = csv.reader((TABLES_DIR / "n6.csv").read_text().splitlines())
    expected = "".join(" ".join(row[:len(header) - 1]) + "\n" for row in rows)
    proc = run_module("fcone", "rays", "--n", "6")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def test_python_m_fcone_cli_reports_not_extremal():
    proc = run_module("fcone.cli", "extremal", "2*D2 + 6*D3 + 9*D4 + 14*D5", "--n", "10")
    assert proc.returncode == 1
    assert proc.stdout.startswith("not extremal\nrank 2 of 3\n")
    assert proc.stderr == ""


def test_package_main_is_the_cli_main():
    import fcone

    assert fcone.main is main
    with pytest.raises(AttributeError, match="^module 'fcone' has no attribute 'nope'$"):
        fcone.nope


def test_python_m_fcone_usage_error():
    proc = run_module("fcone", "class", "hodge", "--n", "5", "--p", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: degree 2 must divide the number of markings 5\n"


def test_closed_pipe_exits_without_a_traceback():
    # about 100 KB of output, more than a pipe holds, so the write after the
    # reader closes the pipe fails
    literal = format_divisor(hodge_class(96, 3))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fcone", "fnef", literal, "--n", "96"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=module_env(),
    )
    assert proc.stdout.readline() == "F-nef\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(timeout=120), stderr) == (1, "")


def readme_shell_examples() -> list[tuple[str, str]]:
    """Each ``$ fcone ...`` line of the README's sh blocks with the output
    lines under it."""
    text = (ROOT / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = example.partition("\n")
            examples.append((command, output))
    return examples


def output_pattern(output: str) -> str:
    """A regex for the shown output: a ``...`` line stands for any run of
    lines, and a ``; ...`` suffix for the rest of its line."""
    pattern = []
    for line in output.splitlines():
        if line == "...":
            pattern.append(r"(?:.*\n)*")
        elif line.endswith("; ..."):
            pattern.append(re.escape(line[:-len("; ...")]) + r";.*\n")
        else:
            pattern.append(re.escape(line) + r"\n")
    return "".join(pattern)


README_EXAMPLES = readme_shell_examples()


@pytest.mark.parametrize("command, output", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_shell_examples(capsys, command, output):
    program, *argv = shlex.split(command, comments=True)
    assert program == "fcone"
    _, out, err = run(capsys, *argv)
    assert re.fullmatch(output_pattern(output), out), out
    assert err == ""
