"""The benchmark's four workloads: seeded inputs, the jobs that drive fcone
through its public entry points, and the checks on every job's output.

A job's ``run`` is the timed call into fcone.  ``check`` and ``render`` run
outside the timed region: ``check`` lists what is wrong with an output, and
``render`` turns it into the text that later passes, and the traced run,
must reproduce byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import gcd
from pathlib import Path
from typing import Callable, NamedTuple

from fcone import cli, cones, covers, eigenforms, moduli, tables

import reference as ref

HERE = Path(__file__).resolve().parent

RAYS_N = range(12, 18)
ANNOTATE_N = (10, 11, 12)
CERTIFY_N = (36, 42, 48)
CLASSES_PER_STRATUM = 15


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    render: Callable[[object], str] = repr


class CliResult(NamedTuple):
    rc: int
    stdout: str
    stderr: str


def build(name: str, seed: int, root: Path) -> list[Job]:
    """The fixed job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    jobs = {
        "rays": rays_jobs,
        "annotate": annotate_jobs,
        "classes": classes_jobs,
        "certify": certify_jobs,
    }[name](rng, root)
    rng.shuffle(jobs)
    return jobs


@cache
def recorded() -> dict:
    """Ray sets and annotations recorded from the library by record_refs.py."""
    return json.loads((HERE / "refs.json").read_text())


def _cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def cli_job(argv: list[str], check: Callable[[CliResult], list[str]]) -> Job:
    return Job("fcone " + " ".join(argv), partial(_cli, argv), check)


def _exit_problems(res: CliResult, rc: int) -> list[str]:
    problems = []
    if res.rc != rc:
        problems.append(f"exit code {res.rc}, expected {rc}")
    if res.stderr:
        problems.append(f"stderr: {res.stderr.strip()[:200]}")
    return problems


def _ray_problems(n: int, rays, expected) -> list[str]:
    normals = [ref.fcurve_vector(f) for f in ref.fcurve_types(n)]
    problems = []
    if sorted(map(tuple, rays)) != sorted(map(tuple, expected)):
        problems.append(f"n={n}: {len(rays)} rays differ from the {len(expected)} recorded")
    bad = [r for r in rays if not ref.is_extreme(r, normals, n // 2 - 1)]
    if bad:
        problems.append(f"n={n}: {len(bad)} rays are not extreme, first {bad[0]}")
    return problems


# --- rays: double description on the shuffled symmetric F-cone -------------


def rays_jobs(rng: random.Random, root: Path) -> list[Job]:
    jobs = []
    for n in RAYS_N:
        normals = [ref.fcurve_vector(f) for f in ref.fcurve_types(n)]
        rng.shuffle(normals)
        run = partial(_extreme_rays, n // 2 - 1, tuple(normals))
        jobs.append(Job(f"extreme_rays n={n}", run, partial(check_rays, n)))
    return jobs


def _extreme_rays(dim: int, normals: tuple) -> cones.ConeV:
    return cones.extreme_rays(cones.ConeH(dim, normals))


def check_rays(n: int, cone: cones.ConeV) -> list[str]:
    problems = _ray_problems(n, cone.rays, recorded()["rays"][str(n)])
    if cone.lineality:
        problems.append(f"n={n}: unexpected lineality {cone.lineality}")
    return problems


# --- annotate: `fcone rays --n N --annotate` ---------------------------------


def annotate_jobs(rng: random.Random, root: Path) -> list[Job]:
    return [
        cli_job(["rays", "--n", str(n), "--annotate"], partial(check_annotate, n, root))
        for n in ANNOTATE_N
    ]


def _golden_annotations(n: int, root: Path) -> list:
    with open(root / "tables" / f"n{n}.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[[int(x) for x in row[:-1]], row[-1].split("; ") if row[-1] else []] for row in rows]


def check_annotate(n: int, root: Path, res: CliResult) -> list[str]:
    problems = _exit_problems(res, 0)
    got = []
    for line in res.stdout.splitlines():
        coords, _, labels = line.partition("  ")
        got.append([[int(x) for x in coords.split()], labels.split("; ") if labels else []])
    if n <= 10:
        expected = _golden_annotations(n, root)
    else:
        expected = recorded()["annotations"][str(n)]
    if sorted(got) != sorted(expected):
        problems.append(f"n={n}: annotated rays differ from the reference")
    return problems + _ray_problems(n, [r for r, _ in got], [r for r, _ in expected])


# --- classes: weighted cover classes, verdicts and degree tables ------------


def strata() -> list[tuple[int, int]]:
    # weights lie in 1..p−1, so p = 2 forces all ones and needs n even
    return [(n, p) for n in (10, 11) for p in range(2, 8) if p > 2 or n % 2 == 0]


def connected_weights(rng: random.Random, n: int, p: int) -> tuple[int, ...]:
    """Weights in 1..p−1 summing to 0 mod p with gcd(p, d...) = 1.

    A common factor of p and every weight describes a disconnected cover,
    whose classes come out as a silent zero, so such data is drawn again.
    """
    while True:
        d = [rng.randint(1, p - 1) for _ in range(n - 1)]
        last = -sum(d) % p
        if last and gcd(p, last, *d) == 1:
            return tuple(d + [last])


class ClassesResult(NamedTuple):
    eigen: list
    pullbacks: tuple
    cone: cones.ConeH
    verdicts: list
    paired: list
    formula: list


def classes_jobs(rng: random.Random, root: Path) -> list[Job]:
    jobs = []
    for n, p in strata():
        for _ in range(CLASSES_PER_STRATUM):
            d = connected_weights(rng, n, p)
            jobs.append(Job(
                f"classes d={','.join(map(str, d))} p={p}",
                partial(_classes, d, p),
                partial(check_classes, d, p),
                render_classes,
            ))
    return jobs


def _classes(d: tuple[int, ...], p: int) -> ClassesResult:
    n = len(d)
    w = covers.WeightData(d, p)
    eigen = [covers.eigen_det_class(w, j) for j in range(1, p)]
    pullbacks = covers.weighted_pullbacks(w)
    cone = tables.fcurve_cone(n)
    verdicts = []
    for full in (*eigen, *pullbacks):
        v = moduli.symmetrize(full).class_vector()
        nef = cones.contains(cone, v)
        verdicts.append((v, nef, cones.extremality_certificate(cone, v) if nef else None))
    curves = [moduli.standard_full_fcurve(f) for f in moduli.enumerate_sym_fcurves(n)]
    paired = [[moduli.full_pairing(e, c) for c in curves] for e in eigen]
    tails = [[sum(d[i - 1] for i in block) for block in c.blocks] for c in curves]
    formula = [
        [eigenforms.eigen_rank_degree_fcurve(*t, p, j)[1] for t in tails] for j in range(1, p)
    ]
    return ClassesResult(eigen, pullbacks, cone, verdicts, paired, formula)


def render_classes(res: ClassesResult) -> str:
    # the full classes enter as hashes: equal classes hash alike in one process
    full = [hash(x) for x in (*res.eigen, *res.pullbacks)]
    return repr((full, res.verdicts, res.paired, res.formula))


def check_classes(d: tuple[int, ...], p: int, res: ClassesResult) -> list[str]:
    n, dim = len(d), len(d) // 2 - 1
    problems = []
    total = res.eigen[0]
    for e in res.eigen[1:]:
        total = total + e
    if total != res.pullbacks[0]:
        problems.append("sum of eigenbundle determinants differs from lambda")
    if res.paired != res.formula:
        problems.append("full_pairing degree table differs from eigen_rank_degree_fcurve")
    normals = [ref.fcurve_vector(f) for f in ref.fcurve_types(n)]
    for i, (v, nef, cert) in enumerate(res.verdicts):
        if nef != all(ref.pairing(v, f) >= 0 for f in ref.fcurve_types(n)):
            problems.append(f"class {i}: wrong F-nef verdict {nef}")
        elif nef and (cert is not None) != ref.is_extreme(v, normals, dim):
            problems.append(f"class {i}: extremality verdict disagrees with the reference")
        elif cert is not None:
            rows = [res.cone.normals[k] for k in cert.indices]
            if any(sum(Fraction(a) * x for a, x in zip(r, v)) for r in rows) or \
                    len(rows) != dim - 1 or ref.rank(rows) != dim - 1:
                problems.append(f"class {i}: certificate {cert} is not tight of rank {dim - 1}")
    return problems


# --- certify: triple-cover certificates and verdicts -------------------------


def literal(psi: Fraction, delta) -> str:
    """A divisor literal in the CLI grammar, e.g. ``2/9*psi - 2/9*D2``."""
    terms = [("psi", psi)] + [(f"D{k}", c) for k, c in enumerate(delta, start=2)]
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{sym}" for sym, c in terms if c)
    return text.removeprefix("+ ")


def certify_jobs(rng: random.Random, root: Path) -> list[Job]:
    jobs = []
    for n in CERTIFY_N:
        t_psi, t_delta = ref.triple_cover_terms(n)
        h_psi, h_delta = ref.hodge3_terms(n)
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        s_psi = a * t_psi + b * h_psi
        s_delta = [a * x + b * y for x, y in zip(t_delta, h_delta)]
        triple = ref.divisor_vector(n, t_psi, t_delta)
        mixed = ref.divisor_vector(n, s_psi, s_delta)
        args = ["--n", str(n)]
        jobs += [
            cli_job(["table", "t3-certificates", *args], partial(check_t3_table, n, triple)),
            cli_job(["extremal", literal(t_psi, t_delta), *args],
                    partial(check_extremal, n, triple, True)),
            cli_job(["fnef", literal(t_psi, t_delta), *args], partial(check_fnef, n, triple)),
            cli_job(["extremal", literal(s_psi, s_delta), *args],
                    partial(check_extremal, n, mixed, False)),
        ]
    return jobs


def _certificate_problems(n: int, vector, curves: list) -> list[str]:
    problems = [f"{f} pairs nonzero" for f in curves if ref.pairing(vector, f) != 0]
    if ref.rank([ref.fcurve_vector(f) for f in curves]) != n // 2 - 2:
        problems.append(f"certificate curves do not span rank {n // 2 - 2}")
    return problems


def check_t3_table(n: int, triple, res: CliResult) -> list[str]:
    problems = _exit_problems(res, 0)
    rows = list(csv.reader(io.StringIO(res.stdout)))
    if not rows or rows[0] != ["block", "curve"] + [f"D{k}" for k in range(2, n // 2 + 1)]:
        return problems + ["malformed t3-certificates header"]
    curves = []
    for row in rows[1:]:
        f = ref.parse_fcurve(row[1])
        if sum(f) != n or tuple(int(x) for x in row[2:]) != ref.fcurve_vector(f):
            problems.append(f"row {row[:2]} has wrong coordinates")
        curves.append(f)
    return problems + _certificate_problems(n, triple, curves)


def _tagged(stdout: str, tag: str) -> list[str]:
    return [line.removeprefix(tag) for line in stdout.splitlines() if line.startswith(tag)]


def check_extremal(n: int, vector, extremal: bool, res: CliResult) -> list[str]:
    target = n // 2 - 2
    problems = _exit_problems(res, 0 if extremal else 1)
    lines = res.stdout.splitlines()
    if lines[:1] != ["extremal" if extremal else "not extremal"]:
        return problems + [f"verdict {lines[:1]}"]
    orthogonal = [ref.parse_fcurve(x) for x in _tagged(res.stdout, "orthogonal: ")]
    if set(orthogonal) != ref.zero_curves(vector, n):
        problems.append("orthogonal curves differ from the reference zero set")
    span = ref.rank([ref.fcurve_vector(f) for f in orthogonal])
    if lines[1:2] != [f"rank {span} of {target}"] or (span == target) != extremal:
        problems.append(f"rank line {lines[1:2]}, reference rank {span} of {target}")
    if extremal:
        cert = _tagged(res.stdout, "certificate: ")
        curves = [ref.parse_fcurve(x) for x in cert[0].split()] if cert else []
        problems += _certificate_problems(n, vector, curves)
    return problems


def check_fnef(n: int, vector, res: CliResult) -> list[str]:
    problems = _exit_problems(res, 0)
    if res.stdout.splitlines()[:1] != ["F-nef"] or _tagged(res.stdout, "negative: "):
        problems.append("not reported F-nef")
    zero = {ref.parse_fcurve(x) for x in _tagged(res.stdout, "zero: ")}
    if zero != ref.zero_curves(vector, n):
        problems.append("zero curves differ from the reference zero set")
    return problems
