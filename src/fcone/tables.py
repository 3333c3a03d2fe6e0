"""Canonical tables: extremal rays of the symmetric F-cone together with
their identifications against cyclic-cover classes, F-curve coordinate
tables, and the certificate blocks for the triple-cover extremal class.

Every renderer returns CSV text with a fixed header and a fixed row
order, so the output is byte-stable and suitable for golden-file tests.
"""

from __future__ import annotations

import csv
import io
from functools import lru_cache
from typing import Optional, Sequence

from .cones import ConeH, ConeV, extreme_rays
from .covers import WeightData, _symmetric_classes, _symmetric_rays, pullback_combo
from .moduli import (
    SymDivisor,
    SymFCurve,
    enumerate_sym_fcurves,
    fcurve_certificate,
    fcurve_class_vector,
    zero_and_negative_fcurves,
)

COMBO_COEFFS = ((9, -1, 0), (12, -1, 0), (10, -1, -2))

TABLE_NAMES = ("n6", "n7", "n9", "n10", "n10-fcurves", "t3-certificates")


@lru_cache(maxsize=4)
def fcurve_cone(n: int) -> ConeH:
    """The symmetric F-cone on Δ_2..Δ_{⌊n/2⌋} coordinates, one inequality
    per F-curve type, kept for the last four n: a ``ConeH`` is
    immutable, and it keeps its pointedness and sign table once computed."""
    dim = n // 2 - 1
    return ConeH(dim, [fcurve_class_vector(f) for f in enumerate_sym_fcurves(n)])


def fcone_rays(n: int) -> ConeV:
    return extreme_rays(fcurve_cone(n))


def _weight_label(weights: Sequence[int]) -> str:
    runs = []
    for w in weights:
        if runs and runs[-1][0] == w:
            runs[-1][1] += 1
        else:
            runs.append([w, 1])
    return " ".join(f"{w}^{c}" if c > 1 else f"{w}" for w, c in runs)


def _candidate_rows(n: int
                    ) -> tuple[list[tuple[WeightData, list[dict]]], list[tuple[str, int, int]]]:
    """The candidates of annotation_candidates as (walks, labels): each
    cover's weight datum with its rows, and (label, walk index, row index) in
    candidate order.  The p5 rows join the p = 5 walk."""
    walks: list[tuple[WeightData, list[dict]]] = []
    labels: list[tuple[str, int, int]] = []
    p5: list[tuple[str, int, int]] = []

    def cover(w: WeightData, key: str, eigen_key: str, names: tuple[str, str, str], extra=()):
        # one walk for every class of w; the extra rows go to p5
        hodge, combo, eigen = names
        rows = {f"{hodge}({key})": {"lambda": 1}}
        for cl, ci, cr in COMBO_COEFFS:
            rows[f"{combo}({key},{cl},{ci},{cr})"] = {"lambda": cl, "irr": ci, "red": cr}
        for j in range(1, w.p):
            rows[f"{eigen}({eigen_key},{j})"] = {j: 1}
        rows.update(extra)
        for r, label in enumerate(rows):
            (p5 if label in extra else labels).append((label, len(walks), r))
        walks.append((w, list(rows.values())))

    for p in range(2, n + 1):
        if n % p == 0:
            p5_rows = {f"p5({n},{j})": {j: 50, "irr": -1} for j in (1, 2)} if p == 5 else ()
            cover(WeightData((1,) * n, p), f"{n},{p}", f"1^{n},{p}", ("hodge", "combo", "eigen"),
                  p5_rows)
    labels += p5
    for v in (0, 2):
        weights = (1,) * (n - 1) + (v,)
        label = _weight_label(weights)
        for p in range(2, n + 1):
            if sum(weights) % p == 0:
                key = f"{label},{p}"
                cover(WeightData(weights, p), key, key, ("weighted", "wcombo", "eigenw"))
    return walks, labels


def annotation_candidates(n: int) -> list[tuple[str, SymDivisor]]:
    """Deterministic list of labeled cover classes used to identify rays.

    Covers the unit-weight pullbacks for every degree dividing n, the
    standard degree combinations, the symmetrized eigenbundle determinants,
    then the p5_class combinations, and the weighted covers that perturb a
    single marking weight.  Each cover's classes come from one
    _symmetric_classes call.
    """
    walks, labels = _candidate_rows(n)
    classes = [_symmetric_classes(w, rows) for w, rows in walks]
    return [(label, classes[i][r]) for label, i, r in labels]


def ray_annotations(n: int) -> list[tuple[tuple[int, ...], list[str]]]:
    """Extreme rays of the F-cone with the labels of every candidate class
    lying on each ray.

    A class lies on a ray when its primitive ray is that ray.  The rays of
    the candidates come from _symmetric_rays, with no SymDivisor; the labels
    are grouped by ray once, in candidate order, and each F-cone ray is one
    lookup.  A zero class files its label under the zero vector,
    which is no ray of the cone.
    """
    walks, labels = _candidate_rows(n)
    rays = [_symmetric_rays(w, rows) for w, rows in walks]
    labels_by_ray: dict[tuple[int, ...], list[str]] = {}
    for label, i, r in labels:
        labels_by_ray.setdefault(rays[i][r], []).append(label)
    return [(ray, labels_by_ray.get(ray, [])) for ray in fcone_rays(n).rays]


def _csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_rays_csv(n: int) -> str:
    header = [f"D{k}" for k in range(2, n // 2 + 1)] + ["annotations"]
    rows = []
    for ray, labels in ray_annotations(n):
        rows.append([str(x) for x in ray] + ["; ".join(labels)])
    return _csv(header, rows)


def render_fcurves_csv(n: int) -> str:
    header = ["curve"] + [f"D{k}" for k in range(2, n // 2 + 1)]
    rows = []
    for f in enumerate_sym_fcurves(n):
        vec = fcurve_class_vector(f)
        rows.append([str(f)] + [str(x) for x in vec])
    return _csv(header, rows)


def triple_cover_divisor(n: int) -> SymDivisor:
    """The extremal class cut out by degree-3 covers: 2ψ - 2Δ - Σ_{3|k}Δ_k."""
    return pullback_combo(n, 3, 9, -1, 0)


def _t3_curve_blocks(n: int) -> list[tuple[str, list[SymFCurve]]]:
    t, r = divmod(n, 12)

    def F(*parts: int) -> SymFCurve:
        return SymFCurve(parts)

    if n == 12:
        return [("base", [F(5, 5, 1, 1), F(4, 4, 2, 2), F(1, 2, 2, 7), F(1, 1, 2, 8)])]

    blocks: list[tuple[str, list[SymFCurve]]] = []
    if t >= 2:
        # leading block: the generic pattern collides at i = 0, where the
        # first two rows would be the same curve class, so one row is
        # traded for a longer curve
        blocks.append(
            (
                "block-0",
                [
                    F(1, 1, 2, n - 4),
                    F(1, 2, 2, n - 5),
                    F(4, 1, 2, n - 7),
                    F(5, 1, 1, n - 7),
                    F(4, 2, 2, n - 8),
                    F(5, 1, 2, n - 8),
                ],
            )
        )
        for i in range(1, t - 1):
            blocks.append(
                (
                    f"block-{i}",
                    [
                        F(6 * i + 1, 1, 2, n - 4 - 6 * i),
                        F(6 * i + 2, 1, 1, n - 4 - 6 * i),
                        F(6 * i + 1, 2, 2, n - 5 - 6 * i),
                        F(6 * i + 4, 2, 2, n - 8 - 6 * i),
                        F(6 * i + 5, 1, 1, n - 7 - 6 * i),
                        F(6 * i + 5, 1, 2, n - 8 - 6 * i),
                    ],
                )
            )
    if r == 0:
        final = [
            F(6 * t - 5, 1, 2, 6 * t + 2),
            F(6 * t - 4, 1, 1, 6 * t + 2),
            F(6 * t - 5, 2, 2, 6 * t + 1),
            F(6 * t - 1, 1, 1, 6 * t - 1),
        ]
    elif r == 3:
        final = [
            F(6 * t - 5, 1, 2, 6 * t + 5),
            F(6 * t - 4, 1, 1, 6 * t + 5),
            F(6 * t - 1, 1, 1, 6 * t + 2),
            F(6 * t - 4, 1, 2, 6 * t + 4),
            F(6 * t - 1, 1, 2, 6 * t + 1),
        ]
    elif r == 6:
        final = [
            F(6 * t - 5, 1, 2, 6 * t + 8),
            F(6 * t - 4, 1, 1, 6 * t + 8),
            F(6 * t - 5, 2, 2, 6 * t + 7),
            F(6 * t - 1, 1, 1, 6 * t + 5),
            F(6 * t - 2, 1, 2, 6 * t + 5),
            F(6 * t - 2, 2, 2, 6 * t + 4),
            F(6 * t + 1, 2, 2, 6 * t + 1),
        ]
    else:
        final = [
            F(6 * t - 5, 1, 2, 6 * t + 11),
            F(6 * t - 4, 1, 1, 6 * t + 11),
            F(6 * t - 5, 2, 2, 6 * t + 10),
            F(6 * t - 1, 1, 1, 6 * t + 8),
            F(6 * t - 2, 1, 2, 6 * t + 8),
            F(6 * t - 2, 2, 2, 6 * t + 7),
            F(6 * t + 1, 1, 2, 6 * t + 5),
            F(6 * t + 1, 2, 2, 6 * t + 4),
        ]
    blocks.append(("final", final))
    return blocks


def t3_certificate_blocks(n: int) -> list[tuple[str, SymFCurve]]:
    """Zero-degree F-curves certifying extremality of the triple-cover ray.

    Rows come in blocks whose pairing matrices against consecutive Δ windows
    are triangular in shape; repeated curve classes are dropped, and when a
    block family degenerates (small n re-uses a curve class) the span is
    completed greedily from the remaining zero-degree curves.
    """
    if n % 3 or n < 12:
        raise ValueError(f"certificate blocks need a multiple of 3 at least 12, got {n}")
    zero, _ = zero_and_negative_fcurves(triple_cover_divisor(n))
    zero_curves = {f.parts: f for f in zero}
    # each block curve with its label, from the first block that names it
    rows: dict[tuple[int, ...], tuple[str, SymFCurve]] = {}
    for label, curves in _t3_curve_blocks(n):
        for f in curves:
            if f.parts not in zero_curves:
                raise RuntimeError(f"certificate curve {f} has nonzero degree")
            rows.setdefault(f.parts, (label, zero_curves[f.parts]))
    certificate = fcurve_certificate([*(f for _, f in rows.values()),
                                      *(f for f in zero if f.parts not in rows)])
    target = n // 2 - 2
    if len(certificate) != target:
        raise RuntimeError(f"certificate for n={n} spans rank {len(certificate)}, need {target}")
    return [*rows.values(), *(("patch", f) for f in certificate if f.parts not in rows)]


def render_t3_certificates_csv(n: int) -> str:
    header = ["block", "curve"] + [f"D{k}" for k in range(2, n // 2 + 1)]
    rows = []
    for label, f in t3_certificate_blocks(n):
        rows.append([label, str(f)] + [str(x) for x in fcurve_class_vector(f)])
    return _csv(header, rows)


def table_csv(name: str, n: Optional[int] = None) -> str:
    """Render one of the named tables; n is only consulted where a table
    family is parameterized."""
    fixed = {
        "n6": lambda: render_rays_csv(6),
        "n7": lambda: render_rays_csv(7),
        "n9": lambda: render_rays_csv(9),
        "n10": lambda: render_rays_csv(10),
        "n10-fcurves": lambda: render_fcurves_csv(10),
    }
    if name in fixed:
        return fixed[name]()
    if name == "t3-certificates":
        return render_t3_certificates_csv(12 if n is None else n)
    raise ValueError(f"unknown table {name!r}")
