"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test is self-contained, asserts exact rational equalities, and where a
runtime budget applies it is enforced with a wall-clock assertion.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

from fcone.cones import ConeH, extremality_certificate, extreme_rays
from fcone.covers import (
    WeightData,
    eigen_det_class,
    hodge_class,
    p5_class,
    pullback_boundary,
    pullback_combo,
    weighted_pullbacks,
)
from fcone.eigenforms import eigen_rank_degree_fcurve, h0_weight_3pt, h0_weight_4pt
from fcone.exactlin import rank
from fcone.moduli import (
    enumerate_sym_fcurves,
    fcurve_class_vector,
    full_pairing,
    parse_divisor,
    proportional,
    standard_full_fcurve,
    sym_divisor_from_vector,
    sym_pairing,
    symmetrize,
    tk_pairing,
)
from fcone.tables import fcone_rays, fcurve_cone, t3_certificate_blocks, triple_cover_divisor

from oracles import extreme_rays_by_enumeration, oracle_h0


def test_criterion_01_fcurve_coordinates():
    start = time.monotonic()
    expected = {
        (7, 1, 1, 1): (3, -1, 0, 0),
        (6, 2, 1, 1): (0, 2, -1, 0),
        (5, 3, 1, 1): (1, -1, 2, -1),
        (5, 2, 2, 1): (-2, 2, 1, -1),
        (4, 4, 1, 1): (1, 0, -2, 2),
        (4, 3, 2, 1): (-1, 0, 0, 1),
        (4, 2, 2, 2): (-3, 0, 2, 0),
        (3, 3, 3, 1): (0, -3, 3, 0),
        (3, 3, 2, 2): (-2, -2, 1, 2),
    }
    computed = {f.parts: tuple(fcurve_class_vector(f)) for f in enumerate_sym_fcurves(10)}
    assert computed == expected
    assert time.monotonic() - start < 1.0


def test_criterion_02_fcone_rays():
    start = time.monotonic()
    assert set(fcone_rays(6).rays) == {(2, 1), (1, 3)}
    assert set(fcone_rays(7).rays) == {(1, 1), (1, 3)}
    assert set(fcone_rays(9).rays) == {(1, 1, 2), (1, 3, 2), (1, 3, 6), (3, 3, 4)}
    assert set(fcone_rays(10).rays) == {
        (1, 3, 3, 4),
        (1, 3, 6, 10),
        (2, 3, 3, 5),
        (2, 6, 6, 5),
        (2, 6, 12, 11),
        (4, 3, 6, 4),
        (4, 6, 6, 7),
    }
    assert time.monotonic() - start < 5.0


def test_criterion_03_ray_identifications():
    start = time.monotonic()

    def ray(n, *coords):
        return sym_divisor_from_vector(n, coords)

    assert proportional(hodge_class(6, 2), ray(6, 2, 1))
    assert proportional(hodge_class(6, 3), ray(6, 1, 3))
    assert proportional(pullback_combo(6, 2, 12, -1, 0), ray(6, 1, 3))
    assert proportional(pullback_combo(6, 3, 9, -1, 0), ray(6, 2, 1))

    w9 = WeightData((1,) * 8 + (2,), 2)
    lam9, irr9, red9 = (symmetrize(d) for d in weighted_pullbacks(w9))
    assert proportional(pullback_combo(9, 3, 9, -1, 0), ray(9, 1, 1, 2))
    assert proportional(hodge_class(9, 3), ray(9, 1, 3, 2))
    assert proportional(lam9 * 10 + irr9 * -1 + red9 * -2, ray(9, 1, 3, 6))
    assert proportional(lam9, ray(9, 3, 3, 4))

    unit10 = WeightData((1,) * 10, 5)
    half10 = WeightData((1,) * 10, 10)
    table1 = {
        (1, 3, 3, 4): pullback_combo(10, 2, 12, -1, 0),
        (1, 3, 6, 10): symmetrize(eigen_det_class(unit10, 1)),
        (2, 3, 3, 5): symmetrize(eigen_det_class(unit10, 2)),
        (2, 6, 6, 5): symmetrize(eigen_det_class(half10, 3)),
        (2, 6, 12, 11): pullback_combo(10, 2, 10, -1, -2),
        (4, 3, 6, 4): hodge_class(10, 2),
        (4, 6, 6, 7): p5_class(10, 2),
    }
    assert set(table1) == set(fcone_rays(10).rays)
    for coords, div in table1.items():
        assert proportional(div, ray(10, *coords)), coords
    assert time.monotonic() - start < 30.0


def test_criterion_04_triple_cover_class():
    for n in (6, 9, 12, 15):
        div = triple_cover_divisor(n)
        terms = ["2*psi"] + [
            f"- {3 if k % 3 == 0 else 2}*D{k}" for k in range(2, n // 2 + 1)
        ]
        assert div == parse_divisor(" ".join(terms), n)
        for f in enumerate_sym_fcurves(n):
            deg = sym_pairing(div, f)
            if sorted(part % 3 for part in f.parts) == [1, 1, 2, 2]:
                assert deg == 0, f
            else:
                assert deg > 0, f
        cert = extremality_certificate(fcurve_cone(n), div.class_vector())
        assert cert is not None and cert.rank == n // 2 - 2

    golden = {
        (5, 5, 1, 1): (1, 0, 0, -2, 2),
        (4, 4, 2, 2): (-2, 0, -1, 0, 2),
        (7, 2, 2, 1): (-2, 2, 1, -1, 0),
        (8, 2, 1, 1): (0, 2, -1, 0, 0),
    }
    rows = t3_certificate_blocks(12)
    assert {f.parts: tuple(fcurve_class_vector(f)) for _, f in rows} == golden
    assert all(label == "base" for label, _ in rows)


def test_criterion_05_degree_five_classes():
    nine = Fraction(1, 9)
    assert p5_class(10, 1).class_vector() == tuple(5 * nine * c for c in (2, 6, 12, 11))
    assert p5_class(10, 2).class_vector() == tuple(15 * nine * c for c in (4, 6, 6, 7))
    for n in (10, 15):
        for j in (1, 2):
            div = p5_class(n, j)
            assert all(sym_pairing(div, f) >= 0 for f in enumerate_sym_fcurves(n))
    irr = pullback_boundary(10, 5)[0]
    w = WeightData((1,) * 10, 5)
    for j in (1, 2):
        combo = symmetrize(eigen_det_class(w, j)) * 50 - irr
        assert combo == p5_class(10, j)


def test_criterion_06_eigen_decomposition():
    cases = []
    for n in range(5, 11):
        for p in range(2, 7):
            if n % p == 0:
                cases.append(((1,) * n, p))
    for p in (2, 3, 6):
        cases.append(((1, 1, 1, 1, 1, 1, 0), p))
    for p in (2, 5):
        cases.append(((1,) * 8 + (2,), p))
    for weights, p in cases:
        w = WeightData(weights, p)
        lam = weighted_pullbacks(w)[0]
        parts = [eigen_det_class(w, j) for j in range(1, p)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        assert total == lam, (weights, p)
        for j in range(1, p):
            assert parts[j - 1] == parts[p - j - 1], (weights, p, j)


def total_genus(weights, p):
    d = gcd(p, *weights)
    if d > 1:
        return d * total_genus([w // d for w in weights], p // d)
    if p == 1:
        return 0
    chi = 2 * p - sum(p - gcd(w, p) for w in weights)
    return 1 - chi // 2


def test_criterion_07_form_count_oracle():
    start = time.monotonic()
    for p in range(2, 11):
        for a, b in product(range(p), range(p)):
            weights = (a, b, (-a - b) % p)
            forms = 0
            for j in range(p):
                count = h0_weight_3pt(a, b, p, j)
                assert count == oracle_h0((a, b), p, j), (a, b, p, j)
                forms += count
            assert forms == total_genus(weights, p), (weights, p)
        for a, b, c in product(range(p), range(p), range(p)):
            weights = (a, b, c, (-a - b - c) % p)
            forms = 0
            for j in range(p):
                count = h0_weight_4pt(a, b, c, p, j)
                assert count == oracle_h0((a, b, c), p, j), (a, b, c, p, j)
                forms += count
            assert forms == total_genus(weights, p), (weights, p)
    assert time.monotonic() - start < 60.0


def test_criterion_08_degree_formula_vs_class_pairing():
    checked = 0
    for n in range(5, 13):
        for p in range(2, 7):
            if n % p:
                continue
            w = WeightData((1,) * n, p)
            classes = {j: eigen_det_class(w, j) for j in range(1, p)}
            for f in enumerate_sym_fcurves(n):
                curve = standard_full_fcurve(f)
                a, b, c, d = f.parts
                assert eigen_rank_degree_fcurve(a, b, c, d, p, 0) == (0, Fraction(0))
                for j in range(1, p):
                    _, deg = eigen_rank_degree_fcurve(a, b, c, d, p, j)
                    assert full_pairing(classes[j], curve) == deg, (n, p, j, f)
                    checked += 1
    assert checked > 200


def test_criterion_09_vanishing():
    for n in range(5, 17):
        for p in range(2, n + 1):
            if n % p:
                continue
            lam = hodge_class(n, p)
            for f in enumerate_sym_fcurves(n):
                if any(part % p == 0 for part in f.parts):
                    assert sym_pairing(lam, f) == 0, (n, p, f)
            for k in range(3, n // 2 + 1):
                if k % p == 0:
                    assert tk_pairing(lam, k) == 0, (n, p, k)


def test_criterion_10_ray_enumeration_oracle():
    start = time.monotonic()
    rng = random.Random(20260819)
    for _ in range(200):
        while True:
            dim = rng.randint(2, 4)
            count = rng.randint(dim, 10)
            normals = tuple(
                tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(count)
            )
            cone = ConeH(dim, normals)
            if cone.normals and rank(cone.normals) == dim:
                break
        expected = extreme_rays_by_enumeration(cone)
        assert extreme_rays(cone) == expected
        shuffled = list(cone.normals)
        rng.shuffle(shuffled)
        assert extreme_rays(ConeH(dim, shuffled)) == expected
    assert time.monotonic() - start < 30.0
