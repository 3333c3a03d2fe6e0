"""Reference arithmetic the benchmark checks fcone's outputs against.

Nothing here imports fcone.  The F-curve coordinates, the triple-cover and
Hodge classes and the rank test are re-derived from their closed formulas,
so a wrong answer from the library cannot also be the expected answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def fcurve_types(n: int) -> list[tuple[int, int, int, int]]:
    """Every partition of n into four positive parts, parts descending."""
    return [
        (n - b - c - d, b, c, d)
        for b in range(1, n)
        for c in range(1, b + 1)
        for d in range(1, c + 1)
        if n - b - c - d >= b
    ]


def fcurve_vector(parts: Sequence[int]) -> tuple[int, ...]:
    """F-curve coordinates on Δ_2..Δ_{⌊n/2⌋}: +1 on the side size of each
    two-two pairing of the parts, −1 on the side size of each part ≥ 2."""
    n = sum(parts)
    coeffs = [0] * (n // 2 - 1)
    a, b, c, d = parts
    for x in (a + b, a + c, a + d):
        coeffs[min(x, n - x) - 2] += 1
    for v in parts:
        if v >= 2:
            coeffs[min(v, n - v) - 2] -= 1
    return tuple(coeffs)


def parse_fcurve(text: str) -> tuple[int, int, int, int]:
    """Parts of an F-curve printed as ``F_{a,b,c,d}``."""
    if not (text.startswith("F_{") and text.endswith("}")):
        raise ValueError(f"not an F-curve: {text!r}")
    parts = tuple(int(x) for x in text[3:-1].split(","))
    if len(parts) != 4:
        raise ValueError(f"not an F-curve: {text!r}")
    return parts


def psi_vector(n: int) -> tuple[Fraction, ...]:
    """ψ in the pure-Δ basis: (n−1)ψ = Σ k(n−k)Δ_k."""
    return tuple(Fraction(k * (n - k), n - 1) for k in range(2, n // 2 + 1))


def divisor_vector(n: int, psi: Fraction, delta: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Pure-Δ coordinates of psi·ψ + Σ delta[k−2]·Δ_k."""
    return tuple(psi * x + y for x, y in zip(psi_vector(n), delta))


def triple_cover_terms(n: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(ψ, Δ) coefficients of 2ψ − 2ΣΔ_k − Σ_{3|k}Δ_k."""
    return Fraction(2), tuple(Fraction(-3 if k % 3 == 0 else -2) for k in range(2, n // 2 + 1))


def hodge3_terms(n: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(ψ, Δ) coefficients of the degree-3 Hodge class, (p²−1)/12p ψ −
    Σ (p²−gcd(k,p)²)/12p Δ_k at p = 3."""
    p = 3
    psi = Fraction(p * p - 1, 12 * p)
    return psi, tuple(-Fraction(p * p - gcd(k, p) ** 2, 12 * p) for k in range(2, n // 2 + 1))


def pairing(vector: Sequence, parts: Sequence[int]) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(vector, fcurve_vector(parts))), Fraction(0))


def zero_curves(vector: Sequence, n: int) -> set[tuple[int, int, int, int]]:
    """F-curve types on which the pure-Δ class pairs to zero."""
    return {f for f in fcurve_types(n) if pairing(vector, f) == 0}


def rank(rows: Sequence[Sequence]) -> int:
    """Rank by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def is_extreme(ray: Sequence, normals: Sequence[Sequence[int]], dim: int) -> bool:
    """True when ray spans an extreme ray of the pointed cone {normal·x ≥ 0}:
    it satisfies every inequality and its tight normals have rank dim − 1."""
    values = [sum(Fraction(a) * x for a, x in zip(normal, ray)) for normal in normals]
    if not any(ray) or any(v < 0 for v in values):
        return False
    tight = [normal for normal, v in zip(normals, values) if v == 0]
    return len(tight) >= dim - 1 and rank(tight) == dim - 1
