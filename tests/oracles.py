"""Reference implementations that the tests check fcone against.

They import nothing from ``fcone.exactlin``, so a fault in its elimination
cannot pass by agreeing with itself.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def reference_rank(m) -> int:
    """Rank by dense Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in m]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# Per-marking cover classes, one canonical side at a time: each side is a
# frozenset of markings without n, and its coefficient is the closed formula
# of fcone.covers read at that side's weight sum and ramification.  ``w`` is
# a WeightData, read through its ``d``, ``p`` and ``n``.


def canonical_sides(n: int) -> list[frozenset[int]]:
    return [frozenset(side) for size in range(2, n - 1)
            for side in combinations(range(1, n), size)]


def weighted_pullbacks_by_side(w) -> list[tuple[tuple, dict]]:
    """Oracle for weighted_pullbacks: (ψ, Δ by side) of λ, δ_irr and δ_red,
    zero coefficients dropped."""
    p, n = w.p, w.n
    total_ram = sum(p - gcd(di, p) for di in w.d)
    lam, irr, red = {}, {}, {}
    for side in canonical_sides(n):
        q = gcd(sum(w.d[i - 1] for i in side), p)
        ram = sum(p - gcd(w.d[i - 1], p) for i in side)
        if q < p:
            lam[side] = -Fraction(p * p - q * q, 12 * p)
        if q > 1:
            irr[side] = Fraction(q * q, p)
        elif ram >= p and total_ram - ram >= p:  # positive genus on both halves
            red[side] = Fraction(1, p)
    psi = tuple(Fraction(p * p - gcd(di, p) ** 2, 12 * p) for di in w.d)
    zero = (Fraction(0),) * n
    return [(psi, lam), (zero, irr), (zero, red)]


def eigen_det_class_by_side(w, j: int) -> tuple[tuple, dict]:
    """Oracle for eigen_det_class: (ψ, Δ by side), zero coefficients
    dropped."""
    p = w.p

    def weight(t: int) -> Fraction:
        r = j * t % p
        return Fraction(r * (p - r), 2 * p * p)

    delta = {}
    for side in canonical_sides(w.n):
        c = weight(sum(w.d[i - 1] for i in side))
        if c:
            delta[side] = -c
    return tuple(weight(di) for di in w.d), delta
