"""Reference implementations that the tests check fcone against.

They import nothing from ``fcone.exactlin``, so a fault in its elimination
cannot pass by agreeing with itself.
"""

from fractions import Fraction


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
