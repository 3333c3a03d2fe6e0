"""Exact rational linear algebra.

Scalars are ints or ``fractions.Fraction`` (arbitrary precision, always in
lowest terms with positive denominator), vectors are sequences of them and
matrices are sequences of equally long rows.  Elimination is fraction-free
in the Bareiss style: rows are cleared to integers once, pivoting keeps every
intermediate entry an exact minor of the input, and rational division only
happens during back-substitution.  Nothing here is ever approximate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

QVector = tuple[Fraction, ...]


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    # entries are ints or Fractions already; the Fraction start keeps the type
    return sum(map(mul, u, v), Fraction(0))


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` with q > 0 after normalization."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational literal {text!r}") from exc
    return value

def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def primitive(v: Sequence, flip_sign: bool = True) -> tuple[int, ...]:
    """Scale to a primitive integer vector (entry gcd 1).

    With ``flip_sign`` the first nonzero entry is made positive, the
    canonical form for kernel vectors and lineality generators.  Rays and
    inequality normals carry an orientation, so they pass ``flip_sign=False``
    and are only rescaled by a positive rational.
    """
    # ints and Fractions are read through numerator and denominator as they are
    fracs = [e if type(e) is int or type(e) is Fraction else Fraction(e) for e in v]
    mult = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (mult // f.denominator) for f in fracs]
    content = gcd(*ints)
    if not content:
        return tuple(ints)
    ints = [a // content for a in ints]
    if flip_sign:
        lead = next(a for a in ints if a != 0)
        if lead < 0:
            ints = [-a for a in ints]
    return tuple(ints)


def _integer_rows(m: Sequence[Sequence]) -> list[list[int]]:
    """Fresh integer rows, each a positive multiple of its row of ``m``."""
    out = []
    for row in m:
        row = list(row)
        if out and len(row) != len(out[0]):
            raise ValueError("matrix rows must all have the same length")
        if all(type(e) is int for e in row):
            out.append(row)
            continue
        fracs = [Fraction(e) for e in row]
        mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
        out.append([int(f * mult) for f in fracs])
    return out


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.

    Returns the nonzero echelon rows and the pivot column indices.  Row
    scaling by the previous pivot keeps all entries integral (Sylvester's
    identity guarantees the divisions below are exact).
    """
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        for i in range(r + 1, nrows):
            for jc in range(c + 1, ncols):
                rows[i][jc] = (rows[r][c] * rows[i][jc] - rows[i][c] * rows[r][jc]) // prev
            rows[i][c] = 0
        prev = rows[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rank(m: Sequence[Sequence]) -> int:
    _, pivots = _echelon(_integer_rows(m))
    return len(pivots)


def independent_rows(m: Sequence[Sequence]) -> list[int]:
    """Indices of the rows of ``m`` outside the span of the rows before them.

    These are the pivot columns of the transpose, so the result is the set a
    greedy left-to-right scan keeps, and its length is the rank of ``m``.
    """
    # clearing a row's denominators scales it by a positive factor, which
    # leaves the set of independent rows alone
    _, pivots = _echelon([list(col) for col in zip(*_integer_rows(m))])
    return pivots


def rref(m: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the row space: the reduced row echelon rows, each
    scaled to a primitive integer vector with a positive pivot."""
    rows, pivots = _echelon(_integer_rows(m))
    for r in reversed(range(len(rows))):
        c = pivots[r]
        for i in range(r):
            x = rows[i][c]
            if x:
                rows[i] = [rows[r][c] * a - x * b for a, b in zip(rows[i], rows[r])]
    return tuple(primitive(row) for row in rows)


def kernel_basis(m: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Basis of the right kernel of ``m``.

    One vector per free column, in ascending free-column order, each scaled
    to a primitive integer vector whose first nonzero entry is positive.
    """
    rows = _integer_rows(m)
    if not rows:
        raise ValueError("kernel of an empty matrix is undetermined, supply rows")
    ncols = len(rows[0])
    ech, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for ri in reversed(range(len(pivots))):
            pc = pivots[ri]
            s = sum((Fraction(ech[ri][j]) * x[j] for j in range(pc + 1, ncols)), Fraction(0))
            x[pc] = -s / ech[ri][pc]
        basis.append(primitive(x))
    return basis
