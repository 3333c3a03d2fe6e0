"""Exact rational linear algebra.

Scalars are ints or ``fractions.Fraction`` (arbitrary precision, always in
lowest terms with positive denominator), vectors are sequences of them and
matrices are sequences of equally long rows.  Rows are cleared to integers
once.  ``rank``, ``rref`` and ``kernel_basis`` eliminate fraction-free in
the Bareiss style: pivoting keeps every intermediate entry an exact minor of
the input, and rational division only happens during back-substitution.
``independent_rows`` scans the rows one at a time against a sparse integer
echelon basis of the rows kept so far, so a sparse row costs one combination
per basis pivot where it is nonzero, and it can stop once it has kept as
many rows as the caller knows the rank to be at most.  Nothing here is ever
approximate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

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


def _rows(m: Sequence[Sequence]) -> list[list]:
    """The rows of ``m`` as fresh lists, checked to have one length."""
    rows = [list(row) for row in m]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return rows


def _integer_row(row: list) -> list[int]:
    """``row`` itself if it holds only ints, else a fresh positive multiple
    of it with its denominators cleared."""
    if all(type(e) is int for e in row):
        return row
    fracs = [Fraction(e) for e in row]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * mult) for f in fracs]


def _integer_rows(m: Sequence[Sequence]) -> list[list[int]]:
    """Fresh integer rows, each a positive multiple of its row of ``m``."""
    return [_integer_row(row) for row in _rows(m)]


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


def independent_rows(m: Sequence[Sequence], target: Optional[int] = None) -> list[int]:
    """Indices of the rows of ``m`` outside the span of the rows before them.

    This is the set a greedy left-to-right scan keeps, and its length is the
    rank of ``m``.  The rows kept so far are held as a sparse integer
    echelon basis: each basis row is primitive and is zero at the pivot of
    every basis row kept before it.  A new row meets the basis rows in the
    order they were kept and is combined with one wherever it is nonzero at
    that row's pivot, which leaves it zero there and at every earlier pivot.
    It is independent iff something is left, and it joins the basis with
    its smallest entry in absolute value as pivot, which keeps the
    multipliers of later combinations small.

    With ``target`` the scan stops once ``target`` rows are kept.  The
    caller must know that the rank of ``m`` is at most ``target``; the
    result is then the same as without it.
    """
    basis: list[tuple[int, dict[int, int]]] = []
    kept: list[int] = []
    for i, row in enumerate(_rows(m)):
        if len(kept) == target:
            break
        # clearing a row's denominators scales it by a positive factor,
        # which leaves the set of independent rows alone; rows after the
        # stop are never cleared
        row = _integer_row(row)
        for c, b in basis:
            x = row[c]
            if x:
                p = b[c]
                if p != 1:
                    row = [p * a for a in row]
                for k, e in b.items():
                    row[k] -= x * e
        nonzero = [(abs(x), c) for c, x in enumerate(row) if x]
        if not nonzero:
            continue
        pivot = min(nonzero)[1]
        g = gcd(*row)
        basis.append((pivot, {c: x // g for c, x in enumerate(row) if x}))
        kept.append(i)
    return kept


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
