"""Exact rational linear algebra.

Scalars are ints or ``fractions.Fraction`` (arbitrary precision, always in
lowest terms with positive denominator), vectors are sequences of them and
matrices are sequences of equally long rows.  Nothing here is ever
approximate.

The package has one integer normal form, and only this module clears
denominators: ``_over_lcm`` writes values as integer numerators over the lcm
of their denominators, ``_lowest_terms`` divides out the common factor of
numerators and denominator, and ``primitive`` scales a vector to coprime
integers.  A ``QVector``, the rational coordinates of a class, carries its
cleared form: ``ray``, made once from the class's integer numerators, which
``primitive`` reads instead of clearing the entries again.

All elimination is one integer row scan.  Each row, its denominators
cleared, is reduced against a sparse echelon basis of the rows kept so far
(primitive rows with positive pivots, each zero at the pivots of the rows
before it) by one combination per basis pivot where the row is nonzero; a
nonzero remainder joins the basis.  Each caller fixes the pivot rule:
``independent_rows`` and ``rank`` take the entry smallest in absolute
value, which keeps later multipliers small (leftmost pivots made the scan
two to five times slower on extremality certificates); ``rref``,
``kernel_basis`` and the lineality of ``cones.ConeV`` take the leftmost
nonzero entry, which makes the back-reduced basis the canonical RREF and
leaves its free columns without a pivot.  ``_kernel`` solves a scan's basis
by back-substitution for ``kernel_basis`` and ``_certificate``, the greedy
certificate that ``cones`` and ``moduli`` read.

``_SignTable`` gives the signs of many sparse integer rows on one vector
from one big-int product per chunk of rows: the F-curves of ``moduli`` and
the normals of ``cones.ConeH`` are one table each.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence


class QVector(tuple):
    """A tuple of Fractions, equal, hashed and printed as that tuple, which
    also carries ``ray``: the entries scaled to a primitive integer vector
    by a positive factor, sign kept.  Immutable.  Slices and ``tuple(v)``
    are plain tuples; copies and pickles keep ``ray``."""

    def __new__(cls, entries: Iterable[Fraction], ray: tuple[int, ...]):
        self = super().__new__(cls, entries)
        object.__setattr__(self, "ray", ray)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    def __reduce__(self):
        return QVector, (tuple(self), self.ray)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    # entries are ints or Fractions already; the Fraction start keeps the type
    return sum(map(mul, u, v), Fraction(0))


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` in ASCII digits, q > 0; no decimal or
    exponent, from which ``Fraction`` would build 10^e for any e."""
    m = re.fullmatch(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*", text)
    try:  # int() refuses digit strings past its conversion limit
        return Fraction(int(m[1]), int(m[2] or 1))
    except (TypeError, ValueError, ZeroDivisionError):  # TypeError: no match
        raise ValueError(f"malformed rational literal {text!r}") from None

def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _over_lcm(values: Sequence) -> tuple[list[int], int]:
    """Ints or Fractions as integer numerators over the lcm of their
    denominators; ``[]`` gives ``([], 1)``."""
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _lowest_terms(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """num/den with the common factor of the denominator and every numerator
    divided out; a positive denominator stays positive."""
    g = gcd(den, *num)
    return tuple(a // g for a in num), den // g


def _integer_row(row: Sequence) -> Sequence[int]:
    """``row`` itself if it holds only ints, else a fresh positive multiple
    of it with its denominators cleared."""
    if [*map(type, row)].count(int) == len(row):  # at C speed
        return row
    # only other types become Fractions: copying a Fraction costs as much as clearing it
    return _over_lcm([e if type(e) is int or type(e) is Fraction else Fraction(e)
                      for e in row])[0]


def primitive(v: Sequence, flip_sign: bool = True) -> tuple[int, ...]:
    """Scale to a primitive integer vector (entry gcd 1).

    With ``flip_sign`` the first nonzero entry is made positive, the
    canonical form for kernel vectors and lineality generators.  Rays and
    inequality normals carry an orientation, so they pass ``flip_sign=False``
    and are only rescaled by a positive rational.  An all-int tuple that
    needs no change is returned as it is, and so is the ``ray`` of a
    ``QVector`` unless its sign is flipped.
    """
    ints = v.ray if type(v) is QVector else _integer_row(v)
    content = gcd(*ints)
    if content > 1:
        ints = [a // content for a in ints]
    if flip_sign and content:
        lead = next(a for a in ints if a != 0)
        if lead < 0:
            ints = [-a for a in ints]
    return tuple(ints)


def _field_width(v: Sequence[int], bound: int) -> int:
    """Field bytes that keep |row·v| < 2^(8·width−1) for rows of L1 norm at
    most ``bound``."""
    return (max(map(abs, v)).bit_length() + bound.bit_length() + 8) // 8


def _pack(rows: Iterable[Iterable[tuple[int, int]]], count: int, ncols: int, width: int
          ) -> tuple[tuple[int, ...], int, int]:
    """``count`` (column, coefficient) rows as one int per column, row k in
    field k from the top, each coefficient in its field's trailing bytes (a
    column repeated in a row adds up, while the sum of one sign stays under
    256); then top, each field's top bit, and low, its other bits."""
    size = count * width
    positive = [bytearray(size) for _ in range(ncols)]
    negative = [bytearray(size) for _ in range(ncols)]
    last = width - 1
    for k, row in enumerate(rows):
        end = k * width + last
        for i, c in row:
            if c > 0:
                field = positive[i]
            else:
                field, c = negative[i], -c
            if c < 256:  # three times faster than to_bytes on F-curves
                field[end] += c
            else:
                field[end - last:end + 1] = c.to_bytes(width, "big")
    columns = tuple(int.from_bytes(pos, "big") - int.from_bytes(neg, "big")
                    for pos, neg in zip(positive, negative))
    top = int.from_bytes(b"\x80".ljust(width, b"\0") * count, "big")
    low = int.from_bytes(b"\x7f".ljust(width, b"\xff") * count, "big")
    return columns, top, low


# rows per packed chunk: an F-curve table up to n = 82 is one chunk
_CHUNK = 4096


class _SignTable:
    """Sparse (column, coefficient) rows of L1 norm at most ``bound``, by
    ``terms`` of each item of ``rows`` if given, packed by ``_pack`` in
    chunks of ``_CHUNK`` rows.  The chunks of a field width are packed on
    its first use and kept if their bytes are at most ``limit`` (if any);
    else each call packs them anew and drops each chunk after its product."""

    def __init__(self, rows: Sequence, ncols: int, bound: int,
                 terms: Optional[Callable] = None, limit: Optional[int] = None):
        self.rows, self.ncols, self.bound, self.terms, self.limit = rows, ncols, bound, terms, limit
        self._packed: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}

    def nbytes(self, width: Optional[int] = None) -> int:
        """The bytes of a packing at ``width``, or of all those kept: a field
        per row and column, and per row top and low."""
        return len(self.rows) * (self.ncols + 2) * (width or sum(self._packed))

    def _chunks(self, width: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
        rows, terms = self.rows, self.terms
        for start in range(0, len(rows), _CHUNK):
            chunk = rows[start:start + _CHUNK]
            yield _pack(map(terms, chunk) if terms else chunk, len(chunk), self.ncols, width)

    def signs(self, v: Sequence[int]) -> tuple[bytes, bytes]:
        """One byte per row, nonzero where row·v is zero, then where it is negative:
        each field of ``top + Σ v[i]·column[i]`` holds row·v + 2^(8·width−1),
        negative iff its top bit is clear, zero iff it equals that bias."""
        width = _field_width(v, self.bound)
        chunks = self._packed.get(width)
        if chunks is None:
            chunks = self._chunks(width)
            if self.limit is None or self.nbytes(width) <= self.limit:
                chunks = self._packed[width] = list(chunks)
        zero, negative = [], []
        for columns, top, low in chunks:
            total = top
            for a, column in zip(v, columns):
                if a:
                    total += a * column
            z = total ^ top
            size = (top.bit_length() + 7) // 8
            # (z & low) + low carries into a field's top bit iff its low bits are nonzero
            zero.append((top & ~(((z & low) + low) | z)).to_bytes(size, "big")[::width])
            negative.append((top & ~total).to_bytes(size, "big")[::width])
        return b"".join(zero), b"".join(negative)


def _rows(m: Sequence[Sequence]) -> list[list]:
    """The rows of ``m`` as fresh lists, checked to have one length."""
    rows = [list(row) for row in m]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return rows


# A basis row of the scan: its pivot column and its nonzero entries by column.
_BasisRow = tuple[int, dict[int, int]]


def _reduce(row: list, basis: Sequence[_BasisRow]) -> list:
    """``row``, scaled by each basis pivot (positive) where it is nonzero at
    that pivot and combined with that basis row to zero it there.  Against
    an echelon basis the result is zero at every pivot.  ``row`` itself may
    be changed."""
    for c, b in basis:
        x = row[c]
        if x:
            p = b[c]
            if p != 1:
                row = [p * a for a in row]
            for k, e in b.items():
                row[k] -= x * e
    return row


def _basis_row(row: list[int], leftmost: bool) -> _BasisRow:
    """A nonzero remainder, primitive, pivoted by the caller's rule."""
    nonzero = [(abs(x), c) for c, x in enumerate(row) if x]
    pivot = nonzero[0][1] if leftmost else min(nonzero)[1]
    # not primitive(): the sign follows the pivot, not the first entry
    g = gcd(*row) if row[pivot] > 0 else -gcd(*row)
    return pivot, {c: x // g for c, x in enumerate(row) if x}


def _dense(terms: Iterable[tuple[int, int]], ncols: int) -> list[int]:
    """Terms as a fresh dense row; a repeated column adds up."""
    row = [0] * ncols
    for c, x in terms:
        row[c] += x
    return row


def _scan(
    rows: Iterable[list[int]], leftmost: bool, target: Optional[int] = None
) -> tuple[list[_BasisRow], list[int]]:
    """The echelon basis of ``rows`` and the indices of the rows it kept,
    stopping once ``target`` rows are kept.  Rows are fresh int lists, which
    the scan may change; none is pulled after the stop.  A zero remainder
    is dropped after one ``any``, before any pivot search."""
    basis: list[_BasisRow] = []
    kept: list[int] = []
    if target == 0:
        return basis, kept
    for i, row in enumerate(rows):
        row = _reduce(row, basis)
        if any(row):
            basis.append(_basis_row(row, leftmost))
            kept.append(i)
            if len(kept) == target:
                break
    return basis, kept


def _kernel(basis: Sequence[_BasisRow], ncols: int) -> list[list[int]]:
    """The right kernel of an echelon basis of ``_scan``: one primitive
    integer vector per column that is no pivot, in ascending order, positive
    at that column and zero at the others.

    Each basis row is zero at the pivots of the rows before it, so from the
    last row up each row fixes its own pivot entry from entries already
    set; the vector is rescaled where a pivot does not divide.
    """
    pivots = {c for c, _ in basis}
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = {f: 1}
        for c, b in reversed(basis):
            s = sum([e * x[k] for k, e in b.items() if k in x])
            if s:
                p = b[c]
                g = gcd(s, p)
                if p != g:
                    x = {k: a * (p // g) for k, a in x.items()}
                x[c] = -s // g
        g = gcd(*x.values())
        kernel.append([x.get(k, 0) // g for k in range(ncols)])
    return kernel


def _certificate(rows: Iterable[Sequence[tuple[int, int]]], ncols: int) -> list[int]:
    """Indices of the (column, coefficient) rows outside the span of the rows
    before them.  The rows must be orthogonal to one nonzero vector, so their
    rank is at most ncols − 1, where the result stops.

    The scan stops one row short and reduces the next row.  If that lies in
    the span of the kept rows, the last row is the first later one with a
    nonzero dot, over its terms, against either vector of their kernel.
    """
    if ncols < 2:
        return []
    rows = iter(rows)
    basis, kept = _scan((_dense(terms, ncols) for terms in rows), False, ncols - 2)
    start = kept[-1] + 1 if kept else 0
    terms = next(rows, None)  # the row after the stop; None if the scan ran out
    if terms is None:
        return kept
    if any(_reduce(_dense(terms, ncols), basis)):
        return [*kept, start]
    u, v = _kernel(basis, ncols)
    for j, terms in enumerate(rows, start + 1):
        if sum([u[k] * c for k, c in terms]) or sum([v[k] * c for k, c in terms]):
            return [*kept, j]
    return kept


def independent_rows(m: Sequence[Sequence], target: Optional[int] = None) -> list[int]:
    """Indices of the rows of ``m`` outside the span of the rows before them.

    This is the set a greedy left-to-right scan keeps, and its length is the
    rank of ``m``.  With ``target`` the scan stops once ``target`` rows are
    kept.  The caller must know that the rank of ``m`` is at most
    ``target``; the result is then the same as without it.
    """
    # clearing a row scales it by a positive factor, which changes no span
    return _scan(map(_integer_row, _rows(m)), False, target)[1]


def rank(m: Sequence[Sequence]) -> int:
    return len(independent_rows(m))


def _rref(m: Sequence[Sequence]) -> list[_BasisRow]:
    """The RREF rows of ``m`` in pivot order, primitive with positive pivots.

    Every scanned remainder lies in the row space and has its leftmost
    nonzero at its pivot, so the pivots are the leading columns of the row
    space.  Back-reduced from the last up against the rows already reduced,
    each basis row is zero at every other pivot: a multiple of its RREF row.
    """
    rows = _rows(m)
    reduced: list[_BasisRow] = []
    for _, b in reversed(_scan(map(_integer_row, rows), True)[0]):
        # its pivot stays its leftmost nonzero
        reduced.append(_basis_row(_reduce(_dense(b.items(), len(rows[0])), reduced), True))
    return sorted(reduced)


def rref(m: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the row space: the reduced row echelon rows, each
    scaled to a primitive integer vector with a positive pivot."""
    return tuple(tuple(_dense(b.items(), len(m[0]))) for _, b in _rref(m))


def kernel_basis(m: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Basis of the right kernel of ``m``.

    One vector per free column, in ascending free-column order, each scaled
    to a primitive integer vector whose first nonzero entry is positive.
    """
    if not m:
        raise ValueError("kernel of an empty matrix is undetermined, supply rows")
    rows = _rows(m)
    # leftmost pivots leave the free columns of the RREF without a pivot
    return [primitive(v) for v in _kernel(_scan(map(_integer_row, rows), True)[0], len(rows[0]))]
