"""Divisor and curve classes on the moduli of stable n-pointed rational curves.

Two coordinate systems coexist.  On the symmetric quotient, a divisor class
is written in the basis ψ, Δ_2, ..., Δ_{⌊n/2⌋}, where ψ is the total
cotangent class Σψ_i and Δ_k is the boundary class of nodal curves whose
node splits the markings into sides of sizes k and n−k.  Before the
quotient, a class has one ψ_i per marking and one coefficient per boundary
class Δ_{I,J}; the key for {I, J} is the side not containing the marking n.

The two bases are redundant on the symmetric side: (n−1)ψ = Σ_k k(n−k)Δ_k,
so equality of symmetric divisors is always decided after eliminating ψ.

Curve classes supported are the F-curves (one-dimensional boundary strata,
indexed by partitions of n into four nonzero parts, or by set partitions of
the markings into four blocks) and the sweeping test curves T_k inside Δ_k.
All intersection rules here are validated against independently known
coordinate lists in the test suite.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, itemgetter, mul
from typing import Iterable, Mapping, Optional, Sequence

from .exactlin import (QVector, _SignTable, _certificate, _dense, _fraction, _lowest_terms,
                       _over_lcm, parse_rational, primitive)


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 4:
        raise ValueError(f"need at least 4 markings, got n={n}")


def delta_range(n: int) -> range:
    """Indices of the symmetric boundary basis Δ_2..Δ_{⌊n/2⌋}."""
    return range(2, n // 2 + 1)


class _Numerators:
    """A class held as integer numerators over one positive denominator, in
    lowest terms: ``_psi`` and ``_delta`` tuples over ``_den``.

    Immutable.  Supports +, -, negation and scaling by a rational; each
    result is built by ``_like``, through the subclass's ``_cleared=`` path.
    """

    __slots__ = ("n", "_psi", "_delta", "_den")

    def _store(self, n: int, psi: Sequence[int], delta: Sequence[int], den: int) -> None:
        # its own gcd, not _lowest_terms: that would join ψ and the Δ slots
        # into one copy on every build
        g = gcd(den, *psi, *delta)
        if g > 1:
            psi = [a // g for a in psi]
            delta = [c // g for c in delta]
            den //= g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_psi", tuple(psi))
        object.__setattr__(self, "_delta", tuple(delta))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuilt, as __setattr__ refuses copied slots; ``_sym``, ``_vector`` start empty
        return partial(type(self), self.n, _cleared=(self._psi, self._delta, self._den)), ()

    def _binop(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot combine divisors with different n")
        du, dv = self._den, other._den
        den = lcm(du, dv)
        su, sv = den // du, sign * (den // dv)
        return self._like([su * a + sv * b for a, b in zip(self._psi, other._psi)],
                          [su * a + sv * b for a, b in zip(self._delta, other._delta)], den)

    def _like(self, psi: Sequence[int], delta: Sequence[int], den: int):
        return type(self)(self.n, _cleared=(psi, delta, den))

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __mul__(self, scalar):
        c = Fraction(scalar)
        a = c.numerator
        return self._like([a * x for x in self._psi], [a * v for v in self._delta],
                          c.denominator * self._den)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1


class SymDivisor(_Numerators):
    """Symmetric divisor class: a ψ-coefficient plus one coefficient per Δ_k.

    Immutable.  Supports +, -, and scaling by a rational.  Equality is
    equality of classes, i.e. of the pure-Δ expansions, not of the raw
    (ψ, Δ) coordinate tuples.  The raw coordinates are integer numerators
    over one denominator, in lowest terms: a 1-tuple for ψ and one slot per
    k in ``delta_range(n)``.  The pure-Δ expansion is held as well, as
    integer numerators over their own lowest denominator; pairings,
    equality and the ray of the class are read from those integers.
    """

    __slots__ = ("_expanded", "_vector")

    def __init__(self, n: int, psi=0, delta: Optional[Mapping[int, object]] = None, *,
                 _cleared: Optional[tuple[Sequence[int], Sequence[int], int]] = None):
        _check_n(n)
        # ``_cleared`` = ((ψ numerator,), Δ numerators by k ascending, positive
        # denominator) is passed only by the builders and the arithmetic
        if _cleared is None:
            ks = delta_range(n)
            coeffs = [psi if type(psi) is Fraction else Fraction(psi)] + [0] * len(ks)
            for k, c in (delta or {}).items():
                if k not in ks:
                    raise ValueError(f"Delta_{k} is not a basis class for n={n}")
                coeffs[k - 1] = c if type(c) is Fraction else Fraction(c)
            nums, den = _over_lcm(coeffs)
            _cleared = nums[:1], nums[1:], den
        self._store(n, *_cleared)
        # the pure-Δ expansion via (n−1)ψ = Σ k(n−k)Δ_k
        (a,), nums, den = self._psi, self._delta, self._den
        if a:
            nums, den = _lowest_terms(
                [c * (n - 1) + a * k * (n - k) for k, c in zip(delta_range(n), nums)],
                den * (n - 1))
        object.__setattr__(self, "_expanded", (nums, den))

    @property
    def psi(self) -> Fraction:
        return _fraction(self._psi[0], self._den)

    def delta(self, k: int) -> Fraction:
        if k not in delta_range(self.n):
            raise ValueError(f"Delta_{k} is not a basis class for n={self.n}")
        return _fraction(self._delta[k - 2], self._den)

    def delta_map(self) -> dict[int, Fraction]:
        den = self._den
        return {k: _fraction(c, den) for k, c in zip(delta_range(self.n), self._delta) if c}

    def class_vector(self) -> QVector:
        """Coordinates in the pure-Δ basis (ψ eliminated), carrying the ray
        of the class as their cleared form.  The tuple is made on the first
        call and kept on the class for as long as it lives, so every call
        returns the same object."""
        vector = getattr(self, "_vector", None)
        if vector is None:
            num, den = self._expanded
            vector = QVector([_fraction(a, den) for a in num], self.ray())
            object.__setattr__(self, "_vector", vector)
        return vector

    def ray(self) -> tuple[int, ...]:
        """The primitive integer vector on the ray of the class, sign kept;
        all zeros for the zero class.  Two classes are positive multiples of
        each other exactly when their rays are equal."""
        return primitive(self._expanded[0])

    def is_zero(self) -> bool:
        return not any(self._expanded[0])

    def __eq__(self, other):
        if not isinstance(other, SymDivisor):
            return NotImplemented
        # _expanded is in lowest terms with a positive denominator, so one
        # class has one _expanded
        return self.n == other.n and self._expanded == other._expanded

    def __hash__(self):
        return hash((self.n, self._expanded))

    def __repr__(self):
        return f"SymDivisor({self.n}, {format_divisor(self)!r})"


def sym_divisor_from_vector(n: int, vector: Sequence) -> SymDivisor:
    """Build a pure-Δ divisor from coordinates on Δ_2..Δ_{⌊n/2⌋}."""
    ks = list(delta_range(n))
    if len(vector) != len(ks):
        raise ValueError(f"expected {len(ks)} coordinates for n={n}, got {len(vector)}")
    return SymDivisor(n, 0, dict(zip(ks, vector)))


def psi_expand(d: SymDivisor) -> SymDivisor:
    """Rewrite the class with ψ-coefficient 0 via (n−1)ψ = Σ k(n−k)Δ_k."""
    if not d._psi[0]:
        return d
    return SymDivisor(d.n, _cleared=((0,), *d._expanded))


# also the format of the cli's curve listings
FCURVE_FORMAT = "F_{%d,%d,%d,%d}"


def _fcurve_terms(n: int, parts: Sequence[int]) -> list[tuple[int, int]]:
    """The terms of an F-curve class as (index, coefficient) pairs, index i
    standing for Δ_{i+2}: +1 on Δ_{min(x+y, n−x−y)} for each of the three
    ways to split the four parts into pairs, −1 on Δ_{min(v, n−v)} for each
    part v ≥ 2.  An index can come more than once; there are at most seven.
    The parts are descending: a + b, a + c ≥ n/2 > b, c, d."""
    a, b, c, d = parts
    terms = [(c + d - 2, 1), (b + d - 2, 1), (min(a + d, b + c) - 2, 1)]
    terms += [(v - 2, -1) for v in (min(a, n - a), b, c, d) if v > 1]
    return terms


@dataclass(frozen=True, slots=True)
class SymFCurve:
    """F-curve type: partition of n into four parts, stored descending.
    Its terms and its standard full curve are made on first read and kept."""

    parts: tuple[int, int, int, int]
    _terms: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _standard_full: FullFCurve = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = tuple(sorted(self.parts, reverse=True))
        if len(parts) != 4 or any(not isinstance(v, int) or v < 1 for v in parts):
            raise ValueError(f"F-curve needs 4 positive parts, got {self.parts}")
        # a descending tuple, as every table row is, is kept: the row is not copied
        if parts != self.parts:
            object.__setattr__(self, "parts", parts)

    def __getattr__(self, name):
        # reached when lookup fails: an empty slot is filled, any other name raises
        if name == "_terms":
            value = tuple(_fcurve_terms(self.n, self.parts))
        elif name == "_standard_full":
            bounds = [0, *itertools.accumulate(self.parts)]
            value = FullFCurve(tuple(frozenset(range(a + 1, b + 1))
                                     for a, b in zip(bounds, bounds[1:])))
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self):
        return FCURVE_FORMAT % self.parts


def enumerate_sym_fcurves(n: int) -> list[SymFCurve]:
    """All F-curve types on n markings, in descending lexicographic order.

    This ordering puts the curve with the largest spine part first; it is
    the order used for every table and report in the package.  The list is
    fresh on every call; its curves are kept with the table of n.
    """
    _check_n(n)
    table, made = _fcurves(n)
    return _made(table, made, b"\1" * len(made))


# Bytes of F-curve sign tables kept over all n.  A table is kept while it
# fits them with a packing at two bytes a field (numerators below 2^12), up
# to n = 116 on CPython 3.11, and so is each packing that fits beside its
# rows; larger tables and the packings past the budget are packed chunk by
# chunk on every call instead.
_FCURVE_BYTES = 8 << 20
_fcurve_tables: dict = {}
# A row weighs, beside its packed fields, its parts tuple, its slots in the
# row list and in the list of made curves, the curve made from it, which
# keeps the row's tuple as its parts, and that curve's terms, at most seven
# pairs; as if every curve were made and had read its terms.
_ROW_BYTES = (sys.getsizeof((1, 1, 1, 1)) + 2 * 8 + sys.getsizeof(SymFCurve((1, 1, 1, 1)))
              + sys.getsizeof(tuple(range(7))) + 7 * sys.getsizeof((0, 1)))


def _fcurves(n: int) -> tuple:
    """The F-curve types on n markings as a sign table of L1 bound 7 whose
    rows are their parts, in descending lexicographic order, packed from the
    parts; and the curves made so far, by row.  The tables kept go in order
    of use, the most recent last."""
    kept = _fcurve_tables.pop(n, None)
    if kept is None:
        # a ≥ b ≥ c ≥ d = n − a − b − c ≥ 1, each part from its largest value down
        parts = [(a, b, c, n - a - b - c) for a in range(n - 3, (n - 1) // 4, -1)
                 for b in range(min(a, n - a - 2), (n - a - 1) // 3, -1)
                 for c in range(min(b, n - a - b - 1), (n - a - b - 1) // 2, -1)]
        kept = (_SignTable(parts, n // 2 - 1, 7, partial(_fcurve_terms, n),
                           _FCURVE_BYTES - len(parts) * _ROW_BYTES),
                [None] * len(parts))
        if _fcurve_weight(kept[0]) <= _FCURVE_BYTES:
            _fcurve_tables[n] = kept
            _evict_fcurve_tables()
        return kept
    _fcurve_tables[n] = kept  # moved last: its weight changes only where it packs
    return kept


def _fcurve_weight(table: _SignTable) -> int:
    """A table's weight against ``_FCURVE_BYTES``: its packings, or one at
    two bytes a field if none, and ``_ROW_BYTES`` a row."""
    return (table.nbytes() or table.nbytes(2)) + len(table.rows) * _ROW_BYTES


def _evict_fcurve_tables() -> None:
    """Drop the oldest tables until the weights of those kept fit ``_FCURVE_BYTES``."""
    while sum(_fcurve_weight(t) for t, _ in _fcurve_tables.values()) > _FCURVE_BYTES:
        del _fcurve_tables[next(iter(_fcurve_tables))]


def _made(table: _SignTable, made: list, mask: bytes) -> list[SymFCurve]:
    """The curves of the rows that ``mask`` selects, each made on its first request."""
    curves = list(itertools.compress(made, mask))
    if not all(curves):
        for i in itertools.compress(range(len(made)), mask):
            made[i] = made[i] or SymFCurve(table.rows[i])
        curves = list(itertools.compress(made, mask))
    return curves


def fcurve_class_vector(f: SymFCurve) -> tuple[int, ...]:
    """Coordinates of the F-curve class in the dual pure-Δ basis, as ints."""
    return tuple(_dense(f._terms, f.n // 2 - 1))


def sym_pairing(d: SymDivisor, f: SymFCurve) -> Fraction:
    """Intersection number of a symmetric divisor with an F-curve class.

    Reads at most seven coordinates of the divisor's integer pure-Δ
    numerators, the nonzero ones of the curve, and divides once by their
    common denominator.
    """
    if d.n != f.n:
        raise ValueError(f"divisor lives on n={d.n}, curve on n={f.n}")
    num, den = d._expanded
    return _fraction(sum([num[i] * c for i, c in f._terms]), den)


def zero_and_negative_fcurves(
        d: SymDivisor) -> tuple[list[SymFCurve], list[tuple[SymFCurve, Fraction]]]:
    """The F-curves on which d has degree zero, and those on which it is
    negative together with the degree, both in ``enumerate_sym_fcurves``
    order.

    Every degree comes out of the big-int products of the F-curves' sign
    table, as in ``cones.contains``; with the row bound 7 a field is
    ``(max|num|.bit_length() + 11) // 8`` bytes.  Only a negative degree is
    made a ``Fraction``, by ``sym_pairing``.  Then, as after a new table,
    the oldest tables go until those kept fit ``_FCURVE_BYTES``.
    """
    table, made = _fcurves(d.n)
    zero, negative = table.signs(d._expanded[0])
    _evict_fcurve_tables()
    return (_made(table, made, zero),
            [(f, sym_pairing(d, f)) for f in _made(table, made, negative)])


def fcurve_certificate(curves: Sequence[SymFCurve]) -> list[SymFCurve]:
    """The curves whose classes lie outside the span of the curves before
    them, by ``exactlin._certificate`` over their terms; ``[]`` for none.

    The curves must all have degree zero on one nonzero class on n
    markings, so their rank is at most ⌊n/2⌋ − 2: a result of that length
    certifies the class as extremal in the symmetric F-cone when it is
    F-nef.  On the triple-cover class in enumeration order the curve after
    the scan's stop is the last row, and no kernel is built.
    """
    if not curves:
        return []
    return [curves[j] for j in _certificate((f._terms for f in curves), curves[0].n // 2 - 1)]


def tk_pairing(d: SymDivisor, k: int) -> Fraction:
    """Degree of a symmetric divisor on the test curve T_k sweeping Δ_k.

    T_k pairs as Δ_k·T_k = 2−k and Δ_{k−1}·T_k = k, all other boundary
    classes 0.
    """
    n = d.n
    if n < 6:
        raise ValueError(f"no test curve T_k exists below n = 6, got n={n}")
    if not 3 <= k <= n // 2:
        raise ValueError(f"T_k needs 3 <= k <= {n // 2}, got k={k}")
    num, den = d._expanded
    return _fraction(num[k - 2] * (2 - k) + num[k - 3] * k, den)


def proportional(d1: SymDivisor, d2: SymDivisor) -> Optional[Fraction]:
    """The positive constant c with d1 = c·d2 as classes, if one exists.

    Both zero gives 1; zero against nonzero, a negative ratio, or genuinely
    independent classes give None.  The classes are compared by their
    primitive rays, then c is one ratio of coordinates.
    """
    if d1.n != d2.n:
        raise ValueError("cannot compare divisors with different n")
    ray = d2.ray()
    if not any(ray):
        return Fraction(1) if d1.is_zero() else None
    if d1.ray() != ray:
        return None
    (num1, den1), (num2, den2) = d1._expanded, d2._expanded
    i = next(i for i, x in enumerate(ray) if x)
    return _fraction(num1[i] * den2, den1 * num2[i])


# ---------------------------------------------------------------------------
# Classes on the unquotiented space.


def canonical_side(markings: Iterable[int], n: int) -> frozenset[int]:
    """The representative side of a boundary partition: the one without n."""
    side = frozenset(markings)
    everything = frozenset(range(1, n + 1))
    if not side <= everything:
        raise ValueError(f"markings {sorted(side)} out of range for n={n}")
    if n in side:
        side = everything - side
    if not 2 <= len(side) <= n - 2:
        raise ValueError(f"boundary class needs sides of size >= 2, got {sorted(side)}")
    return side


def _side_mask(side: Iterable[int]) -> int:
    """The bitmask of a set of markings: bit i−1 stands for marking i."""
    return sum(1 << (i - 1) for i in side)


def _markings(mask: int) -> frozenset[int]:
    """The set of markings of a bitmask, the inverse of ``_side_mask``."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


# LRU bounds: layouts and radix tables (149 in a `classes` pass), side tables
_LAYOUTS, _SIDE_TABLES = 256, 2


@lru_cache(maxsize=_SIDE_TABLES)
def _sides(n: int) -> tuple[tuple[int, ...], dict[int, frozenset[int]]]:
    """The canonical sides for n markings: their bitmasks in the order of
    ``delta_map`` (sizes 2..n−2, each size in lexicographic order), and their
    sets of markings, made on first read, so that a sparse class makes few."""
    return tuple(_side_mask(side) for size in range(2, n - 1)
                 for side in itertools.combinations(range(1, n), size)), {}


def _walk(tables: Iterable[Sequence[int]], op=add, start: int = 0) -> list[int]:
    """The mixed-radix profile walk: per profile, c_b ≤ m_b markings from each
    block b (block 1 fastest), ``start`` folded by ``op`` with each t_b[c_b]."""
    out = [start]
    for t in tables:
        # sums inline: a call of op per entry made WeightData._profiles 10–30% slower
        out = [x + y for y in t for x in out] if op is add else [op(x, y) for y in t for x in out]
    return out


class _Layout:
    """A partition of the markings 1..n−1 into blocks, sorted by size, then
    least marking.  A side's profile is how many markings it takes from each
    block, in mixed radix: block b has stride Π_{b'<b} (m_{b'} + 1).  With
    singleton blocks a side's profile is its mask.  ``slots`` holds, per
    F-curve ``_terms``, the profiles that ``full_pairing`` reads."""

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        self.blocks = blocks
        self.n = sum(map(len, blocks)) + 1
        self.masks = [_side_mask(b) for b in blocks]
        self.strides, self.empty, self.means = _radix(tuple(map(len, blocks)))
        self.slots: dict[tuple, tuple[int, ...]] = {}

    def index(self, mask: int) -> int:
        """The profile of a canonical side mask."""
        return sum([(mask & m).bit_count() * s for m, s in zip(self.masks, self.strides)])

    def sums(self, delta: Sequence[int]) -> list[int]:
        """Per Δ_k, the scaled sum of the sides with min side k."""
        return [sum(map(mul, get(delta), mult)) * f for get, mult, f in self.means]

    def profiles(self, blocks: Sequence[Sequence[int]]) -> list[int]:
        """Per profile over ``blocks``, a refinement, the profile here."""
        steps = [self.index(1 << (block[0] - 1)) for block in blocks]
        return _walk(range(0, len(b) * s + 1, s) for b, s in zip(blocks, steps))

    def meet(self, other: "_Layout") -> "_Layout":
        """The common refinement of two layouts of one n."""
        if other is self:
            return self
        groups: dict[tuple[int, int], list[int]] = {}
        for i in range(1, self.n):
            groups.setdefault((self.index(1 << i - 1), other.index(1 << i - 1)), []).append(i)
        return _layout_of(groups.values())


_interned = lru_cache(maxsize=_LAYOUTS)(_Layout)


def _layout_of(blocks: Iterable[Sequence[int]]) -> _Layout:
    """The one layout of a partition; its blocks come in least-marking
    order, and are sorted by size to share ``_radix`` tables.  An evicted
    layout is built again, a new object equal in every table."""
    return _interned(tuple(sorted(map(tuple, blocks), key=len)))


@lru_cache(maxsize=_LAYOUTS)
def _radix(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
    """Strides, the profiles of no side (sizes 0, 1, n−1), and per Δ_k a
    getter of profile 0 (always zero) and those with min side k, their side
    counts, and the factor of their mean over l = _mean_scales(n)[0]."""
    n = sum(sizes) + 1
    *strides, total = itertools.accumulate((m + 1 for m in sizes), mul, initial=1)
    size = _walk(range(m + 1) for m in sizes)
    mult = _walk(([comb(m, c) for c in range(m + 1)] for m in sizes), mul, 1)
    groups = [[0] for _ in delta_range(n)]
    for i, s in enumerate(size):
        if 2 <= s <= n - 2:
            groups[min(s, n - s) - 2].append(i)
    # at k = n/2 a class has two sides of size k
    means = tuple((get, get(mult), scale * (2 if 2 * k == n else 1))
                  for k, scale, get in zip(delta_range(n), _mean_scales(n)[1],
                                           (itemgetter(*g) for g in groups)))
    return tuple(strides), (0, *strides, total - 1), means


class FullDivisor(_Numerators):
    """Divisor class before symmetrization: ψ_1..ψ_n plus Δ_{I,J} terms.

    Immutable.  Boundary keys are canonical sides (the half of the
    partition not containing the marking n).  The class is held as integer
    numerators over one common denominator, in lowest terms: a tuple for ψ
    and one for Δ with a slot per side profile of its ``_layout``.  The
    cover builders group the markings by weight; the public constructor
    uses singleton blocks.  Arithmetic and ``==`` across layouts work on
    their common refinement.
    """

    __slots__ = ("_layout", "_sym")

    def __init__(self, n: int, psi: Sequence = (), delta: Optional[Mapping] = None, *,
                 _cleared: Optional[tuple[Sequence[int], Sequence[int], int]] = None,
                 _layout: Optional[_Layout] = None):
        _check_n(n)
        # ``_cleared`` = (ψ numerators, Δ numerators by profile of ``_layout``,
        # positive denominator) is passed only by the builders and the arithmetic
        if _cleared is None:
            _cleared = _clear(n, psi, delta)
            _layout = _layout_of((i,) for i in range(1, n))
        self._store(n, *_cleared)
        object.__setattr__(self, "_layout", _layout)

    def _like(self, psi, delta, den):
        return FullDivisor(self.n, _cleared=(psi, delta, den), _layout=self._layout)

    def __reduce__(self):
        return partial(FullDivisor, self.n, _cleared=(self._psi, self._delta, self._den),
                       _layout=self._layout), ()

    def _on(self, layout: _Layout) -> "FullDivisor":
        """The class laid out over a refinement of its layout."""
        if layout is self._layout:
            return self
        delta = [self._delta[i] for i in self._layout.profiles(layout.blocks)]
        return FullDivisor(self.n, _cleared=(self._psi, delta, self._den), _layout=layout)

    def _binop(self, other, sign: int):
        if isinstance(other, FullDivisor) and other.n == self.n:
            meet = self._layout.meet(other._layout)
            self, other = self._on(meet), other._on(meet)
        return _Numerators._binop(self, other, sign)

    @property
    def psi(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(_fraction(a, den) for a in self._psi)

    def delta(self, side: Iterable[int]) -> Fraction:
        profile = self._layout.index(_side_mask(canonical_side(side, self.n)))
        return _fraction(self._delta[profile], self._den)

    def delta_map(self) -> dict[frozenset[int], Fraction]:
        # one Fraction per distinct numerator: a cover class has at most p+1
        n, den, delta = self.n, self._den, self._delta
        values = {c: _fraction(c, den) for c in set(delta)}
        slot = self._layout.profiles([(i,) for i in range(1, n)])
        masks, sets = _sides(n)
        return {sets.get(m) or sets.setdefault(m, _markings(m)): values[c]
                for m in masks if (c := delta[slot[m]])}

    def __eq__(self, other):
        if not isinstance(other, FullDivisor):
            return NotImplemented
        if self.n != other.n or self._den != other._den or self._psi != other._psi:
            return False
        meet = self._layout.meet(other._layout)
        return self._on(meet)._delta == other._on(meet)._delta

    def __hash__(self):
        return hash((self.n, self._den, self._psi, tuple(self._layout.sums(self._delta))))

    def is_zero(self) -> bool:
        return not any(self._delta) and not any(self._psi)

    def __repr__(self):
        terms = sum([m for get, mult, _ in self._layout.means
                     for c, m in zip(get(self._delta), mult) if c])
        return f"FullDivisor(n={self.n}, psi={self.psi}, {terms} boundary terms)"


def _clear(n: int, psi: Sequence, delta: Optional[Mapping]) -> tuple[list[int], list[int], int]:
    """Checked public FullDivisor arguments as (ψ numerators, Δ numerators
    by side mask, common denominator).  Sides naming one class add up; a
    zero coefficient is skipped before its side is read."""
    if psi:
        psi = [c if type(c) is Fraction else Fraction(c) for c in psi]
    else:
        psi = [Fraction(0)] * n
    if len(psi) != n:
        raise ValueError(f"need {n} psi-coefficients, got {len(psi)}")
    masks, coeffs = [], []
    for side, c in (delta or {}).items():
        if type(c) is not Fraction:
            c = Fraction(c)
        if c:
            masks.append(_side_mask(canonical_side(side, n)))
            coeffs.append(c)
    nums, den = _over_lcm(psi + coeffs)
    delta = [0] * (1 << (n - 1))
    for m, a in zip(masks, nums[n:]):
        delta[m] += a
    return nums[:n], delta, den


@dataclass(frozen=True)
class FullFCurve:
    """F-curve as a set partition of the markings into four blocks."""

    blocks: tuple[frozenset[int], ...]
    # what full_pairing reads: the ψ indices of the singleton blocks, the
    # canonical side masks of the larger blocks, and those of the three
    # unions of two blocks
    _terms: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = [frozenset(b) for b in self.blocks]
        if len(blocks) != 4 or not all(blocks):
            raise ValueError("F-curve needs 4 nonempty blocks")
        blocks = tuple(sorted(blocks, key=min))
        union = frozenset().union(*blocks)
        if len(union) != sum(len(b) for b in blocks):
            raise ValueError("F-curve blocks must be disjoint")
        if union != frozenset(range(1, len(union) + 1)):
            raise ValueError("F-curve blocks must partition {1..n}")
        object.__setattr__(self, "blocks", blocks)
        n = len(union)
        object.__setattr__(self, "n", n)
        # the canonical side of a mask: of it and its complement, the one
        # without marking n, so the smaller
        everything = (1 << n) - 1
        a, b, c, e = masks = [_side_mask(b) for b in blocks]
        object.__setattr__(self, "_terms", (
            tuple(min(block) - 1 for block in blocks if len(block) == 1),
            tuple(min(m, m ^ everything) for m, block in zip(masks, blocks) if len(block) > 1),
            tuple(min(m, m ^ everything) for m in (a | b, a | c, a | e)),
        ))


def standard_full_fcurve(f: SymFCurve) -> FullFCurve:
    """The realization of an F-curve type on consecutive marking blocks, kept on the curve."""
    return f._standard_full


def full_pairing(d: FullDivisor, f: FullFCurve) -> Fraction:
    """Intersection number of an unsymmetrized divisor with an F-curve.

    ψ_i meets the curve once exactly when {i} is one of the four blocks.
    A boundary class Δ_{I,J} meets it +1 when {I, J} merges the blocks two
    against two, −1 when one side is a single block, and 0 otherwise.
    So only seven boundary classes can meet it: one per block of two or
    more markings and one per pairing of the blocks.  Their profiles are
    cached on the curve per layout; their integer numerators are summed and
    divided once by the class's denominator.
    """
    if d.n != f.n:
        raise ValueError(f"divisor lives on n={d.n}, curve on n={f.n}")
    layout, terms = d._layout, f._terms
    slots = layout.slots.get(terms)
    if slots is None:
        slots = layout.slots[terms] = tuple(map(layout.index, (*terms[2], *terms[1])))
    psi, delta = d._psi, d._delta
    # plain loops: three list comprehensions, or map gathers, took twice as long
    total = delta[slots[0]] + delta[slots[1]] + delta[slots[2]]
    for i in f._terms[0]:
        total += psi[i]
    for m in slots[3:]:
        total -= delta[m]
    return _fraction(total, d._den)


def symmetrize(d: FullDivisor) -> SymDivisor:
    """Average of the class over all relabelings of the markings.

    In closed form the ψ-coefficient is (Σψ_i)/n and the Δ_k coefficient is
    the sum of the coefficients on boundary classes with min side k divided
    by the number of such classes, summed per side profile as integers.
    The average is made on the first call and kept on d for as long as d
    lives, so every call on d returns the same SymDivisor.
    """
    sym = getattr(d, "_sym", None)
    if sym is None:
        n = d.n
        scale = _mean_scales(n)[0]
        sym = SymDivisor(n, _cleared=((sum(d._psi) * (scale // n),), d._layout.sums(d._delta),
                                      scale * d._den))
        object.__setattr__(d, "_sym", sym)
    return sym


@cache
def _mean_scales(n: int) -> tuple[int, tuple[int, ...]]:
    """l = lcm(n, C(n, k) for every k) and l / C(n, k) per k: a mean over n
    markings or over the C(n, k) sets of size k is then a numerator over l."""
    ks = delta_range(n)
    scale = lcm(n, *(comb(n, k) for k in ks))
    return scale, tuple(scale // comb(n, k) for k in ks)


# ---------------------------------------------------------------------------
# Divisor literal grammar: rational-coefficient terms in psi and D<k>.

_TERM = re.compile(r"^(?:(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?\s*\*\s*)?(?:psi|D(?P<k>[0-9]+))$")


def parse_divisor(text: str, n: int) -> SymDivisor:
    """Parse literals like ``2*psi - 2*D2 - 3*D3`` or ``0``; the term
    numerators are summed per slot as integers over the lcm of the term
    denominators."""
    _check_n(n)
    if not text.strip():
        raise ValueError("empty divisor literal")
    # term, sign, term, ..., sign, term, each term signed by the piece before
    # it; an empty term is a leading, a dangling or a doubled sign
    pieces = re.split(r"([+-])", text)
    last = len(pieces) // 2
    terms: list[tuple[int, int, int]] = []  # (slot, signed numerator, denominator)
    for i, (sign, tok) in enumerate(zip(["+", *pieces[1::2]], pieces[::2])):
        tok = tok.strip()
        if not tok:
            if i == last:
                raise ValueError(f"dangling sign in divisor literal {text!r}")
            if i:
                raise ValueError(f"two consecutive signs in divisor literal {text!r}")
            continue
        m = _TERM.match(tok)
        if m:
            num, den, k = m.group("num", "den", "k")
            try:
                a, d, slot = int(num or 1), int(den or 1), int(k or 1) - 1  # slot 0 for ψ
            except ValueError:  # a digit string past int()'s conversion limit
                raise ValueError(f"malformed divisor term {tok!r}") from None
            if not d:
                raise ValueError(f"malformed rational literal '{num}/{den}'")
            if k and not 0 < slot < n // 2:
                raise ValueError(f"D{slot + 1} is not a basis class for n={n}")
            terms.append((slot, -a if sign == "-" else a, d))
        elif parse_rational(tok) != 0:
            raise ValueError(f"constant term {tok!r} is not a divisor")
    den = lcm(*(d for _, _, d in terms))
    summed = [0] * (n // 2)
    for slot, a, d in terms:
        summed[slot] += a * (den // d)
    # SymDivisor brings the sums to lowest terms
    return SymDivisor(n, _cleared=(summed[:1], summed[1:], den))


def format_divisor(d: SymDivisor) -> str:
    """Render in the literal grammar, all terms over one common denominator.

    The raw numerators are in lowest terms, so their denominator is already
    the least common one of the nonzero terms."""
    over = f"/{d._den}" if d._den > 1 else ""
    syms = ("psi", *(f"D{k}" for k in delta_range(d.n)))
    text = " ".join(f"{'-' if num < 0 else '+'} {abs(num)}{over}*{sym}"
                    for sym, num in zip(syms, d._psi + d._delta) if num)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]
