"""Exact polyhedral cone engine.

A cone is given either by homogeneous inequalities (ConeH: normal·x ≥ 0)
or by generators (ConeV: extreme rays plus a lineality basis).  The
conversion from H to V is the double description method with incremental
inequality insertion (Fukuda & Prodon, "Double description method
revisited", LNCS 1120, 1996), in one fixed colexicographic order of the
normals, chosen by measurement.  It runs on plain integers: each ray's
tight set is an int bitmask, and each inserted normal keeps an int
incidence bitset of the rays tight at it.  Adjacency is decided
combinatorially, as the AND of the incidence bitsets over a pair's common
tight set, so the output is exact without any rational arithmetic or rank
computation.

Canonical forms: normals and rays are primitive integer vectors (no sign
flip, orientation is meaningful); the lineality basis is the reduced row
echelon basis of the lineality space; rays are reduced modulo lineality
and sorted lexicographically.  Two ConeV values describing the same cone
therefore compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .exactlin import _SignTable, _certificate, _dense, _reduce, _rref, independent_rows, primitive


def _unit(i: int, dim: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(dim))


def _dot(a: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, a, v))


@dataclass(frozen=True)
class ConeH:
    """Cone cut out by homogeneous inequalities normal·x ≥ 0."""

    dim: int
    normals: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("cone dimension must be at least 1")
        seen = set()
        out = []
        for a in self.normals:
            if len(a) != self.dim:
                raise ValueError(f"normal {a} does not have dimension {self.dim}")
            if not any(a):
                continue
            v = primitive(a, flip_sign=False)
            if v not in seen:
                seen.add(v)
                out.append(v)
        object.__setattr__(self, "normals", tuple(out))

    @cached_property
    def pointed(self) -> bool:
        """Whether the cone contains no line: its normals have rank dim."""
        return len(independent_rows(self.normals, self.dim)) == self.dim

    @cached_property
    def _sign_table(self) -> _SignTable:
        """The normals as sparse rows, bounded by the largest L1 norm of a normal."""
        return _SignTable([[(i, x) for i, x in enumerate(a) if x] for a in self.normals],
                          self.dim, max((sum(map(abs, a)) for a in self.normals), default=0))


@dataclass(frozen=True)
class ConeV:
    """Cone spanned by extreme rays and a lineality space."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("cone dimension must be at least 1")
        for v in (*self.rays, *self.lineality):
            if len(v) != self.dim:
                raise ValueError(f"generator {v} does not have dimension {self.dim}")
        lin = _rref(self.lineality)
        rays = set()
        for r in self.rays:
            # every pivot of the basis is positive, so the ray is only
            # rescaled by positive integers and shifted along the lineality
            reduced = primitive(_reduce(list(r), lin), flip_sign=False)
            if any(reduced):
                rays.add(reduced)
        object.__setattr__(self, "lineality", tuple(tuple(_dense(b.items(), self.dim)) for _, b in lin))
        object.__setattr__(self, "rays", tuple(sorted(rays)))


@dataclass(frozen=True)
class Certificate:
    """Witness of extremality: independent tight normals of rank dim−1."""

    indices: tuple[int, ...]
    rank: int


def _cleared_signs(c: ConeH, v: Sequence) -> tuple[tuple[int, ...], bytes, bytes]:
    """w, v with its denominators cleared (a positive multiple in integers, so
    every sign against a normal is kept), and the signs of w on the normals.
    For a class vector (``exactlin.QVector``) w is the ``ray`` it carries.

    The cone keeps the last tuple it signed, class vectors included, by
    reference so that its id is not reused, with the result: the same tuple
    object again reads that result.  A list, or another tuple of equal
    values, is signed afresh."""
    last = c.__dict__.get("_signed")
    if last is not None and last[0] is v:
        return last[1]
    if len(v) != c.dim:
        raise ValueError(f"vector of dimension {len(v)} against cone of dimension {c.dim}")
    w = primitive(v, flip_sign=False)
    signed = (w, *c._sign_table.signs(w))
    if isinstance(v, tuple):
        object.__setattr__(c, "_signed", (v, signed))
    return signed


def contains(c: ConeH, v: Sequence) -> bool:
    """Whether v satisfies every inequality of the cone.

    v may have rational entries; ``primitive`` clears them once, or reads
    the ray that a class vector (``SymDivisor.class_vector``) carries.  The
    signs of all normals then come from the big-int products of the cone's
    ``exactlin._SignTable``, as in ``moduli.zero_and_negative_fcurves``.
    When v is a tuple, class vectors included, the cone keeps it and its
    signs until it signs another tuple; a list, or another tuple of equal
    values, is signed afresh.
    """
    return not any(_cleared_signs(c, v)[2])


def extremality_certificate(c: ConeH, v: Sequence) -> Optional[Certificate]:
    """Certify that v spans an extreme ray of the cone.

    Returns a rank-(dim−1) independent subset of the inequalities tight at
    v (as indices into c.normals), or None when the tight normals have any
    other rank.  v must lie in the cone, and the cone must be pointed: in a
    cone with lineality, a rank-(dim−1) tight set can span a line, which is
    no ray.

    Its tight rows, from the signs that ``contains`` keeps for the same
    tuple object, go as sparse terms to ``exactlin._certificate``, which
    keeps the rows ``independent_rows`` would.
    """
    w, zero, negative = _cleared_signs(c, v)
    if not c.pointed:
        raise ValueError("extremality certificates need a pointed cone")
    if any(negative):
        raise ValueError("vector is not in the cone")
    if not any(w):
        # every normal is tight at 0, and those of a pointed cone have rank dim
        return None
    tight = list(compress(range(len(zero)), zero))
    # the normals tight at a nonzero w are orthogonal to it
    chosen = tuple(tight[i] for i in _certificate(compress(c._sign_table.rows, zero), c.dim))
    return Certificate(chosen, len(chosen)) if len(chosen) == c.dim - 1 else None


# A ray during double description: the primitive vector, the bitmask of
# inserted normals tight at it, and its id, a bit position in the incidence
# bitsets.  Ids are never reused within a run.
_Ray = tuple[tuple[int, ...], int, int]


def _combine(x: int, u: Sequence[int], y: int, w: Sequence[int]) -> tuple[int, ...]:
    """The vector x·u − y·w in primitive form."""
    vec = [x * p - y * q for p, q in zip(u, w)]
    # its own gcd, not primitive(): this is the double description's inner loop
    g = gcd(*vec)
    return tuple(vec) if g == 1 else tuple([v // g for v in vec])


def _bits(ids: Sequence[int], count: int) -> int:
    """The int with bit i set for each i in ids, all below count."""
    field = bytearray(count // 8 + 1)
    for i in ids:
        field[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(field, "little")


def _containing(common: int, inc: Sequence[int], present: int) -> int:
    """The rays in present whose tight set contains common, as id bits.

    A ray's tight set contains common iff the ray is tight at every normal
    i in common, so this is the AND of inc[i] over those i, masked to
    present.
    """
    rays = present
    while common:
        i = common.bit_length() - 1
        rays &= inc[i]
        common ^= 1 << i
    return rays


def extreme_rays(c: ConeH) -> ConeV:
    """V-representation via double description with incremental insertion.

    State: a lineality basis plus extreme rays (mod lineality) of the cone
    cut by the inequalities inserted so far.  The normals are inserted once
    each in colexicographic order (the last coordinate decides first).  On
    the symmetric F-cone and its dual it measured faster than picking the
    normal with the fewest violating rays, and than lexicographic,
    descending or input order; and the run does not depend on the input
    order.  Each ray carries its tight set over the inserted normals
    (bit i for normal i) as a bitmask and an id; each inserted normal i keeps
    the incidence bitset inc[i], with bit id set for every ray ever made
    that is tight at it.  A step takes one integer dot per ray.

    A new inequality either slices the lineality space (every ray is
    projected onto the new wall and the surviving lineality direction
    becomes a ray) or removes the strictly negative rays, replacing them
    with combinations of adjacent positive/negative pairs.  Adjacency is
    the combinatorial test of Fukuda & Prodon: the common tight set has at
    least dim − lineality − 2 elements and no third ray's tight set
    contains it.  The second half is the AND of inc[i] over the common
    tight set, masked to the rays alive at the start of the step: the pair
    is adjacent iff it has exactly their two bits.
    """
    dim = c.dim
    normals = sorted(c.normals, key=lambda a: a[::-1])
    m = len(normals)
    lineality: list[tuple[int, ...]] = [_unit(i, dim) for i in range(dim)]
    rays: list[_Ray] = []
    inc = [0] * m
    count = 0
    present = 0
    for k in range(m):
        a = normals[k]
        bit = 1 << k
        hit = next((v for v in lineality if _dot(a, v)), None)
        if hit is not None:
            av0 = _dot(a, hit)
            v0 = hit if av0 > 0 else tuple(-x for x in hit)
            av0 = abs(av0)
            new_lin = []
            for v in lineality:
                if v is hit:
                    continue
                av = _dot(a, v)
                new_lin.append(primitive([av0 * x - av * y for x, y in zip(v, v0)]) if av else v)
            lineality = new_lin
            # projecting along v0, which every earlier wall is tight at, keeps
            # each ray's tight set and id, and puts every ray on the new wall
            projected = []
            for r, t, i in rays:
                s = _dot(a, r)
                projected.append((_combine(av0, r, s, v0) if s else r, t | bit, i))
            rays = projected
            inc[k] = present
            # v0 is tight at every earlier wall and strictly positive on a
            rays.append((v0, bit - 1, count))
            for i in range(k):
                inc[i] |= 1 << count
            present |= 1 << count
            count += 1
        else:
            positive, negative, kept, zero = [], [], [], []
            for r, t, i in rays:
                s = sum(map(mul, a, r))
                if s > 0:
                    positive.append((t, r, s))
                    kept.append((r, t, i))
                elif s < 0:
                    negative.append((t, r, s, i))
                else:
                    kept.append((r, t | bit, i))
                    zero.append(i)
            start = count
            if positive and negative:
                need = dim - len(lineality) - 2
                new = []
                for tp, rp, sp in positive:
                    # the filter reads only the mask: most pairs stop here, and
                    # unpacking every pair measured slower
                    for ray in negative:
                        if (tp & ray[0]).bit_count() < need:
                            continue
                        tn, rn, sn, _ = ray
                        common = tp & tn
                        if _containing(common, inc, present).bit_count() == 2:
                            kept.append((_combine(sp, rn, sn, rp), common | bit, count))
                            new.append(common)
                            count += 1
                for i, common in enumerate(new, start):
                    b = 1 << i
                    while common:
                        j = common.bit_length() - 1
                        inc[j] |= b
                        common ^= 1 << j
            # the negative rays die, and the new rays, ids start..count−1, join
            made = (1 << count) - (1 << start)
            present ^= _bits([i for _, _, _, i in negative], count) | made
            inc[k] = _bits(zero, count) | made
            rays = kept
    return ConeV(dim, tuple(r for r, _, _ in rays), tuple(lineality))
