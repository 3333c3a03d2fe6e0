"""Exact polyhedral cone engine.

A cone is given either by homogeneous inequalities (ConeH: normal·x ≥ 0)
or by generators (ConeV: extreme rays plus a lineality basis).  The
conversion from H to V is the double description method with incremental
inequality insertion (Fukuda & Prodon, "Double description method
revisited", LNCS 1120, 1996), in one fixed colexicographic order of the
normals, chosen by measurement.  It runs on plain integers: each ray keeps
its integer slack against the normals still to come, and its tight set is
an int bitmask.  Adjacency is decided combinatorially from those bitmasks,
one big-int test per pair against every ray's tight set packed into one
int per insertion step, so the output is exact without any rational
arithmetic or rank computation.

Canonical forms: normals and rays are primitive integer vectors (no sign
flip, orientation is meaningful); the lineality basis is the reduced row
echelon basis of the lineality space; rays are reduced modulo lineality
and sorted lexicographically.  Two ConeV values describing the same cone
therefore compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .exactlin import _dense, _reduce, _rref, dot, independent_rows, kernel_basis, primitive, rank


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
        object.__setattr__(self, "lineality", tuple(tuple(_dense(b, self.dim)) for _, b in lin))
        object.__setattr__(self, "rays", tuple(sorted(rays)))


@dataclass(frozen=True)
class Certificate:
    """Witness of extremality: independent tight normals of rank dim−1."""

    indices: tuple[int, ...]
    rank: int


def _cleared(c: ConeH, v: Sequence) -> tuple[int, ...]:
    """v with its denominators cleared: a positive multiple in integers, so
    every sign against a normal is kept."""
    if len(v) != c.dim:
        raise ValueError(f"vector of dimension {len(v)} against cone of dimension {c.dim}")
    return primitive(v, flip_sign=False)


def contains(c: ConeH, v: Sequence) -> bool:
    """Whether v satisfies every inequality of the cone.

    v may have rational entries; its denominators are cleared once, and
    each normal is then an integer dot product.
    """
    w = _cleared(c, v)
    return all(_dot(a, w) >= 0 for a in c.normals)


def extremality_certificate(c: ConeH, v: Sequence) -> Optional[Certificate]:
    """Certify that v spans an extreme ray of the cone.

    Returns a rank-(dim−1) independent subset of the inequalities tight at
    v (as indices into c.normals), or None when the tight normals have any
    other rank.  v must lie in the cone, and the cone must be pointed: in a
    cone with lineality, a rank-(dim−1) tight set can span a line, which is
    no ray.
    """
    w = _cleared(c, v)
    if not c.pointed:
        raise ValueError("extremality certificates need a pointed cone")
    slacks = [_dot(a, w) for a in c.normals]
    if any(s < 0 for s in slacks):
        raise ValueError("vector is not in the cone")
    tight = [i for i, s in enumerate(slacks) if s == 0]
    # the normals tight at a nonzero w are orthogonal to it, so their rank
    # is at most dim−1; at w = 0 every normal is tight and the rank is dim
    target = c.dim - 1 if any(w) else None
    chosen = [tight[i] for i in independent_rows([c.normals[i] for i in tight], target)]
    if len(chosen) != c.dim - 1:
        return None
    return Certificate(tuple(chosen), len(chosen))


# A ray during double description: the primitive vector, its slack against
# each normal still to come, and the bitmask of inserted normals tight at it.
_Ray = tuple[tuple[int, ...], list[int], int]


def _combine(x: int, u: _Ray, y: int, w: _Ray, tight: int, k: int) -> _Ray:
    """The ray x·u − y·w in primitive form, made while inserting normal k.

    Its slacks are x·su − y·sw divided by the same content, so they stay
    exact without a dot product.  Only the normals still to come,
    normals[:k], get a slack: no later step reads the others.
    """
    vec = [x * p - y * q for p, q in zip(u[0], w[0])]
    g = gcd(*vec)
    slacks = [(x * p - y * q) // g for p, q in zip(u[1][:k], w[1][:k])]
    return tuple(v // g for v in vec), slacks, tight


# (shift, packed, ones, low, top, others): see _pack
_Table = tuple[int, int, int, int, int, int]


def _pack(masks: Sequence[int], k: int, m: int) -> _Table:
    """Pack tight sets over the normals k+1..m−1 of m for _adjacent.

    Mask i >> shift sits in field i of packed.  Each field has
    width = (m − k − 1) // 8 + 1 bytes, so it keeps a spare top bit above
    the m − k − 1 bits of a shifted mask.  ones has 1 in each field, top
    each field's top bit, low = top − ones, and others is the number of
    masks less the pair.
    """
    shift = k + 1
    width = (m - shift) // 8 + 1
    fields = b"".join((t >> shift).to_bytes(width, "little") for t in masks)
    packed = int.from_bytes(fields, "little")
    ones = int.from_bytes((1).to_bytes(width, "little") * len(masks), "little")
    top = ones << (8 * width - 1)
    return shift, packed, ones, top - ones, top, len(masks) - 2


def _adjacent(common: int, table: _Table) -> bool:
    """No third ray's tight set contains ``common``.

    The two rays of the pair always contain their common tight set, so
    the pair is adjacent iff exactly two masks contain it.  With common
    copied into every field, (mask & common) ^ common is zero in a field
    iff its mask contains common, and adding low carries into the top bit
    of every other field, never past it: the pair is adjacent iff every
    field but two has its top bit set.  Counting fields excludes the pair
    by position: a third ray whose mask equals one of theirs still counts.
    """
    shift, packed, ones, low, top, others = table
    spread = (common >> shift) * ones
    return (((packed & spread) ^ spread) + low & top).bit_count() == others


def extreme_rays(c: ConeH) -> ConeV:
    """V-representation via double description with incremental insertion.

    State: a lineality basis plus extreme rays (mod lineality) of the cone
    cut by the inequalities inserted so far.  The normals are inserted once
    each in colexicographic order (the last coordinate decides first).  On
    the symmetric F-cone and its dual it measured faster than picking the
    normal with the fewest violating rays, and than lexicographic,
    descending or input order; and the run does not depend on the input
    order.  They are stored in the reverse order and inserted from the last
    index down, so the normals still to come are always normals[:k]: each
    ray carries its integer slack against those only, computed when the
    ray is made, and its tight set over the inserted normals (bits k+1 and
    up) as a bitmask.

    A new inequality either slices the lineality space (every ray is
    projected onto the new wall and the surviving lineality direction
    becomes a ray) or removes the strictly negative rays, replacing them
    with combinations of adjacent positive/negative pairs.  Adjacency is
    the combinatorial test of Fukuda & Prodon: the common tight set has at
    least dim − lineality − 2 elements and no third ray's tight set
    contains it.  The second half is one big-int test per pair, against
    every ray's tight set packed into one int once per step.
    """
    dim = c.dim
    normals = sorted(c.normals, key=lambda a: a[::-1], reverse=True)
    m = len(normals)
    lineality: list[tuple[int, ...]] = [_unit(i, dim) for i in range(dim)]
    rays: list[_Ray] = []
    for k in reversed(range(m)):
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
            # v0 was a lineality direction, so every earlier wall is tight at it
            ray0 = (v0, [_dot(b, v0) for b in normals[:k]], (1 << m) - (bit << 1))
            rays = [
                (r, s, t | bit) if s[k] == 0 else _combine(av0, (r, s, t), s[k], ray0, t | bit, k)
                for r, s, t in rays
            ]
            rays.append(ray0)
        else:
            positive = [ray for ray in rays if ray[1][k] > 0]
            negative = [ray for ray in rays if ray[1][k] < 0]
            kept = [(r, s, t | bit if s[k] == 0 else t) for r, s, t in rays if s[k] >= 0]
            if positive and negative:
                table = _pack([t for _, _, t in rays], k, m)
                need = dim - len(lineality) - 2
                for rp in positive:
                    for rn in negative:
                        common = rp[2] & rn[2]
                        if common.bit_count() >= need and _adjacent(common, table):
                            kept.append(_combine(rp[1][k], rn, rn[1][k], rp, common | bit, k))
            rays = kept
    return ConeV(dim, tuple(r for r, _, _ in rays), tuple(lineality))


def extreme_rays_by_enumeration(c: ConeH) -> ConeV:
    """Brute-force reference enumeration for pointed cones.

    Every extreme ray of a pointed cone is the kernel of some dim−1
    independent normals; enumerate all such subsets, keep the kernel
    direction that lies in the cone, and certify tight rank dim−1.
    """
    dim = c.dim
    if not c.normals or rank(c.normals) < dim:
        raise ValueError("enumeration oracle requires a pointed cone")
    if dim == 1:
        candidates = [(1,), (-1,)]
    else:
        candidates = []
        for subset in combinations(range(len(c.normals)), dim - 1):
            sub = [c.normals[i] for i in subset]
            if rank(sub) != dim - 1:
                continue
            (v,) = kernel_basis(sub)
            candidates.append(v)
            candidates.append(tuple(-x for x in v))
    found = set()
    for v in candidates:
        if not contains(c, v):
            continue
        tight = [a for a in c.normals if dot(a, v) == 0]
        if tight and rank(tight) == dim - 1:
            found.add(primitive(v, flip_sign=False))
    return ConeV(dim, tuple(found), ())


# ---------------------------------------------------------------------------
# Plain-text H/V files: header `H <dim> <count>` or `V <dim> <count>`, one
# integer vector per line; a V description with lineality appends a second
# block headed `L <dim> <count>`.


def format_cone(cone) -> str:
    lines = []
    if isinstance(cone, ConeH):
        lines.append(f"H {cone.dim} {len(cone.normals)}")
        lines.extend(" ".join(str(x) for x in a) for a in cone.normals)
    elif isinstance(cone, ConeV):
        lines.append(f"V {cone.dim} {len(cone.rays)}")
        lines.extend(" ".join(str(x) for x in r) for r in cone.rays)
        if cone.lineality:
            lines.append(f"L {cone.dim} {len(cone.lineality)}")
            lines.extend(" ".join(str(x) for x in v) for v in cone.lineality)
    else:
        raise TypeError(f"not a cone: {cone!r}")
    return "\n".join(lines) + "\n"


def parse_cone(text: str):
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise ValueError("empty cone description")

    def read_block(expect_kinds):
        header = rows.pop(0)
        if len(header) != 3 or header[0] not in expect_kinds:
            raise ValueError(f"malformed cone header {' '.join(header)!r}")
        kind, dim, count = header[0], int(header[1]), int(header[2])
        if count > len(rows):
            raise ValueError(f"{kind} block promises {count} rows, found {len(rows)}")
        vectors = []
        for _ in range(count):
            row = rows.pop(0)
            if len(row) != dim:
                raise ValueError(f"row {' '.join(row)!r} does not have dimension {dim}")
            vectors.append(tuple(int(x) for x in row))
        return kind, dim, tuple(vectors)

    kind, dim, vectors = read_block({"H", "V"})
    if kind == "H":
        if rows:
            raise ValueError("trailing content after H block")
        return ConeH(dim, vectors)
    lineality = ()
    if rows:
        lkind, ldim, lineality = read_block({"L"})
        if ldim != dim:
            raise ValueError("lineality block dimension differs from ray block")
        if rows:
            raise ValueError("trailing content after L block")
    return ConeV(dim, vectors, lineality)
