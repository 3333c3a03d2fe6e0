"""Reference implementations that the tests check fcone against.

They import nothing from ``fcone.exactlin``: their ranks and kernels are
dense ``Fraction`` elimination and their dots plain integer sums, so a fault
in its elimination cannot pass by agreeing with itself.  From fcone they take
only the types they read and build (``ConeH``, ``ConeV``, ``FullFCurve``);
``test_oracles_import_nothing_from_exactlin`` checks their imports.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd, lcm

from fcone.cones import ConeH, ConeV
from fcone.moduli import FullFCurve


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


def _kernel_ray(rows, dim: int):
    """The kernel direction of rows of rank dim−1 as a primitive integer
    vector, by Gauss–Jordan elimination over Fractions; None at any other
    rank."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(dim):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    if len(pivots) != dim - 1:
        return None
    (free,) = set(range(dim)) - set(pivots)
    v = [Fraction(0)] * dim
    v[free] = Fraction(1)
    for row, c in zip(m, pivots):
        v[c] = -row[free]
    # the lcm clears every denominator and leaves the ints coprime
    den = lcm(*(x.denominator for x in v))
    return tuple(int(x * den) for x in v)


def extreme_rays_by_enumeration(c: ConeH) -> ConeV:
    """Brute-force reference for the rays of a pointed cone.

    Every extreme ray of a pointed cone is the kernel of some dim−1
    independent normals; enumerate all such subsets, keep each kernel
    direction that lies in the cone, and certify tight rank dim−1.
    """
    dim = c.dim
    if not c.normals or reference_rank(c.normals) < dim:
        raise ValueError("enumeration oracle requires a pointed cone")
    candidates = set()
    for sub in combinations(c.normals, dim - 1):
        v = _kernel_ray(sub, dim)
        if v is not None:
            candidates |= {v, tuple(-x for x in v)}
    rays = []
    for v in candidates:
        dots = [sum(x * y for x, y in zip(a, v)) for a in c.normals]
        if min(dots) >= 0 and reference_rank(
                [a for a, d in zip(c.normals, dots) if d == 0]) == dim - 1:
            rays.append(v)
    return ConeV(dim, tuple(rays), ())


# ---------------------------------------------------------------------------
# Form counts on cyclic covers of the line, by brute force.


def oracle_h0(weights, p: int, j: int) -> int:
    """Brute-force form count for the cover y^p = prod (x - b_i)^{w_i}.

    ``weights`` lists the 2 or 3 finite branch weights; the point at
    infinity carries the complementary weight.  Candidate forms
    y^j dx / prod (x - b_i)^{s_i} are enumerated over the exponent box
    0 <= s_i <= p, a candidate is kept when its vanishing order is
    nonnegative over every branch point, and the span of the survivors
    has one dimension per distinct total exponent among them.
    """
    if p < 2:
        raise ValueError(f"cover degree must be at least 2, got {p}")
    if len(weights) not in (2, 3):
        raise ValueError(f"expected 2 or 3 finite branch weights, got {len(weights)}")
    key = tuple(sorted(int(w) % p for w in weights))
    return _oracle_h0_cached(key, p, j % p)


@cache
def _oracle_h0_cached(weights: tuple[int, ...], p: int, j: int) -> int:
    total = sum(weights)
    g_inf = gcd(total, p)
    e_inf = p // g_inf
    # Over a finite branch point of weight w the local sheet count is
    # e = p/gcd(w, p); there y vanishes to order w/gcd(w, p), dx to order
    # e - 1, and x - b_i to order e.  Exponents past the regularity cap
    # can never survive, so the box is trimmed to it.
    caps = []
    for w in weights:
        g = gcd(w, p)
        e = p // g
        caps.append(min(p, (j * (w // g) + e - 1) // e))
    totals = set()
    for sig in product(*(range(c + 1) for c in caps)):
        # order over infinity: poles of y^j and dx against the zeros
        # contributed by every finite factor
        s = sum(sig)
        if s * e_inf - j * (total // g_inf) - e_inf - 1 >= 0:
            totals.add(s)
    if not totals:
        return 0
    return max(totals) - min(totals) + 1


def enumerate_full_fcurves(n: int) -> list[FullFCurve]:
    """All set partitions of {1..n} into four nonempty blocks."""
    out = []

    def split(rest: list[int], blocks: list[list[int]]):
        if not rest:
            if all(blocks):
                out.append(FullFCurve(tuple(frozenset(b) for b in blocks)))
            return
        item, rest = rest[0], rest[1:]
        for i, block in enumerate(blocks):
            if block or all(not b for b in blocks[i + 1:]):
                # empty blocks are filled left to right, killing relabelings
                block.append(item)
                split(rest, blocks)
                block.pop()
            if not block:
                break

    split(list(range(1, n + 1)), [[], [], [], []])
    return out


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
