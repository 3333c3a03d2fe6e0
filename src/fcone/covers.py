"""Divisor classes pulled back along cyclic covering maps.

A degree-p cyclic cover of the line branched at n weighted points turns a
pointed rational curve into a positive-genus curve; pushing divisor
classes of the target moduli space back through that construction yields
the classes built here: the Hodge class and its eigenbundle summands,
boundary pullbacks, and a few named nonnegative combinations.

The class builders return SymDivisor or FullDivisor values with exact
rational coefficients, held in lowest terms; callers normalize to rays when
they need to.  genus and exceptional_genus return ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd, lcm
from operator import itemgetter, mul
from typing import Mapping, Sequence

from .exactlin import _lowest_terms, _over_lcm, primitive
from .moduli import FullDivisor, SymDivisor, _Layout, _check_n, _layout_of, _walk, delta_range


@dataclass(frozen=True)
class WeightData:
    """Branch weights of a degree-p cyclic cover of the line.

    d lists one nonnegative weight per marking; p must divide their sum so
    the cover is unramified away from the markings.
    """

    d: tuple[int, ...]
    p: int

    def __post_init__(self):
        d = tuple(map(int, self.d))
        object.__setattr__(self, "d", d)
        if self.p < 2:
            raise ValueError("cover degree must be at least 2")
        if min(d, default=0) < 0:
            raise ValueError("weights must be nonnegative")
        total = sum(d)
        if total % self.p:
            raise ValueError(f"degree {self.p} does not divide the total weight {total}")

    @property
    def n(self) -> int:
        return len(self.d)

    @cached_property
    def _profiles(self) -> tuple[_Layout, itemgetter, itemgetter]:
        """The layout of the markings 1..n−1 by weight mod p, and getters of
        each side profile's weight sum mod p, for every side and for the sides
        that split the cover (δ_red), filled once per weight datum.  Other
        profiles get weight sum p, which every _base_table reads as a zero."""
        _check_n(self.n)
        p = self.p
        blocks: dict[int, list[int]] = {}
        for i, di in enumerate(self.d[:-1], 1):
            blocks.setdefault(di % p, []).append(i)
        layout = _layout_of(blocks.values())
        steps = [(range(len(b) + 1), self.d[b[0] - 1] % p) for b in layout.blocks]
        weight = [s % p for s in _walk([c * r for c in cs] for cs, r in steps)]
        ram = _walk([c * (p - gcd(r, p)) for c in cs] for cs, r in steps)
        for i in layout.empty:
            weight[i] = p
        splits = _split_ram(p, ram[-1] + p - gcd(self.d[-1], p))  # ram[-1]: markings 1..n−1
        split = [s if r in splits else p for s, r in zip(weight, ram)]
        return layout, itemgetter(*weight), itemgetter(*split)

    @cached_property
    def _eigen(self) -> dict[int, FullDivisor]:
        """det E_j by min(j, p − j), filled by eigen_det_class: at most ⌊p/2⌋
        classes, dropped with the weight datum."""
        return {}


def _split_ram(p: int, total_ram: int) -> range:
    """The ramifications Σ(p − gcd(d_i, p)) of the sides that split a cover of
    total ramification total_ram when their weight sum is coprime to p: a
    half with ramification r then carries a cover with χ = p + 1 − r (its
    attaching point ramifies fully), of positive genus when χ ≤ 1."""
    return range(p, total_ram - p + 1)


def genus(w: WeightData) -> int:
    """Genus of the cover; negative values flag disconnected weight data."""
    # Riemann-Hurwitz for y^p = prod (x - x_i)^{d_i}; counts each branch
    # point with p - gcd(d_i, p) and assumes no ramification elsewhere.
    p = w.p
    chi = 2 * p - sum(p - gcd(x, p) for x in w.d)
    return 1 - chi // 2


def exceptional_genus(di: int, dj: int, p: int) -> int:
    """Genus of the curve over the bubble where two branch points collide."""
    if p < 2:
        raise ValueError("cover degree must be at least 2")
    q = gcd(di + dj, p)
    twice, remainder = divmod(2 + p - q - gcd(di, p) - gcd(dj, p), 2)
    if remainder:
        raise RuntimeError(f"half-integral genus for weights ({di},{dj}) at degree {p}")
    return twice


def _unit_weights(n: int, p: int) -> WeightData:
    _check_n(n)
    if p > 1 and n % p:  # WeightData rejects p < 2
        raise ValueError(f"degree {p} must divide the number of markings {n}")
    return WeightData((1,) * n, p)


def hodge_class(n: int, p: int) -> SymDivisor:
    """Hodge-class pullback for the unit-weight cover, on the symmetric quotient."""
    return _symmetric_classes(_unit_weights(n, p), (_row(("lambda",), (1,)),))[0]


def pullback_boundary(n: int, p: int) -> tuple[SymDivisor, SymDivisor]:
    """Pullbacks of the two boundary classes of the target moduli space.

    Returns (irreducible-node class, separating-node class): a node whose
    side size shares a factor with p stays irreducible upstairs and picks
    up multiplicity gcd²/p; coprime sides split the cover.
    """
    return tuple(_symmetric_classes(_unit_weights(n, p), [_row((b,), (1,)) for b in ("irr", "red")]))


def pullback_combo(n: int, p: int, c_lambda, c_irr, c_red) -> SymDivisor:
    """Linear combination c_λ·λ + c_irr·δ_irr + c_red·δ_red, pulled back."""
    row = _row(("lambda", "irr", "red"), [Fraction(c) for c in (c_lambda, c_irr, c_red)])
    return _symmetric_classes(_unit_weights(n, p), (row,))[0]


@cache
def _base_table(b, p: int) -> tuple[tuple[int, ...], int]:
    """Base b's Δ numerators t(s) on a side of weight sum s mod p, s < p,
    then a 0, and their denominator, in lowest terms.  For b = "lambda",
    "irr", "red" and j (det E_j), t over 12p² is p(q² − p²), 12p·q² if q > 1,
    12p if q = 1 (δ_red reads only split sides) and −6r(p − r), with
    q = gcd(s, p) and r = j·s mod p.  ψ_i reads −t(d_i) for λ and det E_j."""
    qs = [gcd(s, p) for s in range(p)]
    t, den = (([q * q - p * p for q in qs], 12 * p) if b == "lambda" else
              ([q * q if q > 1 else 0 for q in qs], p) if b == "irr" else
              ([1 if q == 1 else 0 for q in qs], p) if b == "red" else
              ([-(b * s % p) * (p - b * s % p) for s in range(p)], 2 * p * p))
    t, den = _lowest_terms(t, den)
    return (*t, 0), den


def _base_class(w: WeightData, b) -> tuple[Sequence[int], Sequence[int], int]:
    """Base b of w: ψ by marking and Δ by side profile, over one denominator."""
    p = w.p
    t, den = _base_table(b, p)
    _, by_weight, by_split = w._profiles
    if b == "red":
        return (0,) * w.n, by_split(t), den
    return ((0,) * w.n if b == "irr" else [-t[di % p] for di in w.d]), by_weight(t), den


def weighted_pullbacks(w: WeightData) -> tuple[FullDivisor, FullDivisor, FullDivisor]:
    """Hodge and boundary pullbacks of a weighted cover, per marking.

    Returns (λ, δ_irr, δ_red) as FullDivisor values.  A node side with
    weight sum coprime to p splits the cover into a one-node curve, but
    only contributes to the separating-node pullback when both halves
    have positive genus; a genus-0 half is contracted on stabilization
    and the image family leaves the boundary.
    """
    layout = w._profiles[0]
    return tuple(FullDivisor(w.n, _cleared=_base_class(w, b), _layout=layout)
                 for b in ("lambda", "irr", "red"))


def _check_character(w: WeightData, j: int) -> None:
    if not 1 <= j <= w.p - 1:
        raise ValueError(f"character {j} out of range 1..{w.p - 1}")


def eigen_det_class(w: WeightData, j: int) -> FullDivisor:
    """Determinant of the weight-j eigenbundle of the Hodge bundle.

    Closed formula: (1/2p²)[Σ⟨j·d_i⟩(p−⟨j·d_i⟩)ψ_i − Σ⟨j·d(I)⟩(p−⟨j·d(I)⟩)Δ_{I,J}].
    It reads j only through ⟨j·d⟩(p − ⟨j·d⟩), so det E_{p−j} = det E_j: both
    return the one class of min(j, p − j), built on the first call and kept
    on w for as long as w lives.
    """
    _check_character(w, j)
    j = min(j, w.p - j)
    built = w._eigen
    if j not in built:
        built[j] = FullDivisor(w.n, _cleared=_base_class(w, j), _layout=w._profiles[0])
    return built[j]


def _row(bases: Sequence, coeffs: Sequence, p: int | None = None) -> tuple[tuple, tuple]:
    """A read-out row (bases, coefficients): no zero terms, det E_{p−j} as min(j, p − j)."""
    if 0 in coeffs:
        bases, coeffs = [b for b, c in zip(bases, coeffs) if c], [c for c in coeffs if c]
    return tuple([b if type(b) is str else min(b, p - b) for b in bases]), tuple(coeffs)


def _symmetric_bases(w: WeightData, rows: Sequence[tuple]) -> tuple[dict, dict, int]:
    """The profile walk of the symmetric read-outs.

    Rows come from _row; bases are "lambda", "irr", "red" or j (det E_j).
    Each base reads _base_table as _base_class does, so the Δ_k coefficient
    of the average, a mean over the C(n, k) sets I of size k, is a sum over
    the profiles of I (how many markings of each weight mod p it takes), as
    in symmetrize().
    Profiles agreeing on (|I|, s, ramification of I) are merged, so the walk
    stays polynomial in n where the layout of WeightData._profiles has
    2^(n−1) profiles, as for distinct weights.  As p divides the total
    weight, I and its complement agree at k = n/2.

    Returns (psis, columns, den): ψ numerator and Δ column by base, over den.
    """
    n, p = w.n, w.p
    residues = [x % p for x in w.d]
    groups = [(d, residues.count(d)) for d in dict.fromkeys(residues)]
    total_ram = 0
    profiles = {(0, 0, 0): 1}
    for d, m in groups:
        e = p - gcd(d, p)
        total_ram += m * e
        ways = [comb(m, c) for c in range(min(m, n // 2) + 1)]
        grown = {}
        for (k, s, ram), times in profiles.items():
            for c in range(min(m, n // 2 - k) + 1):
                key = (k + c, (s + c * d) % p, ram + c * e)
                grown[key] = grown.get(key, 0) + times * ways[c]
        profiles = grown
    # per k: how many of the C(n, k) sets of size k have weight sum s, over
    # every side and over the split ones; these shares and 1/n are
    # numerators over l
    every, split = [{} for _ in delta_range(n)], [{} for _ in delta_range(n)]
    splits = _split_ram(p, total_ram)
    for (k, s, ram), times in profiles.items():
        if k >= 2:
            every[k - 2][s] = every[k - 2].get(s, 0) + times
            if ram in splits:
                split[k - 2][s] = split[k - 2].get(s, 0) + times
    sizes = [comb(n, k) for k in delta_range(n)]
    l = lcm(n, *(size // gcd(size, times) for sides in (every, split)
                 for size, at_k in zip(sizes, sides) for times in at_k.values()))
    every, split = ([[(s, times * l // size) for s, times in at_k.items()]
                     for size, at_k in zip(sizes, sides)] for sides in (every, split))
    psis, columns = {}, {}
    for b in {b for bs, _ in rows for b in bs}:
        t, den = _base_table(b, p)
        lift = 12 * p * p // den
        psi = 0 if b in ("irr", "red") else -sum([m * t[d] for d, m in groups])
        psis[b] = psi * (l // n) * lift
        columns[b] = [sum([c * t[s] for s, c in at_k]) * lift
                      for at_k in (split if b == "red" else every)]
    return psis, columns, 12 * p * p * l


def _combine(cs: Sequence[int], bs: Sequence, columns: Mapping) -> list[int]:
    """Σ c_b·column_b over the terms of one row; [] for a row of no terms."""
    if cs == [1]:
        return columns[bs[0]]
    return [sum(map(mul, cs, at_k)) for at_k in zip(*map(columns.get, bs))]


def _symmetric_classes(w: WeightData, rows: Sequence[tuple]) -> list[SymDivisor]:
    """S_n-averages of combinations of the classes of the cover w, one SymDivisor
    per row, from one walk over weight profiles (see _symmetric_bases).  Equal
    rows, as det E_j and det E_{p−j} are, get the same SymDivisor."""
    n = w.n
    psis, columns, den = _symmetric_bases(w, rows)
    zero = [0] * len(delta_range(n))
    built = {}
    for row in dict.fromkeys(rows):
        bs, (cs, row_den) = row[0], _over_lcm(row[1])
        built[row] = SymDivisor(n, _cleared=((sum(map(mul, cs, map(psis.get, bs))),),
                                             _combine(cs, bs, columns) or zero, den * row_den))
    return [built[row] for row in rows]


def _symmetric_rays(w: WeightData, rows: Sequence[tuple]) -> list[tuple[int, ...]]:
    """``[d.ray() for d in _symmetric_classes(w, rows)]`` with no SymDivisor:
    (n−1)ψ = Σ k(n−k)Δ_k is folded into each base column once, a row of one
    base at coefficient 1 reads that column and other rows combine them."""
    n = w.n
    psis, columns, _ = _symmetric_bases(w, rows)
    weights = [k * (n - k) for k in delta_range(n)]
    expanded = {b: [c * (n - 1) + a * t for c, t in zip(columns[b], weights)]
                for b, a in psis.items()}
    zero = [0] * len(weights)
    found = {}
    for bs, cs in dict.fromkeys(rows):
        column = expanded[bs[0]] if cs == (1,) else _combine(_over_lcm(cs)[0], bs, expanded) or zero
        found[bs, cs] = primitive(column)
    return [found[row] for row in rows]


def sym_weighted_pullbacks(w: WeightData) -> tuple[SymDivisor, SymDivisor, SymDivisor]:
    """(λ, δ_irr, δ_red): symmetrize() of each of weighted_pullbacks(w), from
    weight profiles."""
    return tuple(_symmetric_classes(w, [_row((b,), (1,)) for b in ("lambda", "irr", "red")]))


def sym_eigen_det_class(w: WeightData, j: int) -> SymDivisor:
    """symmetrize(eigen_det_class(w, j)), from weight profiles."""
    _check_character(w, j)
    return _symmetric_classes(w, (_row((j,), (1,), w.p),))[0]


def conformal_blocks_class(p: int, d: Sequence[int]) -> FullDivisor:
    """Class of the level-1 conformal blocks bundle with the given weights."""
    return p * eigen_det_class(WeightData(tuple(d), p), 1)


def p5_class(n: int, j: int) -> SymDivisor:
    """The two nonnegative degree-5 eigenbundle combinations 50·det E_j − δ_irr."""
    if j not in (1, 2):
        raise ValueError("character must be 1 or 2")
    return _symmetric_classes(_unit_weights(n, 5), (_row((j, "irr"), (50, -1), 5),))[0]


def log_canonical_class(n: int, p: int) -> SymDivisor:
    """ψ − ΣΔ_k − (1/2)Σ_{p|k}Δ_k, the boundary log canonical combination."""
    _unit_weights(n, p)
    return SymDivisor(n, 1, {k: -1 if k % p else Fraction(-3, 2) for k in delta_range(n)})
