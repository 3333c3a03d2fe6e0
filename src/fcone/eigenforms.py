"""Form counts on cyclic covers of the line with three or four branch points.

A degree-p cyclic cover of the projective line carries an action of the
deck group, and its holomorphic one-forms split into character summands.
For covers branched at three or four points the dimension of each summand
is determined by elementary residue arithmetic; these small covers are
exactly the ones appearing over the special fibers of a four-tail family,
so the same arithmetic yields the rank and degree of each eigenbundle on
such a family.

The counts are closed forms in the residues.  The test suite recounts them
by brute force over monomial differentials, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


@dataclass(frozen=True)
class BranchData:
    """Branch weights of a cyclic cover of the line with 3 or 4 branch points.

    ``weights`` lists every branch weight, reduced mod p on construction;
    the last entry must complete the sum to a multiple of p.  ``j`` selects
    the character of the deck-group action.
    """

    weights: tuple[int, ...]
    p: int
    j: int = 0

    def __post_init__(self) -> None:
        p = int(self.p)
        _check_degree(p)
        ws = tuple(int(w) % p for w in self.weights)
        if len(ws) not in (3, 4):
            raise ValueError(f"expected 3 or 4 branch weights, got {len(ws)}")
        if sum(ws) % p:
            raise ValueError(f"branch weights {ws} do not sum to 0 mod {p}")
        j = int(self.j)
        if not 0 <= j < p:
            raise ValueError(f"character must lie in 0..{p - 1}, got {j}")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "j", j)

    @classmethod
    def complete(cls, partial: Sequence[int], p: int, j: int = 0) -> "BranchData":
        """Build branch data from all weights but the last, which is implied."""
        ws = tuple(int(w) for w in partial)
        return cls(ws + (-sum(ws) % p,), p, j)

    def residues(self) -> tuple[int, ...]:
        """The scaled residues <j*w> of the branch weights."""
        return tuple(self.j * w % self.p for w in self.weights)

    def h0(self) -> int:
        """Dimension of the weight-j summand of the forms on this cover."""
        return _h0_from_residues(self.residues(), self.p)


def _check_degree(p: int) -> None:
    if p < 2:
        raise ValueError(f"cover degree must be at least 2, got {p}")


def _h0_from_residues(residues: Sequence[int], p: int) -> int:
    # Each nonzero residue allows one pole order at its branch point; the
    # residue total, a multiple of p, fixes how many orders the point at
    # infinity eats.  A vanishing residue means the point is unbranched in
    # this character and contributes nothing, matching the cover with that
    # point dropped.
    total = sum(residues)
    if total % p:
        raise ValueError(f"residues {tuple(residues)} do not sum to 0 mod {p}")
    nonzero = sum(1 for r in residues if r)
    return max(0, nonzero - 1 - total // p)


def _h0(weights: Sequence[int], p: int, j: int) -> int:
    _check_degree(p)
    return _h0_from_residues([j * w % p for w in weights], p)


def h0_weight_3pt(a: int, b: int, p: int, j: int) -> int:
    """Form count for a three-point cover: 1 exactly when both scaled
    residues <aj>, <bj> are nonzero and their sum stays below p."""
    return _h0((a, b, -(a + b)), p, j)


def h0_weight_4pt(a: int, b: int, c: int, p: int, j: int) -> int:
    """Form count for a four-point cover, between 0 and 2."""
    return _h0((a, b, c, -(a + b + c)), p, j)


def eigen_rank_degree_fcurve(
    a: int, b: int, c: int, d: int, p: int, j: int
) -> tuple[int, Fraction]:
    """Rank and degree of the weight-j eigenbundle on a four-tail family
    whose tails carry total branch weights a, b, c, d.

    The rank is the fiberwise form count.  The degree is nonzero only in
    the balanced case, all four scaled residues positive with sum 2p, and
    then equals the smallest of the eight residues <aj>, <-aj>, ..., <-dj>
    divided by p.  Both depend only on the scaled residues and p, so they
    come from a bounded cache keyed by those: one ``Fraction`` per class.
    """
    _check_degree(p)
    if (a + b + c + d) % p:
        raise ValueError(f"tail weights {(a, b, c, d)} do not sum to 0 mod {p}")
    if not 0 <= j < p:
        raise ValueError(f"character must lie in 0..{p - 1}, got {j}")
    return _rank_degree(a * j % p, b * j % p, c * j % p, d * j % p, p)


# 1024 entries hold every key with p <= 7: p³ per p, 783 in all
@lru_cache(maxsize=1024)
def _rank_degree(ra: int, rb: int, rc: int, rd: int, p: int) -> tuple[int, Fraction]:
    rs = (ra, rb, rc, rd)
    rank = _h0_from_residues(rs, p)
    if all(rs) and sum(rs) == 2 * p:
        return rank, Fraction(min(min(rs), p - max(rs)), p)
    return rank, Fraction(0)
