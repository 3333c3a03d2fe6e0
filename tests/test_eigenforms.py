import re
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fcone.covers import WeightData, eigen_det_class
from fcone.eigenforms import (
    BranchData,
    eigen_rank_degree_fcurve,
    h0_weight_3pt,
    h0_weight_4pt,
)
from fcone.moduli import SymFCurve, full_pairing, standard_full_fcurve

from oracles import oracle_h0


def total_genus(weights, p):
    """Sum of the genera of the components of y^p = prod (x-x_i)^{w_i}.

    A common factor d of p and all weights splits the cover into d copies
    of the reduced cover; otherwise Riemann-Hurwitz applies directly.
    """
    d = gcd(p, *weights)
    if d > 1:
        return d * total_genus([w // d for w in weights], p // d)
    if p == 1:
        return 0
    chi = 2 * p - sum(p - gcd(w, p) for w in weights)
    return 1 - chi // 2


def test_branch_data_validation():
    b = BranchData((5, 1, 3), 3)
    assert b.weights == (2, 1, 0)  # reduced mod p
    with pytest.raises(ValueError):
        BranchData((1, 1), 3)
    with pytest.raises(ValueError):
        BranchData((1, 1, 2), 3)
    with pytest.raises(ValueError):
        BranchData((1, 1, 1), 3, j=3)
    with pytest.raises(ValueError):
        BranchData((1, 1, 1), 1)


def test_branch_data_complete():
    b = BranchData.complete((1, 1), 3, j=1)
    assert b.weights == (1, 1, 1)
    assert BranchData.complete((1, 1, 1), 4).weights == (1, 1, 1, 1)
    assert BranchData.complete((2, 2), 4).weights == (2, 2, 0)


def test_three_point_counts():
    assert h0_weight_3pt(1, 1, 3, 1) == 1
    assert h0_weight_3pt(1, 1, 3, 2) == 0
    assert h0_weight_3pt(3, 1, 3, 1) == 0
    # j = 0 is the invariant summand, pulled back from the line
    assert all(h0_weight_3pt(a, b, 5, 0) == 0 for a in range(5) for b in range(5))


def test_four_point_counts():
    assert h0_weight_4pt(1, 1, 1, 4, 1) == 2
    assert h0_weight_4pt(1, 1, 1, 2, 1) == 1
    assert h0_weight_4pt(3, 3, 3, 4, 1) == 0


def test_count_bounds():
    for p in range(2, 7):
        for a, b, j in product(range(p), range(p), range(p)):
            assert 0 <= h0_weight_3pt(a, b, p, j) <= 1
        for a, b, c, j in product(range(p), range(p), range(p), range(p)):
            assert 0 <= h0_weight_4pt(a, b, c, p, j) <= 2


def test_oracle_examples():
    assert oracle_h0((1, 1), 2, 1) == 0  # rational double cover, two branch points
    assert oracle_h0((1, 1, 1), 2, 1) == 1  # elliptic double cover
    assert oracle_h0((1, 1), 3, 1) == 1
    with pytest.raises(ValueError):
        oracle_h0((1,), 3, 1)
    with pytest.raises(ValueError):
        oracle_h0((1, 1), 1, 0)


def test_three_point_counts_match_oracle():
    for p in range(2, 8):
        for a, b, j in product(range(p), range(p), range(p)):
            assert h0_weight_3pt(a, b, p, j) == oracle_h0((a, b), p, j), (a, b, p, j)


def test_four_point_counts_match_oracle():
    for p in range(2, 7):
        for a, b, c, j in product(range(p), range(p), range(p), range(p)):
            assert h0_weight_4pt(a, b, c, p, j) == oracle_h0((a, b, c), p, j), (a, b, c, p, j)


def test_rank_sums_to_total_genus():
    for p in range(2, 7):
        for a, b in product(range(p), range(p)):
            weights = (a, b, (-a - b) % p)
            forms = sum(BranchData(weights, p, j).h0() for j in range(p))
            assert forms == total_genus(weights, p), (weights, p)
        for a, b, c in product(range(p), range(p), range(p)):
            weights = (a, b, c, (-a - b - c) % p)
            forms = sum(BranchData(weights, p, j).h0() for j in range(p))
            assert forms == total_genus(weights, p), (weights, p)


branch_strategy = st.integers(2, 11).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(0, p - 1), min_size=2, max_size=3),
        st.integers(0, p - 1),
    )
)


@given(branch_strategy)
def test_count_is_permutation_invariant(case):
    p, partial, j = case
    b = BranchData.complete(partial, p, j)
    base = b.h0()
    ws = list(b.weights)
    for rotated in (ws[1:] + ws[:1], list(reversed(ws))):
        assert BranchData(tuple(rotated), p, j).h0() == base


@given(branch_strategy)
def test_character_reflection_sums_counts(case):
    p, partial, j = case
    if j == 0:
        j = 1
    b = BranchData.complete(partial, p, j)
    mirror = BranchData(b.weights, p, (p - j) % p)
    nonzero = sum(1 for r in b.residues() if r)
    assert b.h0() + mirror.h0() == max(0, nonzero - 2)


def test_eigen_rank_degree_examples():
    assert eigen_rank_degree_fcurve(1, 1, 1, 1, 2, 1) == (1, Fraction(1, 2))
    assert eigen_rank_degree_fcurve(1, 1, 1, 1, 4, 1) == (2, Fraction(0))
    assert eigen_rank_degree_fcurve(2, 2, 1, 1, 3, 1) == (1, Fraction(1, 3))
    assert eigen_rank_degree_fcurve(2, 2, 1, 1, 3, 0) == (0, Fraction(0))


def test_eigen_rank_matches_oracle():
    # the rank that fcone eigenrank prints, on every tail weight grid point
    for p in range(2, 8):
        for a, b, c, j in product(range(p), repeat=4):
            d = -(a + b + c) % p
            rank, _ = eigen_rank_degree_fcurve(a, b, c, d, p, j)
            assert rank == oracle_h0((a, b, c), p, j), (a, b, c, d, p, j)


def test_eigen_rank_degree_validation():
    with pytest.raises(ValueError):
        eigen_rank_degree_fcurve(1, 1, 1, 1, 3, 1)
    with pytest.raises(ValueError):
        eigen_rank_degree_fcurve(1, 1, 1, 1, 2, 2)
    with pytest.raises(ValueError):
        eigen_rank_degree_fcurve(1, 1, 1, 1, 1, 0)


@pytest.mark.parametrize("valid, invalid, message", [
    ((1, 0, 0, 3, 4, 2), (1, 0, 0, 1, 4, 2), "tail weights (1, 0, 0, 1) do not sum to 0 mod 4"),
    ((1, 1, 1, 1, 2, 1), (1, 1, 1, 1, 2, 3), "character must lie in 0..1, got 3"),
    ((1, 1, 1, 1, 2, 1), (1, 1, 1, 1, 1, 0), "cover degree must be at least 2, got 1"),
])
def test_eigen_input_checks_run_before_the_residue_lookup(valid, invalid, message):
    # the first two invalid calls scale to the residues of their valid
    # partners, so a check moved behind the lookup would let them through
    eigen_rank_degree_fcurve(*valid)
    with pytest.raises(ValueError, match=re.escape(message)):
        eigen_rank_degree_fcurve(*invalid)


@st.composite
def tails_and_characters(draw):
    p = draw(st.integers(2, 60))
    a, b, c = draw(st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=3))
    d = draw(st.integers(-10**6 // p, 10**6 // p)) * p - (a + b + c) % p
    return a, b, c, d, p, draw(st.integers(0, p - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(tails_and_characters(), min_size=1, max_size=4))
def test_eigen_rank_degree_matches_the_closed_form(cases):
    # a draw may repeat its residues, so later calls hit the lookup
    for a, b, c, d, p, j in [*cases, *cases]:
        rs = [x * j % p for x in (a, b, c, d)]
        rank = max(0, sum(1 for r in rs if r) - 1 - sum(rs) // p)
        balanced = all(rs) and sum(rs) == 2 * p
        degree = Fraction(min(*rs, *(p - r for r in rs)), p) if balanced else 0
        assert eigen_rank_degree_fcurve(a, b, c, d, p, j) == (rank, degree)


def test_eigen_degree_is_one_fraction_per_residue_class():
    first = eigen_rank_degree_fcurve(1, 1, 2, 2, 3, 1)
    again = eigen_rank_degree_fcurve(4, -2, 5, 2, 3, 1)
    assert first == again == (1, Fraction(1, 3))
    assert first[1] is again[1]


def test_degree_bounds_and_rank_link():
    for p in range(2, 8):
        for a, b, c in product(range(1, p + 1), repeat=3):
            d = (-a - b - c) % p or p
            for j in range(p):
                rank, deg = eigen_rank_degree_fcurve(a, b, c, d, p, j)
                assert 0 <= deg <= Fraction(1, 2)
                if deg > 0:
                    assert rank == 1


def test_degree_matches_class_pairing():
    # the combinatorial degree equals the intersection number of the
    # eigenbundle determinant with the matching four-block curve
    for n, p in ((8, 2), (8, 4), (9, 3), (10, 5)):
        w = WeightData((1,) * n, p)
        for f in (SymFCurve((n - 3, 1, 1, 1)), SymFCurve((n - 5, 2, 2, 1))):
            curve = standard_full_fcurve(f)
            a, b, c, d = f.parts
            for j in range(1, p):
                _, deg = eigen_rank_degree_fcurve(a, b, c, d, p, j)
                assert full_pairing(eigen_det_class(w, j), curve) == deg
