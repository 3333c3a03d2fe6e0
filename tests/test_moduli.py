import copy
import gc
import itertools
import operator
import pickle
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fcone import exactlin, moduli
from fcone.cones import ConeH, _cleared_signs, contains
from fcone.covers import WeightData, eigen_det_class, hodge_class
from fcone.exactlin import _scan, dot, primitive
from fcone.moduli import (
    FullDivisor,
    FullFCurve,
    SymDivisor,
    SymFCurve,
    canonical_side,
    delta_range,
    enumerate_sym_fcurves,
    fcurve_certificate,
    fcurve_class_vector,
    format_divisor,
    full_pairing,
    parse_divisor,
    proportional,
    psi_expand,
    standard_full_fcurve,
    sym_divisor_from_vector,
    sym_pairing,
    symmetrize,
    tk_pairing,
    zero_and_negative_fcurves,
)
from fcone.tables import _t3_curve_blocks, fcone_rays, triple_cover_divisor

from oracles import enumerate_full_fcurves, reference_rank

# the n=10 coordinate table, D2..D5 per curve type
N10_TABLE = {
    (7, 1, 1, 1): (3, -1, 0, 0),
    (6, 2, 1, 1): (0, 2, -1, 0),
    (5, 3, 1, 1): (1, -1, 2, -1),
    (5, 2, 2, 1): (-2, 2, 1, -1),
    (4, 4, 1, 1): (1, 0, -2, 2),
    (4, 3, 2, 1): (-1, 0, 0, 1),
    (4, 2, 2, 2): (-3, 0, 2, 0),
    (3, 3, 3, 1): (0, -3, 3, 0),
    (3, 3, 2, 2): (-2, -2, 1, 2),
}

PSI_EXPANSIONS = {
    6: ("8/5", "9/5"),
    7: ("5/3", "2"),
    8: ("12/7", "15/7", "16/7"),
    9: ("7/4", "9/4", "5/2"),
    10: ("16/9", "7/3", "8/3", "25/9"),
    15: ("13/7", "18/7", "22/7", "25/7", "27/7", "4"),
}


def sym_to_full(d: SymDivisor) -> FullDivisor:
    """Spread a symmetric class evenly over markings and boundary classes."""
    n = d.n
    delta = {}
    for size in range(2, n - 1):
        from itertools import combinations

        for side in combinations(range(1, n), size):
            delta[frozenset(side)] = d.delta(min(size, n - size))
    return FullDivisor(n, (d.psi,) * n, delta)


def test_delta_range():
    assert list(delta_range(6)) == [2, 3]
    assert list(delta_range(7)) == [2, 3]
    assert list(delta_range(10)) == [2, 3, 4, 5]


def test_sym_divisor_validation():
    with pytest.raises(ValueError):
        SymDivisor(3)
    with pytest.raises(ValueError):
        SymDivisor(6, 0, {4: 1})
    d = SymDivisor(6, 1, {2: "1/2"})
    with pytest.raises(AttributeError):
        d.psi = 2
    with pytest.raises(ValueError):
        d.delta(9)
    # the arithmetic and == of a class against a number are NotImplemented
    with pytest.raises(TypeError):
        SymDivisor(6) + 1
    assert (SymDivisor(6) == 0) is False


def test_psi_identity_defines_equality():
    # (n-1) psi and sum k(n-k) Delta_k are the same class
    for n in range(4, 13):
        lhs = SymDivisor(n, n - 1)
        rhs = SymDivisor(n, 0, {k: k * (n - k) for k in delta_range(n)})
        assert lhs == rhs
        assert (lhs - rhs).is_zero()
        assert hash(lhs) == hash(rhs)


def test_psi_expansions():
    for n, expected in PSI_EXPANSIONS.items():
        got = psi_expand(SymDivisor(n, 1)).delta_vector()
        assert got == tuple(Fraction(x) for x in expected)
    d = SymDivisor(8, 0, {3: 2})
    assert psi_expand(d) is d


def test_sym_divisor_arithmetic():
    a = SymDivisor(8, 1, {2: 3, 4: "1/2"})
    b = SymDivisor(8, "2/3", {3: -1})
    assert a + b - b == a
    assert 2 * a == a + a
    assert (a - a).is_zero()
    assert -a == -1 * a
    with pytest.raises(ValueError):
        a + SymDivisor(6, 1)


def test_sym_divisor_from_vector():
    d = sym_divisor_from_vector(10, (1, 3, 6, 10))
    assert d.psi == 0 and d.delta(5) == 10
    with pytest.raises(ValueError):
        sym_divisor_from_vector(10, (1, 2, 3))


def test_fcurve_type_normalization():
    f = SymFCurve((1, 2, 8, 1))
    assert f.parts == (8, 2, 1, 1)
    assert f.n == 12
    assert str(f) == "F_{8,2,1,1}"
    with pytest.raises(ValueError):
        SymFCurve((0, 1, 1, 2))
    with pytest.raises(ValueError):
        SymFCurve((1, 1, 1))


def test_enumerate_sym_fcurves_counts_and_order():
    assert [len(enumerate_sym_fcurves(n)) for n in range(5, 11)] == [1, 2, 3, 5, 6, 9]
    tens = [f.parts for f in enumerate_sym_fcurves(10)]
    assert tens == sorted(N10_TABLE, reverse=True)


def four_part_partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition of n into four parts, descending, by brute force: each
    multiset of three parts with the rest as the fourth, then one sort."""
    return sorted({tuple(sorted((n - sum(p), *p), reverse=True))
                   for p in itertools.combinations_with_replacement(range(1, n), 3)
                   if sum(p) < n}, reverse=True)


@pytest.mark.parametrize("n", range(4, 81))
def test_generated_parts_are_the_sorted_four_part_partitions(n):
    assert moduli._fcurves(n)[0].rows == four_part_partitions(n)
    assert [f.parts for f in enumerate_sym_fcurves(n)] == four_part_partitions(n)


def test_table_curves_are_made_once_and_kept():
    d = triple_cover_divisor(24)
    zero, _ = zero_and_negative_fcurves(d)
    again, _ = zero_and_negative_fcurves(d)
    assert all(map(operator.is_, zero, again))
    by_parts = {f.parts: f for f in enumerate_sym_fcurves(24)}
    assert all(by_parts[f.parts] is f for f in zero)


def test_sym_fcurve_is_immutable_and_rebuilt_equal():
    f = enumerate_sym_fcurves(12)[3]
    with pytest.raises(AttributeError):
        f.parts = (9, 1, 1, 1)
    with pytest.raises(AttributeError):
        f.missing
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and hash(copied) == hash(f) and str(copied) == str(f)
    assert repr(f) == f"SymFCurve(parts={f.parts!r})" and f != f.parts


def test_fcurve_class_vectors_n10():
    for parts, expected in N10_TABLE.items():
        vec = fcurve_class_vector(SymFCurve(parts))
        assert vec == tuple(Fraction(x) for x in expected)


def test_psi_minus_delta_has_degree_one_on_every_fcurve():
    for n in range(5, 14):
        d = SymDivisor(n, 1, {k: -1 for k in delta_range(n)})
        for f in enumerate_sym_fcurves(n):
            assert sym_pairing(d, f) == 1
    with pytest.raises(ValueError, match="^divisor lives on n=6, curve on n=7$"):
        sym_pairing(SymDivisor(6, 1), enumerate_sym_fcurves(7)[0])


def test_tk_pairing_table():
    n = 12
    for k in range(3, n // 2 + 1):
        dk = SymDivisor(n, 0, {k: 1})
        assert tk_pairing(dk, k) == 2 - k
        assert tk_pairing(SymDivisor(n, 0, {k - 1: 1}), k) == k
        for m in delta_range(n):
            if m not in (k, k - 1):
                assert tk_pairing(SymDivisor(n, 0, {m: 1}), k) == 0
    with pytest.raises(ValueError):
        tk_pairing(SymDivisor(12, 1), 2)
    with pytest.raises(ValueError):
        tk_pairing(SymDivisor(12, 1), 7)
    for n in (4, 5):
        for k in (2, 3):
            with pytest.raises(ValueError, match="^no test curve T_k exists below n = 6"):
                tk_pairing(SymDivisor(n, 1), k)


def test_proportional():
    a = sym_divisor_from_vector(6, (2, 1))
    assert proportional(3 * a, a) == 3
    assert proportional(a, 3 * a) == Fraction(1, 3)
    assert proportional(-1 * a, a) is None
    assert proportional(a, sym_divisor_from_vector(6, (1, 3))) is None
    zero = SymDivisor(6)
    assert proportional(zero, zero) == 1
    assert proportional(a, zero) is None
    assert proportional(zero, a) is None
    with pytest.raises(ValueError, match="^cannot compare divisors with different n$"):
        proportional(a, SymDivisor(7, 1))


def test_canonical_side():
    assert canonical_side({1, 2}, 6) == frozenset({1, 2})
    # the side containing the last marking is replaced by its complement
    assert canonical_side({4, 5, 6}, 6) == frozenset({1, 2, 3})
    with pytest.raises(ValueError):
        canonical_side({1}, 6)
    with pytest.raises(ValueError):
        canonical_side({1, 7}, 6)


def test_full_divisor_boundary_keys_merge():
    d = FullDivisor(6, (), {frozenset({1, 2}): 1, frozenset({3, 4, 5, 6}): 2})
    assert d.delta({1, 2}) == 3
    assert d.delta({3, 4}) == 0


def test_full_divisor_validation_and_equality():
    with pytest.raises(ValueError, match="^need 4 psi-coefficients, got 2$"):
        FullDivisor(4, [1, 2])
    assert (FullDivisor(4) == 0) is False
    # one layout: a different ψ, or a different denominator, is another class
    psi1 = FullDivisor(6, (1, 0, 0, 0, 0, 0))
    assert psi1 != FullDivisor(6, (0, 1, 0, 0, 0, 0))
    assert psi1._layout is FullDivisor(6)._layout
    assert FullDivisor(6, (), {(1, 2): "1/2"}) != FullDivisor(6, (), {(1, 2): 1})


class Pairs:
    """A stand-in for a mapping whose keys need not be hashable."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return iter(self.pairs)


def side_order(item) -> tuple:
    """Sort key of a (side, coefficient) pair in FullDivisor's side order."""
    return len(item[0]), sorted(item[0])


@pytest.mark.parametrize("form", [list, tuple, set, frozenset])
def test_full_divisor_accepts_any_side_form(form):
    n = 6
    pairs = [
        ({4, 5, 6}, Fraction(1, 2)),  # the complement of {1, 2, 3}
        ({1, 2}, 1),
        ({3, 4, 5, 6}, Fraction(2)),  # adds up with {1, 2}
        ({1, 3}, Fraction(-1, 3)),
        ({2, 4, 5, 6}, Fraction(1, 3)),  # cancels {1, 3}
        ({1, 2, 3}, Fraction(1, 4)),
        ({2, 6}, "5/7"),
    ]
    expected = {}
    for side, c in pairs:
        key = canonical_side(side, n)
        expected[key] = expected.get(key, 0) + Fraction(c)
    # delta_map lists sides in canonical order: by size, then lexicographic
    expected = sorted(((k, c) for k, c in expected.items() if c), key=side_order)
    d = FullDivisor(n, (), Pairs([(form(sorted(side)), c) for side, c in pairs]))
    assert list(d.delta_map().items()) == expected
    assert d.delta({1, 2}) == 3
    assert d.delta({1, 2, 3}) == Fraction(3, 4)
    assert d.delta({1, 3}) == 0
    assert all(type(k) is frozenset and type(c) is Fraction for k, c in d.delta_map().items())


@pytest.mark.parametrize("side", [
    frozenset({2}),  # size 1
    frozenset({6}),  # size 1, holding n
    frozenset({1, 2, 3, 4, 5}),  # size n−1 without n
    frozenset({0, 1, 2}),  # marking 0
    frozenset({1, 7}),  # marking n+1
    frozenset({1, 2, 7}),  # marking n+1 beside valid ones
])
def test_full_divisor_rejects_bad_frozenset_sides(side):
    with pytest.raises(ValueError):
        FullDivisor(6, (), {side: 1})


def test_full_divisor_json_roundtrip():
    d = FullDivisor(6, (1, 0, "1/2", 0, 0, 0), {frozenset({1, 2}): "2/3"})
    assert FullDivisor.from_json(d.to_json()) == d


def copied_classes() -> list:
    """Classes of both kinds: on singleton blocks and on a cover's weight
    blocks, each with its average and class vector kept, and a ψ-class."""
    w = eigen_det_class(WeightData((1, 1, 2, 2, 3, 3), 4), 1)
    full = FullDivisor(6, (1, 0, "1/2", 0, 0, 0), {frozenset({1, 2}): "2/3"})
    for d in (w, full):
        symmetrize(d).class_vector()
    return [w, full, symmetrize(w), symmetrize(full), hodge_class(12, 3)]


@pytest.mark.parametrize("i", range(5), ids=["eigen", "public", "eigen-sym", "public-sym", "hodge"])
@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda d: pickle.loads(pickle.dumps(d))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_rebuild_an_equal_class(i, copier):
    d = copied_classes()[i]
    c = copier(d)
    assert type(c) is type(d)
    assert (c == d, hash(c), repr(c)) == (True, hash(d), repr(d))
    # what a class keeps is made again on first use
    assert getattr(c, "_sym", None) is None and getattr(c, "_vector", None) is None
    if isinstance(d, FullDivisor):
        assert c._layout.blocks == d._layout.blocks and c.to_json() == d.to_json()
        assert symmetrize(c) == symmetrize(d)
    else:
        assert c.class_vector() == d.class_vector() and format_divisor(c) == format_divisor(d)


def test_enumerate_full_fcurves_counts():
    # Stirling numbers of the second kind S(n, 4)
    assert len(enumerate_full_fcurves(5)) == 10
    assert len(enumerate_full_fcurves(6)) == 65
    assert len(enumerate_full_fcurves(7)) == 350
    for f in enumerate_full_fcurves(6):
        assert f.n == 6
        assert sum(f.sym_type().parts) == 6


def test_full_fcurve_validation():
    with pytest.raises(ValueError):
        FullFCurve((frozenset({1}), frozenset({2}), frozenset({3}), frozenset({3, 4})))
    with pytest.raises(ValueError):
        FullFCurve((frozenset({1}), frozenset({2}), frozenset({3}), frozenset({5})))
    # the blocks are checked before they are sorted by their least marking
    for blocks in [({1}, {2}, {3}, set()), ({1, 2}, {3}, {4})]:
        with pytest.raises(ValueError, match="^F-curve needs 4 nonempty blocks$"):
            FullFCurve(tuple(map(frozenset, blocks)))


def test_standard_full_fcurve_blocks():
    f = standard_full_fcurve(SymFCurve((3, 2, 2, 1)))
    assert f.blocks == (
        frozenset({1, 2, 3}),
        frozenset({4, 5}),
        frozenset({6, 7}),
        frozenset({8}),
    )
    assert f.sym_type() == SymFCurve((3, 2, 2, 1))
    # one curve per type, however the parts are listed
    again = standard_full_fcurve(SymFCurve((1, 2, 3, 2)))
    assert again == f and again.blocks == f.blocks and again._terms == f._terms


def test_full_fcurves_build_no_per_n_side_table(monkeypatch):
    # a curve holds its own side masks: at n = 40 a table over the 2^39 sides
    # could not be built, so every per-n side table is made to fail here
    def no_table(n):
        raise AssertionError(f"a per-n side table was built for n={n}")

    for name in ("_sides",):
        monkeypatch.setattr(moduli, name, no_table)
    blocks = (frozenset(range(1, 38)), frozenset({38}), frozenset({39}), frozenset({40}))
    curve = FullFCurve(blocks)
    assert curve.n == 40 and curve.sym_type() == SymFCurve((37, 1, 1, 1))
    assert standard_full_fcurve(SymFCurve((37, 1, 1, 1))) == curve


def test_full_pairing_rules():
    blocks = (frozenset({1}), frozenset({2}), frozenset({3, 4}), frozenset({5, 6}))
    f = FullFCurve(blocks)
    psi1 = FullDivisor(6, (1, 0, 0, 0, 0, 0))
    psi3 = FullDivisor(6, (0, 0, 1, 0, 0, 0))
    assert full_pairing(psi1, f) == 1  # {1} is a block
    assert full_pairing(psi3, f) == 0  # 3 sits in a 2-element block
    two_blocks = FullDivisor(6, (), {frozenset({1, 2}): 1})
    one_block = FullDivisor(6, (), {frozenset({3, 4}): 1})
    crossing = FullDivisor(6, (), {frozenset({1, 3}): 1})
    assert full_pairing(two_blocks, f) == 1
    assert full_pairing(one_block, f) == -1
    assert full_pairing(crossing, f) == 0
    with pytest.raises(ValueError, match="^divisor lives on n=7, curve on n=6$"):
        full_pairing(FullDivisor(7), f)


def test_full_pairing_matches_symmetric_pairing():
    # a divisor spread evenly over the markings pairs identically with
    # every realization of a given curve type
    rng = random.Random(5)
    n = 8
    realizations = enumerate_full_fcurves(n)
    for _ in range(5):
        vec = [rng.randint(-4, 4) for _ in delta_range(n)]
        d = sym_divisor_from_vector(n, vec)
        full = sym_to_full(d)
        for f in enumerate_sym_fcurves(n):
            expected = sym_pairing(d, f)
            matching = [g for g in realizations if g.sym_type() == f]
            sample = rng.sample(matching, min(3, len(matching)))
            sample.append(standard_full_fcurve(f))
            for g in sample:
                assert full_pairing(full, g) == expected


def test_symmetrize_closed_form():
    d = FullDivisor(6, (), {frozenset({1, 2}): 1})
    s = symmetrize(d)
    assert s.delta(2) == Fraction(1, 15)  # 15 classes of side size 2
    d = FullDivisor(6, (), {frozenset({1, 2, 3}): 1})
    assert symmetrize(d).delta(3) == Fraction(1, 10)  # 20 sides, 10 classes
    d = FullDivisor(6, (2, 0, 0, 0, 0, 4))
    assert symmetrize(d).psi == 1


def test_symmetrize_inverts_even_spreading():
    d = SymDivisor(9, "1/3", {2: 1, 4: "-5/7"})
    assert symmetrize(sym_to_full(d)) == d


def test_parse_divisor_examples():
    d = parse_divisor("2*psi - 2*D2 - 3*D3", 6)
    assert d.psi == 2 and d.delta(2) == -2 and d.delta(3) == -3
    assert parse_divisor("0", 6).is_zero()
    assert parse_divisor("-D2 + D2", 6).is_zero()
    assert parse_divisor("1/2*psi", 6).psi == Fraction(1, 2)
    assert parse_divisor("D2", 6).delta(2) == 1


def test_parse_divisor_rejects_garbage():
    for text in ("", "2*D9", "psi + + D2", "psi 3*D2", "2*psi + 1", "D2 -"):
        with pytest.raises(ValueError):
            parse_divisor(text, 6)


@pytest.mark.parametrize("text,message", [
    ("", "empty divisor literal"),
    ("2*D9", "D9 is not a basis class for n=6"),
    ("D1", "D1 is not a basis class for n=6"),
    ("psi + + D2", "two consecutive signs in divisor literal 'psi + + D2'"),
    ("psi 3*D2", "malformed rational literal 'psi 3*D2'"),
    ("2*psi + 1", "constant term '1' is not a divisor"),
    ("D2 -", "dangling sign in divisor literal 'D2 -'"),
    ("1/0*psi", "malformed rational literal '1/0'"),
    ("0/0*D2", "malformed rational literal '0/0'"),
])
def test_parse_divisor_error_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_divisor(text, 6)
    assert str(info.value) == message


@st.composite
def divisor_literals(draw):
    """(n, literal, ψ, {k: Δ_k}): a literal with repeated symbols, unreduced
    and zero coefficients, leading zeros, zero constants and terms in any
    order, with its ψ and Δ_k sums taken term by term in Fractions."""
    n = draw(st.integers(4, 20))
    syms = ["psi", *(f"D{k}" for k in delta_range(n))]
    psi, delta = Fraction(0), {k: Fraction(0) for k in delta_range(n)}
    parts = []
    for i in range(draw(st.integers(1, 12))):
        sign = draw(st.sampled_from(["-", "+", ""] if i == 0 else ["-", "+"]))
        zeros = "0" * draw(st.integers(0, 2))
        num, den = draw(st.integers(0, 40)), draw(st.integers(1, 12))
        if draw(st.integers(0, 9)) == 0:
            parts.append(f"{sign} {zeros}0/{den}")
            continue
        sym = draw(st.sampled_from(syms))
        written = draw(st.sampled_from(["", f"{zeros}{num}*", f"{zeros}{num}/{zeros}{den} * "]))
        c = Fraction(num, den if "/" in written else 1) if written else Fraction(1)
        c = -c if sign == "-" else c
        if sym == "psi":
            psi += c
        else:
            delta[int(sym[1:])] += c
        parts.append(f"{sign} {written}{sym}")
    return n, " ".join(parts), psi, delta


@example((6, "-002/4*D2 + 1/2 * D2 + 0*psi + 03/06*psi - 00/5", Fraction(1, 2),
          {2: Fraction(0), 3: Fraction(0)}))
@given(divisor_literals())
def test_parse_divisor_matches_fraction_sums(case):
    n, text, psi, delta = case
    got, fresh = parse_divisor(text, n), SymDivisor(n, psi, delta)
    assert (got._psi, got._delta, got._den) == (fresh._psi, fresh._delta, fresh._den)
    assert got._expanded == fresh._expanded


def test_format_divisor_examples():
    assert format_divisor(SymDivisor(6)) == "0"
    d = SymDivisor(6, 0, {2: Fraction(2, 15), 3: Fraction(6, 15)})
    assert format_divisor(d) == "2/15*D2 + 6/15*D3"
    d = SymDivisor(6, Fraction(3, 2), {2: -2})
    assert format_divisor(d) == "3/2*psi - 4/2*D2"


divisor_strategy = st.builds(
    lambda n, psi, coeffs: SymDivisor(
        n, psi, dict(zip(delta_range(n), coeffs))
    ),
    st.integers(5, 12),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=8),
        min_size=6,
        max_size=6,
    ),
)


@given(divisor_strategy)
def test_format_parse_roundtrip(d):
    assert parse_divisor(format_divisor(d), d.n) == d


@given(divisor_strategy, st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=7))
def test_proportional_recovers_scale(d, c):
    if not d.is_zero():
        assert proportional(c * d, d) == c


def full_pairing_by_scan(d: FullDivisor, f: FullFCurve) -> Fraction:
    """Oracle for full_pairing: classify every boundary class of d against f."""
    total = Fraction(0)
    for block in f.blocks:
        if len(block) == 1:
            (i,) = block
            total += d.psi[i - 1]
    for side, c in d.delta_map().items():
        covered = []
        saturated = True
        for block in f.blocks:
            if block <= side:
                covered.append(block)
            elif block & side:
                saturated = False
                break
        if not saturated:
            continue
        if len(covered) == 2:
            total += c
        elif len(covered) in (1, 3):
            total -= c
    return total


def symmetrize_by_sum(d: FullDivisor) -> SymDivisor:
    """Oracle for symmetrize: one Fraction sum per boundary class."""
    n = d.n
    sums = {}
    for side, c in d.delta_map().items():
        k = min(len(side), n - len(side))
        sums[k] = sums.get(k, Fraction(0)) + c
    # at k = n/2 each class has two sides of size k
    classes = {k: comb(n, k) // (2 if 2 * k == n else 1) for k in sums}
    return SymDivisor(
        n, sum(d.psi, Fraction(0)) / n, {k: total / classes[k] for k, total in sums.items()}
    )


mixed_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@st.composite
def full_divisors(draw, n_values=st.integers(4, 8), half_sides=False):
    n = draw(n_values)
    # any side of size 2..n−2, holding n or not
    sides = st.frozensets(st.integers(1, n), min_size=2, max_size=n - 2)
    delta = draw(st.dictionaries(sides, mixed_rationals, max_size=16))
    if half_sides:
        halves = st.frozensets(st.integers(1, n), min_size=n // 2, max_size=n // 2)
        delta.update(draw(st.dictionaries(halves, mixed_rationals, min_size=1, max_size=8)))
    psi = draw(st.lists(mixed_rationals, min_size=n, max_size=n))
    return FullDivisor(n, psi, delta)


@cache
def all_full_fcurves(n: int) -> list[FullFCurve]:
    return enumerate_full_fcurves(n)


@settings(max_examples=60, deadline=None)
@given(full_divisors())
def test_full_pairing_matches_the_all_sides_scan(d):
    for f in all_full_fcurves(d.n):
        assert full_pairing(d, f) == full_pairing_by_scan(d, f)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    full_divisors(n_values=st.integers(4, 11)),
    full_divisors(n_values=st.sampled_from([4, 6, 8, 10]), half_sides=True),
))
# the sides of size 2 cancel, yet Δ_2 is listed before Δ_3 (size 4 has k = 2)
@example(FullDivisor(6, (), {(1, 2): 1, (1, 3): -1, (1, 2, 3): 1, (1, 2, 3, 4): 1}))
def test_symmetrize_matches_the_per_side_sum(d):
    got, expected = symmetrize(d), symmetrize_by_sum(d)
    assert got.psi == expected.psi
    assert list(got.delta_map().items()) == list(expected.delta_map().items())


def combine_by_side(n: int, *terms) -> tuple[tuple, dict]:
    """Oracle for +, - and scalar *: Σ c·d as (ψ, Δ by side), one Fraction per
    side, sides by size, then lexicographic, zero coefficients dropped."""
    psi = [Fraction(0)] * n
    delta = {}
    for c, d in terms:
        psi = [x + c * y for x, y in zip(psi, d.psi)]
        for side, v in d.delta_map().items():
            delta[side] = delta.get(side, 0) + c * v
    return tuple(psi), dict(sorted(((side, v) for side, v in delta.items() if v), key=side_order))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_full_arithmetic_matches_the_per_side_oracle(data):
    d = data.draw(full_divisors())
    e = data.draw(full_divisors(n_values=st.just(d.n)))
    c = data.draw(mixed_rationals)
    cases = [(d + e, [(1, d), (1, e)]), (d - e, [(1, d), (-1, e)]), (-d, [(-1, d)])]
    for scalar in (c, 0, Fraction(-3, 7), Fraction(5, 12)):
        cases += [(scalar * d, [(scalar, d)]), (e * scalar, [(scalar, e)])]
    for got, terms in cases:
        psi, delta = combine_by_side(d.n, *terms)
        assert got.psi == psi
        assert list(got.delta_map().items()) == list(delta.items())
        assert got.is_zero() == (not delta and not any(psi))
        again = FullDivisor(d.n, psi, delta)
        assert got == again and hash(got) == hash(again)
    assert (d - d).is_zero() and (d + (-1) * d).is_zero() and d - d == FullDivisor(d.n)
    assert (d * 6) * Fraction(1, 6) == d and hash((d * 6) * Fraction(1, 6)) == hash(d)


# ---------------------------------------------------------------------------
# Integer symmetric pairing against dense Fraction oracles.


def dense_fcurve_vector(f: SymFCurve) -> list[Fraction]:
    """Oracle for fcurve_class_vector: the pairing rule over every Δ_k."""
    n = f.n
    coeffs = {k: Fraction(0) for k in delta_range(n)}
    a, b, c, d = f.parts
    for x, y in ((a + b, c + d), (a + c, b + d), (a + d, b + c)):
        coeffs[min(x, y)] += 1
    for v in f.parts:
        if v >= 2:
            coeffs[min(v, n - v)] -= 1
    return [coeffs[k] for k in delta_range(n)]


def dense_class_vector(d: SymDivisor) -> list[Fraction]:
    """Oracle for the pure-Δ expansion: one Fraction sum per Δ_k."""
    n = d.n
    return [d.delta(k) + d.psi * Fraction(k * (n - k), n - 1) for k in delta_range(n)]


def dense_pairing(d: SymDivisor, f: SymFCurve) -> Fraction:
    return sum(
        (x * y for x, y in zip(dense_class_vector(d), dense_fcurve_vector(f))), Fraction(0)
    )


def proportional_by_division(d1: SymDivisor, d2: SymDivisor):
    """Oracle for proportional: divide one dense coordinate, check them all."""
    v1, v2 = dense_class_vector(d1), dense_class_vector(d2)
    if all(x == 0 for x in v2):
        return Fraction(1) if all(x == 0 for x in v1) else None
    i = next(i for i, x in enumerate(v2) if x != 0)
    c = v1[i] / v2[i]
    if c <= 0:
        return None
    return c if all(x == c * y for x, y in zip(v1, v2)) else None


rationals_30 = st.fractions(min_value=-20, max_value=20, max_denominator=30)
# a coefficient is zero about a third of the time, so many classes are sparse
coefficients_30 = st.one_of(st.just(Fraction(0)), rationals_30)


@st.composite
def sym_divisors(draw, n_values=st.integers(4, 24)):
    """Random classes with ψ, among them zero classes: the empty one and
    c·((n−1)ψ − Σ k(n−k)Δ_k), which is zero with nonzero coordinates."""
    n = draw(n_values)
    ks = list(delta_range(n))
    kind = draw(st.sampled_from(["random", "random", "random", "empty", "relation"]))
    if kind == "empty":
        return SymDivisor(n)
    if kind == "relation":
        c = draw(rationals_30)
        return SymDivisor(n, c * (n - 1), {k: -c * k * (n - k) for k in ks})
    coeffs = draw(st.lists(coefficients_30, min_size=len(ks), max_size=len(ks)))
    return SymDivisor(n, draw(coefficients_30), dict(zip(ks, coeffs)))


@settings(max_examples=150, deadline=None)
@given(sym_divisors())
def test_sym_pairing_matches_a_dense_fraction_dot(d):
    for f in enumerate_sym_fcurves(d.n):
        got = sym_pairing(d, f)
        assert type(got) is Fraction
        assert got == dense_pairing(d, f)


@settings(max_examples=150, deadline=None)
@given(sym_divisors())
def test_class_vector_ray_and_zero_test_match_the_dense_expansion(d):
    dense = dense_class_vector(d)
    assert d.class_vector() == tuple(dense)
    assert all(type(x) is Fraction for x in d.class_vector())
    assert d.is_zero() == all(x == 0 for x in dense)
    assert d.ray() == primitive(dense, flip_sign=False)


@settings(max_examples=150, deadline=None)
@given(sym_divisors())
def test_primitive_reads_the_ray_a_class_vector_carries(d):
    for c in (d, -d):
        v = c.class_vector()
        assert v is c.class_vector() and v.ray == c.ray()
        assert primitive(v, flip_sign=False) == c.ray() == primitive(tuple(v), flip_sign=False)
        assert primitive(v) == primitive(tuple(v))


@settings(max_examples=100, deadline=None)
@given(sym_divisors(st.integers(4, 16)), st.data())
def test_sym_divisor_arithmetic_matches_a_fresh_construction(a, data):
    n = a.n
    b = data.draw(sym_divisors(st.just(n)))
    c = data.draw(rationals_30)
    ks = delta_range(n)
    cases = [
        (a + b, a.psi + b.psi, {k: a.delta(k) + b.delta(k) for k in ks}),
        (a - b, a.psi - b.psi, {k: a.delta(k) - b.delta(k) for k in ks}),
        (c * a, c * a.psi, {k: c * a.delta(k) for k in ks}),
        (-a, -a.psi, {k: -a.delta(k) for k in ks}),
    ]
    for got, psi, delta in cases:
        fresh = SymDivisor(n, psi, delta)
        assert got.psi == fresh.psi and got.delta_map() == fresh.delta_map()
        assert got.class_vector() == tuple(dense_class_vector(fresh))
        assert got == fresh and hash(got) == hash(fresh)
        for f in enumerate_sym_fcurves(n):
            assert sym_pairing(got, f) == dense_pairing(fresh, f)


@settings(max_examples=150, deadline=None)
@given(sym_divisors(st.integers(4, 16)), st.data())
def test_proportional_matches_the_division_oracle(d, data):
    other = data.draw(st.one_of(
        sym_divisors(st.just(d.n)),
        rationals_30.map(lambda c: c * d),
    ))
    assert proportional(d, other) == proportional_by_division(d, other)
    assert proportional(other, d) == proportional_by_division(other, d)


def zero_and_negative_by_pairing(d: SymDivisor) -> tuple:
    """Oracle for zero_and_negative_fcurves: one sym_pairing per F-curve."""
    zero, negative = [], []
    for f in enumerate_sym_fcurves(d.n):
        deg = sym_pairing(d, f)
        if deg == 0:
            zero.append(f)
        elif deg < 0:
            negative.append((f, deg))
    return zero, negative


def aligned_with_a_curve(n: int, m: int) -> SymDivisor:
    """m times the signs of the class vector of the first F-curve whose
    terms have the largest absolute sum, up to 7.  The largest numerator is
    |m|, and the degree there is m times that sum: the largest degree a
    packed field of that width must hold."""
    f = max(enumerate_sym_fcurves(n), key=lambda f: sum(map(abs, fcurve_class_vector(f))))
    return sym_divisor_from_vector(n, [m * ((c > 0) - (c < 0)) for c in fcurve_class_vector(f)])


# max|num| = 2^(8w−4) − 1 is the largest numerator with w-byte fields and
# 2^(8w−4) the smallest with w+1; w = 8 and 9 straddle 64 bits
WIDTH_BOUNDARIES = [m for w in (1, 2, 8, 9) for m in (2 ** (8 * w - 4) - 1, 2 ** (8 * w - 4))]


@st.composite
def packed_width_classes(draw):
    """Classes on n = 4..40 with numerators from 0 up to 2^80, many of them
    with lots of degree-zero curves: the zero class and ±1 coefficients."""
    n = draw(st.integers(4, 40))
    ks = list(delta_range(n))
    kind = draw(st.sampled_from(["zero", "units", "units", "wide", "wide", "aligned"]))
    if kind == "zero":
        return SymDivisor(n)
    if kind == "aligned":
        m = draw(st.sampled_from(WIDTH_BOUNDARIES))
        return aligned_with_a_curve(n, draw(st.sampled_from([m, -m])))
    if kind == "units":
        values = st.sampled_from([-1, 0, 0, 1])
    else:
        bits = draw(st.integers(0, 80))
        values = st.integers(-(2 ** bits), 2 ** bits)
    psi = draw(st.one_of(st.just(0), values))
    coeffs = draw(st.lists(values, min_size=len(ks), max_size=len(ks)))
    return SymDivisor(n, psi, dict(zip(ks, coeffs)))


@settings(max_examples=150, deadline=None)
@given(packed_width_classes())
@example(aligned_with_a_curve(24, 2 ** 4 - 1))
@example(aligned_with_a_curve(40, -(2 ** 4 - 1)))
@example(aligned_with_a_curve(24, -(2 ** 4)))
@example(aligned_with_a_curve(40, 2 ** 4))
@example(aligned_with_a_curve(24, 2 ** 12 - 1))
@example(aligned_with_a_curve(40, -(2 ** 12 - 1)))
@example(aligned_with_a_curve(24, -(2 ** 12)))
@example(aligned_with_a_curve(40, 2 ** 12))
@example(aligned_with_a_curve(24, 2 ** 60 - 1))
@example(aligned_with_a_curve(40, -(2 ** 60 - 1)))
@example(aligned_with_a_curve(24, -(2 ** 60)))
@example(aligned_with_a_curve(40, 2 ** 60))
@example(aligned_with_a_curve(24, 2 ** 68 - 1))
@example(aligned_with_a_curve(40, -(2 ** 68 - 1)))
@example(aligned_with_a_curve(24, -(2 ** 68)))
@example(aligned_with_a_curve(40, 2 ** 68))
@example(aligned_with_a_curve(96, -(2 ** 12)) + SymDivisor(96, 0, {2: 1}))
@example(SymDivisor(96, 1, {k: -1 for k in delta_range(96)}))
@example(SymDivisor(96, 1, {k: (-1) ** k * 5 ** k for k in delta_range(96)}))
def test_zero_and_negative_fcurves_match_a_per_curve_oracle(d):
    zero, negative = zero_and_negative_fcurves(d)
    assert (zero, negative) == zero_and_negative_by_pairing(d)
    assert all(type(deg) is Fraction for _, deg in negative)


# rows per packed chunk in the chunk tests below
CHUNK = 5


def straddling_class(n: int) -> SymDivisor:
    """The first class with coordinates in {-1, 0, 1}, drawn from seeds
    0, 1, ..., whose F-curves have zero and negative degrees in both chunks
    at some chunk edge."""
    for seed in itertools.count():
        rng = random.Random(seed)
        d = sym_divisor_from_vector(n, [rng.choice([-1, 0, 0, 1]) for _ in delta_range(n)])
        degrees = [sym_pairing(d, f) for f in enumerate_sym_fcurves(n)]
        sides = [(degrees[e - CHUNK:e], degrees[e:e + CHUNK])
                 for e in range(CHUNK, len(degrees), CHUNK)]
        if any(all(0 in side and min(side) < 0 for side in pair) for pair in sides):
            return d


@pytest.fixture
def small_chunks(monkeypatch):
    """Sign tables packed CHUNK rows a chunk, from an empty F-curve cache."""
    monkeypatch.setattr(exactlin, "_CHUNK", CHUNK)
    monkeypatch.setattr(moduli, "_fcurve_tables", {})


@pytest.mark.parametrize("budget", [moduli._FCURVE_BYTES, 0], ids=["kept", "per-call"])
@pytest.mark.parametrize("n", range(12, 41))
def test_chunked_signs_match_per_curve_oracles(n, budget, small_chunks, monkeypatch):
    monkeypatch.setattr(moduli, "_FCURVE_BYTES", budget)
    d = straddling_class(n)
    # the second call reads the chunks kept, or packs them again
    for _ in range(2):
        assert zero_and_negative_fcurves(d) == zero_and_negative_by_pairing(d)
    assert (n in moduli._fcurve_tables) == (budget > 0)
    cone = ConeH(n // 2 - 1, [fcurve_class_vector(f) for f in enumerate_sym_fcurves(n)])
    v = d.class_vector()
    _, zero, negative = _cleared_signs(cone, v)
    dots = [dot(a, v) for a in cone.normals]
    assert list(map(bool, zero)) == [x == 0 for x in dots]
    assert list(map(bool, negative)) == [x < 0 for x in dots]
    assert not contains(cone, v)
    assert contains(cone, SymDivisor(n, 1, {k: -1 for k in delta_range(n)}).class_vector())


def test_the_chunk_oracle_sees_one_chunk_shifted_by_one_field(small_chunks, monkeypatch):
    # packing each row of the second chunk one field down fails the oracle
    pack, counts = exactlin._pack, []

    def shifted(rows, count, ncols, width):
        counts.append(count)
        rows = list(rows)
        return pack([[], *rows[:-1]] if len(counts) == 2 else rows, count, ncols, width)

    monkeypatch.setattr(exactlin, "_pack", shifted)
    d = straddling_class(24)
    assert zero_and_negative_fcurves(d) != zero_and_negative_by_pairing(d)
    assert counts == [CHUNK] * (len(enumerate_sym_fcurves(24)) // CHUNK) + [3]


def test_width_boundary_classes_reach_seven_times_their_largest_numerator():
    for m in WIDTH_BOUNDARIES:
        d = aligned_with_a_curve(24, m)
        assert max(map(abs, d._expanded[0])) == m
        assert max(sym_pairing(d, f) for f in enumerate_sym_fcurves(24)) == 7 * m


def greedy_certificate(curves: list) -> list:
    """Oracle for fcurve_certificate: keep a curve iff it raises the
    reference rank of the curves kept before it."""
    kept = []
    for f in curves:
        if reference_rank([fcurve_class_vector(g) for g in [*kept, f]]) > len(kept):
            kept.append(f)
    return kept


@pytest.mark.parametrize("n", range(6, 17))
def test_fcurve_certificate_of_every_fcone_ray_has_full_rank(n):
    for ray in fcone_rays(n).rays:
        zero, negative = zero_and_negative_fcurves(sym_divisor_from_vector(n, ray))
        certificate = fcurve_certificate(zero)
        assert not negative
        assert len(certificate) == n // 2 - 2
        assert reference_rank([fcurve_class_vector(f) for f in certificate]) == n // 2 - 2
    assert fcurve_certificate([]) == []


@st.composite
def sums_of_two_rays(draw) -> SymDivisor:
    n = draw(st.integers(6, 16))
    rays = fcone_rays(n).rays
    i, j = draw(st.lists(st.integers(0, len(rays) - 1), min_size=2, max_size=2, unique=True))
    return sym_divisor_from_vector(n, rays[i]) + sym_divisor_from_vector(n, rays[j])


@settings(max_examples=100, deadline=None)
@given(sums_of_two_rays())
def test_fcurve_certificate_of_a_sum_of_two_rays_is_the_greedy_scan(d):
    zero, _ = zero_and_negative_fcurves(d)
    certificate = fcurve_certificate(zero)
    assert certificate == greedy_certificate(zero)
    assert len(certificate) < d.n // 2 - 2


def plain_certificate(curves: list) -> list:
    """fcurve_certificate as the plain scan: every row reduced until the
    rank ⌊n/2⌋ − 2 is reached."""
    if not curves:
        return []
    rows = [list(fcurve_class_vector(f)) for f in curves]
    return [curves[i] for i in _scan(rows, False, curves[0].n // 2 - 2)[1]]


def t3_order(n: int, zero: list) -> list:
    """The zero curves in the order of t3_certificate_blocks: the curves of
    the t3 blocks that are among them first, in block order, then the rest
    in enumeration order."""
    blocks = _t3_curve_blocks(n) if n % 3 == 0 and n >= 12 else []
    parts = {f.parts for f in zero}
    first = dict.fromkeys(f.parts for _, curves in blocks for f in curves if f.parts in parts)
    return [SymFCurve(x) for x in first] + [f for f in zero if f.parts not in first]


@st.composite
def fnef_zero_curves(draw) -> tuple[int, list]:
    """The zero curves of a positive integer sum of hodge_class(n, p) for
    p | n and, for 3 | n, the triple-cover class, n = 6..60."""
    n = draw(st.integers(6, 60))
    bases = [hodge_class(n, p) for p in range(2, n + 1) if n % p == 0]
    if n % 3 == 0:
        bases.append(triple_cover_divisor(n))
    picked = draw(st.lists(st.sampled_from(range(len(bases))), min_size=1, max_size=3))
    d = bases[picked[0]] * draw(st.integers(1, 5))
    for i in picked[1:]:
        d = d + bases[i] * draw(st.integers(1, 5))
    zero, _ = zero_and_negative_fcurves(d)
    # an interior class, which half of the draws are, has no zero curve
    assume(zero and not d.is_zero())
    return n, zero


@st.composite
def sparse_class_zero_curves(draw) -> tuple[int, list]:
    """The zero curves of a class with small coordinates, many of them zero,
    n = 8..24.  A kernel vector of the close is the class itself when the
    class is zero at the other column without a pivot, and then only the
    other vector finds the last row.  No base class of fnef_zero_curves has
    a zero coordinate, so it is these draws that tell a dropped vector."""
    n = draw(st.integers(8, 24))
    vector = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=n // 2 - 1,
                           max_size=n // 2 - 1).filter(any))
    zero, _ = zero_and_negative_fcurves(sym_divisor_from_vector(n, vector))
    return n, zero


@settings(max_examples=300, deadline=None)
@given(st.one_of(fnef_zero_curves(), sparse_class_zero_curves()),
       st.randoms(use_true_random=False))
def test_fcurve_certificate_is_the_plain_scan(case, rng):
    n, zero = case
    shuffled = list(zero)
    rng.shuffle(shuffled)
    for curves in (zero, shuffled, t3_order(n, zero)):
        assert fcurve_certificate(curves) == plain_certificate(curves)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_fcurve_certificate_at_rank_one_and_below(n):
    # n = 4, 5 certify nothing; at n = 6, 7 the close starts from no kept row
    for vector in itertools.product(range(-1, 3), repeat=n // 2 - 1):
        if any(vector):
            zero, _ = zero_and_negative_fcurves(sym_divisor_from_vector(n, vector))
            assert fcurve_certificate(zero) == plain_certificate(zero)


def holds_terms(f: SymFCurve) -> bool:
    """Whether the curve's terms slot is filled, asked without filling it:
    ``object.__getattribute__`` does not fall back to ``__getattr__``."""
    try:
        object.__getattribute__(f, "_terms")
    except AttributeError:
        return False
    return True


def counted_certificate(curves: list, monkeypatch) -> tuple[list, dict]:
    """fcurve_certificate on fresh copies of curves, equal to them, with the
    rows it builds counted, and the copies whose terms it reads: a fresh
    copy holds no terms until they are read."""
    copies = [SymFCurve(f.parts) for f in curves]
    counts = {"rows": 0}
    dense = exactlin._dense

    def counted_dense(terms, ncols):
        counts["rows"] += 1
        return dense(terms, ncols)

    # the certificate scan of exactlin builds each dense row from its terms
    monkeypatch.setattr(exactlin, "_dense", counted_dense)
    certificate = fcurve_certificate(copies)
    counts["terms"] = sum(map(holds_terms, copies))
    return certificate, counts


def test_fcurve_certificate_reduces_rows_only_up_to_the_close(monkeypatch):
    # t3 order at n = 48: rows 0..21 reach rank 21, row 22 is reduced and
    # lies in their span, and rows 23..101 are dotted until row 101 raises
    # the rank to 22
    zero, _ = zero_and_negative_fcurves(triple_cover_divisor(48))
    curves = t3_order(48, zero)
    certificate, counts = counted_certificate(curves, monkeypatch)
    assert len(certificate) == 22 and curves.index(certificate[-1]) == 101
    assert counts["rows"] == 23
    assert counts["terms"] - counts["rows"] == 79


def test_fcurve_tables_stay_at_their_bound_and_go_with_the_clear():
    # the t3 verdict at n = 12..60: the tables kept hold their parts, curves,
    # terms and packings within the byte budget, and clearing them drops all
    moduli._fcurve_tables.clear()
    gc.collect()
    tracemalloc.start()
    try:
        for n in range(12, 61, 3):
            zero, _ = zero_and_negative_fcurves(triple_cover_divisor(n))
            fcurve_certificate(zero)
        del zero
        kept = sum(t.nbytes() for t, _ in moduli._fcurve_tables.values())
        moduli._fcurve_tables.clear()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < kept <= moduli._FCURVE_BYTES
    assert retained < 2 ** 20


def test_enumerated_fcurve_tables_stay_at_their_bound(monkeypatch):
    # a table fetched for its curves alone has no packing: it weighs as one
    # at two bytes a field, and is dropped like any other
    monkeypatch.setattr(moduli, "_fcurve_tables", {})
    for n in range(4, 121):
        enumerate_sym_fcurves(n)
    kept = moduli._fcurve_tables
    assert 0 < len(kept) < 117
    assert sum(t.nbytes() or t.nbytes(2) for t, _ in kept.values()) <= moduli._FCURVE_BYTES


def test_enumerated_fcurve_tables_hold_no_more_than_their_budget(monkeypatch):
    # the parts tuples, the made curves and the lists holding them count, so
    # what the kept tables hold stays within the bytes they are allowed
    monkeypatch.setattr(moduli, "_fcurve_tables", {})
    gc.collect()
    tracemalloc.start()
    try:
        for n in range(4, 121):
            enumerate_sym_fcurves(n)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moduli._fcurve_tables
    assert sum(moduli._fcurve_weight(t) for t, _ in moduli._fcurve_tables.values()) \
        <= moduli._FCURVE_BYTES
    assert held <= moduli._FCURVE_BYTES


def test_fcurve_tables_past_the_budget_go_least_recently_used_first(monkeypatch):
    monkeypatch.setattr(moduli, "_fcurve_tables", {})
    weight = {}
    for n in (24, 27, 30):
        zero_and_negative_fcurves(triple_cover_divisor(n))
        weight[n] = moduli._fcurve_weight(moduli._fcurve_tables[n][0])
    # room for two of the three tables: each new one evicts the oldest
    monkeypatch.setattr(moduli, "_FCURVE_BYTES", weight[27] + weight[30])
    moduli._fcurve_tables.clear()
    for n, kept in [(24, [24]), (27, [24, 27]), (30, [27, 30]), (24, [30, 24])]:
        zero, _ = zero_and_negative_fcurves(triple_cover_divisor(n))
        assert list(moduli._fcurve_tables) == kept
        assert sum(moduli._fcurve_weight(t) for t, _ in moduli._fcurve_tables.values()) \
            <= weight[27] + weight[30]
        assert zero == zero_and_negative_by_pairing(triple_cover_divisor(n))[0]


def test_a_kept_table_packs_a_wider_class_on_every_call(monkeypatch):
    # the budget holds the table of n = 30 with its rows at two bytes a field, not at five
    n = 30
    rows = len(four_part_partitions(n))
    monkeypatch.setattr(moduli, "_fcurve_tables", {})
    monkeypatch.setattr(moduli, "_FCURVE_BYTES", rows * ((n // 2 + 1) * 2 + moduli._ROW_BYTES))
    wide = triple_cover_divisor(n) * -(2 ** 20)
    for d in (triple_cover_divisor(n), wide, wide):
        zero, negative = zero_and_negative_fcurves(d)
        assert (zero, negative) == zero_and_negative_by_pairing(d)
    assert zero and negative
    table, _ = moduli._fcurve_tables[n]
    assert list(table._packed) == [2]


@pytest.mark.parametrize("n", [36, 48, 96])
def test_fcurve_certificate_in_enumeration_order_builds_no_kernel(n, monkeypatch):
    # in enumeration order the curve after the scan's stop raises the rank,
    # so its reduction closes the certificate and no curve is dotted
    def no_kernel(basis, ncols):
        raise AssertionError("the kernel of the kept rows was built")

    zero, _ = zero_and_negative_fcurves(triple_cover_divisor(n))
    monkeypatch.setattr(exactlin, "_kernel", no_kernel)
    certificate, counts = counted_certificate(zero, monkeypatch)
    assert len(certificate) == n // 2 - 2
    assert zero.index(certificate[-1]) == zero.index(certificate[-2]) + 1
    assert counts["terms"] == counts["rows"] == zero.index(certificate[-1]) + 1


def test_only_kept_rows_reach_the_pivot_search(monkeypatch):
    # in enumeration order at n = 48 the scan reduces 101 rows and keeps 21,
    # and the close reduces row 102; the 80 zero remainders are dropped
    # before the pivot search of _basis_row
    zero, _ = zero_and_negative_fcurves(triple_cover_divisor(48))
    searched = []
    basis_row = exactlin._basis_row

    def counted_basis_row(row, leftmost):
        searched.append(any(row))
        return basis_row(row, leftmost)

    monkeypatch.setattr(exactlin, "_basis_row", counted_basis_row)
    certificate, counts = counted_certificate(zero, monkeypatch)
    assert len(certificate) == 22 and counts["rows"] == 102
    assert searched == [True] * 21


# ---------------------------------------------------------------------------
# SymDivisor against a Fraction-only reference: a class is (n, ψ, {k: Δ_k}).


def reference_literal(n: int, psi: Fraction, delta: dict, order: list) -> str:
    """The class as a divisor literal, each term over its own denominator,
    the Δ terms in the given order of k."""
    terms = [("psi", psi)] + [(f"D{k}", delta[k]) for k in order]
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{sym}" for sym, c in terms if c)
    return text or "0"


def reference_combination(n: int, *terms) -> tuple:
    """Σ c·(ψ, Δ) over (c, reference) pairs, one Fraction per coordinate."""
    psi = sum((c * ref[1] for c, ref in terms), Fraction(0))
    delta = {k: sum((c * ref[2][k] for c, ref in terms), Fraction(0)) for k in delta_range(n)}
    return n, psi, delta


def reference_ray(vector: list) -> tuple:
    """Oracle for SymDivisor.ray: clear denominators, divide by the content."""
    common = lcm(*(x.denominator for x in vector))
    ints = [int(x * common) for x in vector]
    content = gcd(*ints)
    return tuple(a // content for a in ints) if content else tuple(ints)


def format_by_lcm(psi: Fraction, delta: dict) -> str:
    """Oracle for format_divisor: the nonzero terms over the lcm of their
    denominators, ψ first, then Δ_k by k ascending."""
    terms = [("psi", psi)] if psi else []
    terms += [(f"D{k}", c) for k, c in sorted(delta.items()) if c]
    if not terms:
        return "0"
    common = lcm(*(c.denominator for _, c in terms))
    rendered = []
    for i, (sym, c) in enumerate(terms):
        num = c.numerator * (common // c.denominator)
        mag = f"{abs(num)}/{common}" if common > 1 else f"{abs(num)}"
        if i == 0:
            rendered.append(f"{'-' if num < 0 else ''}{mag}*{sym}")
        else:
            rendered.append(f"{'-' if num < 0 else '+'} {mag}*{sym}")
    return " ".join(rendered)


@st.composite
def reference_classes(draw, n_values=st.integers(4, 16)):
    """(n, ψ, {k: Δ_k}) with every k present, zero classes among them."""
    n = draw(n_values)
    ks = list(delta_range(n))
    kind = draw(st.sampled_from(["random", "random", "random", "empty", "relation"]))
    if kind == "empty":
        return n, Fraction(0), {k: Fraction(0) for k in ks}
    if kind == "relation":
        c = draw(rationals_30)
        return n, c * (n - 1), {k: -c * k * (n - k) for k in ks}
    coeffs = draw(st.lists(coefficients_30, min_size=len(ks), max_size=len(ks)))
    return n, draw(coefficients_30), dict(zip(ks, coeffs))


def check_against_reference(d: SymDivisor, ref: tuple) -> None:
    n, psi, delta = ref
    ks = delta_range(n)
    vector = [delta[k] + psi * Fraction(k * (n - k), n - 1) for k in ks]
    assert d.n == n and d.psi == psi
    assert d.delta_vector() == tuple(delta[k] for k in ks)
    assert d.class_vector() == tuple(vector)
    assert d.ray() == reference_ray(vector)
    assert d.is_zero() == (not any(vector))
    for k in range(3, n // 2 + 1):
        assert tk_pairing(d, k) == vector[k - 2] * (2 - k) + vector[k - 3] * k
    assert format_divisor(d) == format_by_lcm(psi, delta)
    assert parse_divisor(format_divisor(d), n) == d
    assert d.delta_map() == {k: c for k, c in delta.items() if c}
    assert list(d.delta_map()) == sorted(d.delta_map())


@settings(max_examples=100, deadline=None)
@given(reference_classes(), st.data())
def test_sym_divisor_matches_a_fraction_only_reference(ref_a, data):
    n = ref_a[0]
    ref_b = data.draw(reference_classes(st.just(n)))
    c = data.draw(rationals_30)
    # the literals list their Δ terms in any order of k
    a, b = (
        parse_divisor(reference_literal(*ref, data.draw(st.permutations(delta_range(n)))), n)
        for ref in (ref_a, ref_b)
    )
    cases = [
        (a, ref_a),
        (b, ref_b),
        (a + b, reference_combination(n, (1, ref_a), (1, ref_b))),
        (a - b, reference_combination(n, (1, ref_a), (-1, ref_b))),
        (c * a, reference_combination(n, (c, ref_a))),
        (b * c, reference_combination(n, (c, ref_b))),
        (-a, reference_combination(n, (-1, ref_a))),
    ]
    for got, ref in cases:
        check_against_reference(got, ref)
        fresh = SymDivisor(*ref)
        assert got == fresh and hash(got) == hash(fresh)


def test_fcurve_class_vector_is_ints_with_at_most_seven_nonzero():
    for n in range(4, 25):
        for f in enumerate_sym_fcurves(n):
            vec = fcurve_class_vector(f)
            assert all(type(x) is int for x in vec)
            assert vec == tuple(dense_fcurve_vector(f))
            assert sum(1 for x in vec if x) <= 7


def test_enumerate_sym_fcurves_returns_a_fresh_list():
    curves = enumerate_sym_fcurves(10)
    curves.clear()
    assert len(enumerate_sym_fcurves(10)) == 9
    assert enumerate_sym_fcurves(10) is not enumerate_sym_fcurves(10)
    with pytest.raises(ValueError):
        enumerate_sym_fcurves(3)
