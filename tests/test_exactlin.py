import ast
import copy
import pickle
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from fcone.exactlin import (
    QVector,
    _integer_row,
    _kernel,
    _lowest_terms,
    _over_lcm,
    _scan,
    dot,
    format_rational,
    independent_rows,
    kernel_basis,
    parse_rational,
    primitive,
    rank,
    rref,
)

from oracles import reference_rank

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=12
)


@pytest.mark.parametrize("m", [[[1], [2, 3]], [[1, 2], [3]], [[1, 2, 3], [4, 5]]])
@pytest.mark.parametrize("fn", [rank, rref, independent_rows, kernel_basis])
def test_ragged_rows_are_rejected(fn, m):
    with pytest.raises(ValueError, match="same length"):
        fn(m)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


@pytest.mark.parametrize("u, v, expected", [
    ((1, 2, 3), (4, 5, -6), -4),
    ((Fraction(1, 2), Fraction(2, 3)), (Fraction(3), Fraction(-3, 4)), 1),
    ((1, Fraction(1, 3)), (Fraction(1, 2), 3), Fraction(3, 2)),
    ((), (), 0),
])
def test_dot_returns_a_fraction(u, v, expected):
    got = dot(u, v)
    assert type(got) is Fraction
    assert got == expected


@given(st.lists(st.tuples(st.one_of(st.integers(-50, 50), rationals),
                          st.one_of(st.integers(-50, 50), rationals)), max_size=8))
def test_dot_of_mixed_entries(pairs):
    u, v = [a for a, _ in pairs], [b for _, b in pairs]
    got = dot(u, v)
    assert type(got) is Fraction
    assert got == sum((Fraction(a) * Fraction(b) for a, b in pairs), Fraction(0))


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" -7 ") == -7
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")


@given(rationals)
def test_format_parse_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


def test_primitive_examples():
    assert primitive([Fraction(1, 2), Fraction(3, 4)]) == (2, 3)
    assert primitive([-2, 4]) == (1, -2)
    assert primitive([-2, 4], flip_sign=False) == (-1, 2)
    assert primitive([0, 0, 0]) == (0, 0, 0)


def test_a_qvector_is_its_plain_tuple_and_carries_its_ray():
    entries = (Fraction(-1, 2), Fraction(3, 4), Fraction(0))
    v = QVector(entries, (-2, 3, 0))
    assert v == entries and entries == v and hash(v) == hash(entries)
    assert repr(v) == repr(entries) and str(v) == str(entries)
    assert {entries: 1}[v] == 1 and v != (-2, 3, 0)
    for copied in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert type(copied) is QVector and copied == v and copied.ray == (-2, 3, 0)
    for plain in (v[:], v[1:], tuple(v), v + ()):
        assert type(plain) is tuple
    assert v[:] == entries
    with pytest.raises(AttributeError):
        v.ray = (1, 0, 0)
    # primitive reads the ray and flips only its sign
    assert primitive(v, flip_sign=False) is v.ray
    assert primitive(v) == (2, -3, 0) == primitive(entries)


@given(st.lists(rationals, min_size=1, max_size=6))
def test_primitive_is_proportional_and_reduced(v):
    p = primitive(v)
    if all(x == 0 for x in v):
        assert p == tuple(0 for _ in v)
        return
    assert gcd(*p) == 1
    # proportional to the input by a positive rational
    i = next(i for i, x in enumerate(p) if x)
    c = Fraction(v[i]) / p[i]
    assert all(Fraction(x) == c * y for x, y in zip(v, p))
    assert next(x for x in p if x) > 0


# content 1 and above, the zero vector, and a negative lead
@example([3, -5, 0], True)
@example([0, -4, 6], False)
@example([0, 0, 0], True)
@example([-6, 0, 9], True)
@example([-6, 0, 9], False)
@given(st.lists(st.integers(-50, 50), max_size=6), st.booleans())
def test_primitive_of_ints_matches_the_fraction_path(v, flip_sign):
    # Fraction entries of denominator 1 and bools take the Fraction path;
    # each must give the same tuple as the ints themselves
    expected = primitive(v, flip_sign)
    assert type(expected) is tuple and all(type(x) is int for x in expected)
    assert primitive([Fraction(x) for x in v], flip_sign) == expected
    t = tuple(v)
    assert primitive(t, flip_sign) == expected
    if not flip_sign and gcd(*t) == 1:
        assert primitive(t, flip_sign) is t
    bools = [x != 0 for x in v]
    assert primitive(bools, flip_sign) == primitive([int(b) for b in bools], flip_sign)


class Integer(int):
    pass


@pytest.mark.parametrize("row", [[3, -6, 0], (3, -6, 0), []], ids=["list", "tuple", "empty"])
def test_integer_row_returns_an_all_int_row_itself(row):
    assert _integer_row(row) is row


@pytest.mark.parametrize("row, cleared", [
    ([2, True, False], [2, 1, 0]),  # bool
    ([2, Integer(-3), 0], [2, -3, 0]),  # an int subclass
    ([1, Fraction(-1, 6), Fraction(4)], [6, -1, 24]),  # Fraction
    ([1, 0.5, -2.0], [2, 1, -4]),  # float
], ids=["bool", "int-subclass", "Fraction", "float"])
def test_integer_row_clears_every_entry_that_is_not_exactly_int(row, cleared):
    got = _integer_row(row)
    assert got is not row and got == cleared and all(type(a) is int for a in got)


@example([])
@example([0, Fraction(-1, 6), 3, Fraction(5, 4)])
@given(st.lists(st.one_of(st.integers(-50, 50), rationals), max_size=6))
def test_over_lcm_clears_to_the_lcm(values):
    num, den = _over_lcm(values)
    assert all(type(a) is int for a in num) and type(den) is int
    assert [Fraction(a, den) for a in num] == [Fraction(c) for c in values]
    assert den == lcm(*(Fraction(c).denominator for c in values))


@example([0, 0], 6)
@example([4, -6, 0], 8)
@example([3, 6], 4)
@given(st.lists(st.integers(-100, 100), max_size=6), st.integers(1, 100))
def test_lowest_terms_keeps_every_ratio(num, den):
    reduced, d = _lowest_terms(num, den)
    assert type(reduced) is tuple and d > 0
    assert gcd(d, *reduced) == 1
    assert [Fraction(a, d) for a in reduced] == [Fraction(a, den) for a in num]


HILBERT = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([["1/2", 1], [2, 5]]) == 2
    # the Hilbert matrix is invertible, and each of its rows clears its
    # fractions with a multiplier of its own
    assert rank(HILBERT) == 5


def test_kernel_basis_orthogonality():
    m = [[1, 2, 3], [4, 5, 6]]
    basis = kernel_basis(m)
    assert basis == [(1, -2, 1)]
    for row in m:
        assert dot(row, basis[0]) == 0


def test_kernel_basis_identity_is_trivial():
    assert kernel_basis([[1, 0], [0, 1]]) == []
    with pytest.raises(ValueError):
        kernel_basis([])


matrix_strategy = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=4,
    )
)


@given(matrix_strategy)
def test_rank_plus_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == len(m[0])


@given(matrix_strategy)
def test_kernel_vectors_annihilated(m):
    for v in kernel_basis(m):
        for row in m:
            assert dot(row, v) == 0


# taller matrices with small entries, so that dependent rows are common
tall_matrix_strategy = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.one_of(st.integers(-2, 2), rationals), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=10,
    )
)


# integer matrices with small entries, so that the kernel is often large
int_matrix_strategy = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols), min_size=1, max_size=8
    )
)


@given(int_matrix_strategy)
def test_kernel_of_a_smallest_pivot_scan_spans_the_kernel(m):
    # kernel_basis solves a leftmost-pivot scan; smallest pivots, as the
    # F-curve certificate takes them, leave other columns free
    ncols = len(m[0])
    basis = _scan([list(r) for r in m], False)[0]
    kernel = _kernel(basis, ncols)
    free = sorted(set(range(ncols)) - {c for c, _ in basis})
    assert len(kernel) == len(free) == len(kernel_basis(m))
    for f, v in zip(free, kernel):
        assert [v[g] > 0 if g == f else v[g] == 0 for g in free] == [True] * len(free)
        assert gcd(*v) == 1
        assert all(dot(row, v) == 0 for row in m)


def test_independent_rows_examples():
    assert independent_rows([]) == []
    assert independent_rows([[0, 0], [1, 2], [2, 4], [0, 1]]) == [1, 3]
    # rows are compared after their denominators are cleared
    m = [[Fraction(1, 2), Fraction(1, 3)], [3, 2], ["1", 1]]
    assert independent_rows(m) == [0, 2]
    assert independent_rows(m, 1) == [0]


def test_independent_rows_clears_no_row_after_the_stop():
    # the third row is no number at all: clearing it would raise
    assert independent_rows([[1, 0], [0, 1], ["x", "y"]], 2) == [0, 1]


@given(st.one_of(matrix_strategy, tall_matrix_strategy))
def test_independent_rows_is_the_greedy_scan(m):
    greedy = []
    for i, row in enumerate(m):
        if reference_rank([m[j] for j in greedy] + [row]) > len(greedy):
            greedy.append(i)
    assert independent_rows(m) == greedy
    assert len(greedy) == rank(m)


@given(st.one_of(matrix_strategy, tall_matrix_strategy))
def test_independent_rows_stops_at_the_target(m):
    full = independent_rows(m)
    for k in range(len(m) + 1):
        # for every k at or above the rank, full[:k] is the full scan
        assert independent_rows(m, k) == full[:k]


@given(matrix_strategy)
def test_rref_is_canonical_and_spans(m):
    basis = rref(m)
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    for r, (row, c) in enumerate(zip(basis, pivots)):
        assert row == primitive(row) and row[c] > 0
        assert all(basis[i][c] == 0 for i in range(len(basis)) if i != r)
    assert len(basis) == reference_rank(m) == reference_rank(list(m) + list(basis))


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


# the Hilbert matrix has the identity as RREF and an empty kernel, a zero row
# an empty RREF and a full kernel, and [[]] no columns at all
@example(HILBERT)
@example([[0, 0]])
@example([[]])
@given(st.one_of(matrix_strategy, tall_matrix_strategy))
def test_rank_and_rref_match_sympy(sympy, m):
    reduced, pivots = sympy.Matrix(m).rref()
    assert rank(m) == reference_rank(m) == len(pivots)
    expected = tuple(primitive(reduced.row(i)) for i in range(len(pivots)))
    assert rref(m) == expected


@example(HILBERT)
@example([[0, 0]])
@example([[]])
@given(st.one_of(matrix_strategy, tall_matrix_strategy))
def test_kernel_basis_matches_sympy(sympy, m):
    expected = [list(v) for v in sympy.Matrix(m).nullspace()]
    basis = kernel_basis(m)
    assert len(basis) == len(expected)
    if basis:
        # the same span: neither basis adds a direction to the other
        assert rank(basis) == rank(expected) == rank(basis + expected) == len(basis)
    # both take one vector per free column, ascending
    assert basis == [primitive(v) for v in expected]


@given(matrix_strategy)
def test_rank_invariant_under_row_swap_and_scale(m):
    assert rank(m) == rank(list(reversed(m)))
    scaled = [[3 * x for x in row] for row in m]
    assert rank(m) == rank(scaled)


def test_oracles_import_nothing_from_exactlin():
    # the references must not share the elimination they check
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported += [module, *(f"{module}.{alias.name}" for alias in node.names)]
    assert "fcone.cones" in imported
    assert not [m for m in imported if "exactlin" in m.split(".")]
