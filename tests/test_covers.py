import gc
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from fcone import covers, moduli, tables
from fcone.covers import (
    WeightData,
    _symmetric_classes,
    _symmetric_rays,
    conformal_blocks_class,
    eigen_det_class,
    exceptional_genus,
    genus,
    hodge_class,
    log_canonical_class,
    p5_class,
    pullback_boundary,
    pullback_combo,
    residue,
    sym_eigen_det_class,
    sym_weighted_pullbacks,
    weighted_pullbacks,
)
from fcone.eigenforms import eigen_rank_degree_fcurve
from fcone.exactlin import format_rational
from fcone.moduli import (
    FullDivisor,
    SymDivisor,
    SymFCurve,
    delta_range,
    enumerate_sym_fcurves,
    full_pairing,
    proportional,
    standard_full_fcurve,
    sym_divisor_from_vector,
    sym_pairing,
    symmetrize,
    tk_pairing,
)
from fcone.tables import COMBO_COEFFS

from oracles import canonical_sides, eigen_det_class_by_side, weighted_pullbacks_by_side

PRIME_PAIRS = ((6, 2), (6, 3), (9, 3), (10, 2), (10, 5), (12, 2), (12, 3),
               (14, 7), (15, 3), (15, 5), (16, 2))


def frac_vec(*entries):
    return tuple(Fraction(x) for x in entries)


def test_residue():
    assert residue(7, 5) == 2
    assert residue(-1, 5) == 4
    assert residue(10, 5) == 0
    with pytest.raises(ValueError):
        residue(1, 0)


def test_weight_data_validation():
    w = WeightData((1, 1, 1, 1, 1, 1), 3)
    assert w.n == 6
    with pytest.raises(ValueError):
        WeightData((1, 1, 1), 1)
    with pytest.raises(ValueError):
        WeightData((1, -1, 0), 2)
    with pytest.raises(ValueError):
        WeightData((1, 1, 1), 2)  # sum not divisible
    with pytest.raises(TypeError):
        WeightData((1, 1, 1, 1), 2, j=2)  # no character field


def test_genus_values():
    assert genus(WeightData((1, 1, 1, 1), 2)) == 1
    assert genus(WeightData((1,) * 6, 2)) == 2
    assert genus(WeightData((1,) * 6, 3)) == 4
    assert genus(WeightData((1,) * 12, 2)) == 5
    assert genus(WeightData((1, 1, 2), 2)) == 0
    # weights all sharing a factor with p leave the cover disconnected
    assert genus(WeightData((2, 2), 2)) == -1


def test_exceptional_genus():
    assert exceptional_genus(1, 1, 2) == 0
    assert exceptional_genus(1, 2, 3) == 0
    assert exceptional_genus(1, 1, 3) == 1
    assert exceptional_genus(2, 3, 6) == 1
    with pytest.raises(ValueError):
        exceptional_genus(1, 1, 1)


def test_hodge_class_coefficients():
    lam = hodge_class(6, 3)
    assert lam.psi == Fraction(8, 36)
    assert lam.delta(2) == -Fraction(8, 36)
    assert lam.delta(3) == 0
    with pytest.raises(ValueError):
        hodge_class(5, 2)
    with pytest.raises(ValueError):
        hodge_class(6, 1)


def test_hodge_class_vectors():
    cases = {
        (6, 2): frac_vec("1/5", "1/10"),
        (6, 3): frac_vec("2/15", "2/5"),
        (9, 3): frac_vec("1/6", "1/2", "1/3"),
        (10, 2): frac_vec("2/9", "1/6", "1/3", "2/9"),
    }
    for (n, p), expected in cases.items():
        assert hodge_class(n, p).class_vector() == expected


def test_hodge_rays():
    assert proportional(hodge_class(6, 2), sym_divisor_from_vector(6, (2, 1)))
    assert proportional(hodge_class(6, 3), sym_divisor_from_vector(6, (1, 3)))
    assert proportional(hodge_class(9, 3), sym_divisor_from_vector(9, (1, 3, 2)))
    assert proportional(hodge_class(10, 2), sym_divisor_from_vector(10, (4, 3, 6, 4)))


def test_pullback_boundary_supports():
    irr, red = pullback_boundary(12, 3)
    assert irr.delta_map() == {3: 3, 6: 3}
    assert red.delta_map() == {2: Fraction(1, 3), 4: Fraction(1, 3), 5: Fraction(1, 3)}


def test_triple_cover_class_identity():
    for n in (6, 9, 12, 15):
        combo = pullback_combo(n, 3, 9, -1, 0)
        delta = {k: -2 - (1 if k % 3 == 0 else 0) for k in delta_range(n)}
        assert combo == SymDivisor(n, 2, delta)


def test_triple_cover_zero_curves_mod_three():
    for n in (9, 12, 15):
        div = pullback_combo(n, 3, 9, -1, 0)
        for f in enumerate_sym_fcurves(n):
            deg = sym_pairing(div, f)
            balanced = sorted(v % 3 for v in f.parts) == [1, 1, 2, 2]
            if balanced:
                assert deg == 0
            else:
                assert deg > 0


def test_unit_weights_reduce_to_plain_pullbacks():
    for n, p in ((6, 2), (6, 3), (9, 3), (10, 2), (10, 5)):
        w = WeightData((1,) * n, p)
        lam, irr, red = (symmetrize(d) for d in weighted_pullbacks(w))
        assert lam == hodge_class(n, p)
        plain_irr, plain_red = pullback_boundary(n, p)
        assert irr == plain_irr
        assert red == plain_red


def same_raw(a: SymDivisor, b: SymDivisor) -> bool:
    return a.n == b.n and a.psi == b.psi and a.delta_map() == b.delta_map()


def test_unit_weight_classes_match_closed_forms():
    # λ = (p²−1)/12p·ψ − Σ_k (p²−gcd(k,p)²)/12p·Δ_k, δ_irr = Σ_{gcd(k,p)>1}
    # gcd(k,p)²/p·Δ_k and δ_red = Σ_{gcd(k,p)=1} Δ_k/p, compared term by term
    for n in range(4, 61):
        for p in range(2, n + 1):
            if n % p:
                continue
            lam = hodge_class(n, p)
            assert lam.psi == Fraction(p * p - 1, 12 * p)
            assert lam.delta_map() == {
                k: -Fraction(p * p - gcd(k, p) ** 2, 12 * p)
                for k in delta_range(n) if gcd(k, p) < p
            }
            irr, red = pullback_boundary(n, p)
            assert irr.psi == red.psi == 0
            assert irr.delta_map() == {
                k: Fraction(gcd(k, p) ** 2, p) for k in delta_range(n) if gcd(k, p) > 1
            }
            assert red.delta_map() == {
                k: Fraction(1, p) for k in delta_range(n) if gcd(k, p) == 1
            }
            combo = pullback_combo(n, p, 10, -1, Fraction(-2, 3))
            assert same_raw(combo, 10 * lam - irr + Fraction(-2, 3) * red)
            # λ alone and δ_irr, δ_red alone store the numerators of the three-row read-out
            three = sym_weighted_pullbacks(WeightData((1,) * n, p))
            assert [(d._psi, d._delta, d._den) for d in (lam, irr, red)] == \
                [(d._psi, d._delta, d._den) for d in three]


@st.composite
def weight_data(draw):
    n = draw(st.integers(4, 11))
    p = draw(st.integers(2, 7))
    head = draw(st.lists(st.integers(0, p - 1), min_size=n - 1, max_size=n - 1))
    return WeightData(tuple(head) + (-sum(head) % p,), p)


PINNED_WEIGHTS = (
    WeightData((0, 1, 2, 3, 4, 5, 6, 0, 0), 7),  # seven values, zeros
    WeightData((2, 4, 2, 4, 0, 0), 6),  # gcd(p, d...) = 2
    WeightData((3, 3, 3, 3, 0, 0, 0), 6),  # gcd(p, d...) = 3
    WeightData((1, 2, 3, 1, 2, 3, 0, 0, 2, 2), 4),  # Δ_{n/2}, four values
    WeightData((1,) * 10, 5),  # unit weights: pullback_combo and p5_class
)


def pinned_weights(test):
    for w in reversed(PINNED_WEIGHTS):
        test = example(w=w)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(w=weight_data())
@pinned_weights
def test_profile_classes_equal_symmetrized_full_classes(w):
    full = [symmetrize(d) for d in weighted_pullbacks(w)]
    assert all(same_raw(a, b) for a, b in zip(sym_weighted_pullbacks(w), full))
    for j in range(1, w.p):
        assert same_raw(sym_eigen_det_class(w, j), symmetrize(eigen_det_class(w, j)))
        # det E_{p−j} = det E_j, which the profile walk computes once per pair
        assert eigen_det_class(w, j) == eigen_det_class(w, w.p - j)
        a, b = sym_eigen_det_class(w, j), sym_eigen_det_class(w, w.p - j)
        assert (a._psi, a._delta, a._den) == (b._psi, b._delta, b._den)
    # combination rows, one with a rational coefficient, from one walk against
    # SymDivisor arithmetic on the symmetrized per-marking classes
    lam, irr, red = full
    coeffs = [*COMBO_COEFFS, (10, -1, Fraction(-2, 3))]
    rows = [(("lambda", "irr", "red"), cs) for cs in coeffs] + [((1, "irr"), (50, -1))]
    expected = [cl * lam + ci * irr + cr * red for cl, ci, cr in coeffs]
    expected.append(50 * symmetrize(eigen_det_class(w, 1)) - irr)
    got = _symmetric_classes(w, rows)
    assert len(got) == len(expected) and all(map(same_raw, got, expected))
    # the ray read-out of the same rows, from the ψ-expanded base columns
    assert _symmetric_rays(w, rows) == [d.ray() for d in got]
    if set(w.d) == {1}:
        assert same_raw(pullback_combo(w.n, w.p, 10, -1, Fraction(-2, 3)), expected[3])
        if w.p == 5:
            assert same_raw(p5_class(w.n, 1), expected[4])


# ---------------------------------------------------------------------------
# Per-marking classes against per-side Fraction oracles: every canonical side
# as a frozenset, with its own Fraction, zero coefficients dropped.


def json_by_side(n: int, psi: tuple, delta: dict) -> str:
    return json.dumps({
        "n": n,
        "psi": [format_rational(c) for c in psi],
        "delta": {",".join(map(str, sorted(side))): format_rational(c)
                  for side, c in sorted(delta.items(), key=lambda kv: sorted(kv[0]))},
    })


def symmetrize_by_side(n: int, psi: tuple, delta: dict) -> SymDivisor:
    sums = {}
    for side, c in delta.items():
        k = min(len(side), n - len(side))
        sums[k] = sums.get(k, Fraction(0)) + c
    classes = {k: comb(n, k) // (2 if 2 * k == n else 1) for k in sums}
    return SymDivisor(n, sum(psi, Fraction(0)) / n,
                      {k: total / classes[k] for k, total in sums.items()})


@settings(max_examples=100, deadline=None)
@given(w=weight_data())
@pinned_weights
def test_full_classes_match_the_per_side_oracles(w):
    n = w.n
    got = [*weighted_pullbacks(w), *(eigen_det_class(w, j) for j in range(1, w.p))]
    expected = [*weighted_pullbacks_by_side(w),
                *(eigen_det_class_by_side(w, j) for j in range(1, w.p))]
    averaged = []
    for d, (psi, delta) in zip(got, expected):
        assert d.psi == psi and all(type(c) is Fraction for c in d.psi)
        assert list(d.delta_map().items()) == list(delta.items())
        assert d.to_json() == json_by_side(n, psi, delta)
        sym, sym_expected = symmetrize(d), symmetrize_by_side(n, psi, delta)
        averaged.append(sym_expected)
        assert sym.psi == sym_expected.psi
        assert list(sym.delta_map().items()) == list(sym_expected.delta_map().items())
        # every other way to build the class gives an equal class; JSON
        # lists the sides sorted, so from_json keeps that order
        again, loaded = FullDivisor(n, d.psi, d.delta_map()), FullDivisor.from_json(d.to_json())
        assert list(again.delta_map().items()) == list(delta.items())
        assert loaded.delta_map() == delta
        for other in (again, loaded):
            assert other == d and hash(other) == hash(d)
    # the symmetric read-out walks its own profiles but reads the library's
    # base tables, so it is checked here against the oracles averaged side
    # by side: λ, δ_irr, δ_red, each det E_j and one combination row
    lam, irr, red = averaged[:3]
    cl, ci, cr = COMBO_COEFFS[2]
    rows = [*(covers._row((b,), (1,), w.p) for b in ("lambda", "irr", "red", *range(1, w.p))),
            covers._row(("lambda", "irr", "red"), (cl, ci, cr))]
    sym_got = _symmetric_classes(w, rows)
    sym_expected = [*averaged, cl * lam + ci * irr + cr * red]
    assert len(sym_got) == len(sym_expected) and all(map(same_raw, sym_got, sym_expected))


def test_symmetric_readouts_of_distinct_weights_build_no_marking_layout():
    # markings 1..59 have distinct weights, so the layout of WeightData._profiles
    # would have 2^59 side profiles; the read-outs walk profiles merged by
    # size, weight sum and ramification instead
    head = tuple(range(1, 60))
    w = WeightData(head + (-sum(head) % 101,), 101)
    sym_weighted_pullbacks(w)
    assert sym_eigen_det_class(w, 1) == sym_eigen_det_class(w, 100)
    assert "_profiles" not in vars(w)


@st.composite
def few_weight_data(draw):
    """Weight data of at most three distinct weights, n up to 60: two drawn
    weights, up to 2p, on the first n − 1 markings and the one that makes
    p divide the sum."""
    n, p = draw(st.integers(4, 60)), draw(st.integers(2, 7))
    a, b = draw(st.integers(0, 2 * p)), draw(st.integers(0, 2 * p))
    count = draw(st.integers(0, n - 1))
    head = draw(st.permutations((a,) * count + (b,) * (n - 1 - count)))
    return WeightData(tuple(head) + (-sum(head) % p,), p)


@settings(max_examples=100, deadline=None)
@given(w=few_weight_data(), data=st.data())
@example(w=WeightData((1,) * 60, 5), data=None)
@example(w=WeightData((1,) * 58 + (2, 3), 7), data=None)
def test_ray_readout_matches_the_class_readout_up_to_n60(w, data):
    # where the binomials C(n, k) and the lcm of the shares grow large; rows
    # as the builders never pass them must still agree between the read-outs
    p = w.p
    j = data.draw(st.integers(1, p - 1)) if data else 1
    rows = [
        (("lambda", "irr", "red"), (10, -1, Fraction(-2, 3))),  # a Fraction coefficient
        (("lambda", "red"), (9, 0)),  # a zero coefficient
        ((j,), (1,)), ((p - j,), (1,)),  # det E_j next to det E_{p−j}
        ((), ()),  # the empty row
        (("irr",), (1,)), (("red",), (2,)), (("irr",), (1,)),  # a repeated row
        covers._row((j, "irr"), (50, -1), p),
    ]
    classes = _symmetric_classes(w, rows)
    rays = _symmetric_rays(w, rows)
    assert rays == [d.ray() for d in classes]
    assert rays[2] == rays[3] and classes[2] == classes[3]
    assert rays[4] == (0,) * len(delta_range(w.n)) and classes[4] == SymDivisor(w.n)
    assert classes[5] is classes[7]


def test_rows_name_the_smaller_character_and_drop_zero_terms():
    # the one rule every builder of the symmetric read-outs goes through
    assert covers._row((5, "irr", "red"), (1, 0, -1), 7) == ((2, "red"), (1, -1))
    assert covers._row((2,), (1,), 7) == covers._row((5,), (1,), 7) == ((2,), (1,))
    assert covers._row(("lambda", "irr"), (0, Fraction(0))) == ((), ())
    assert covers._row(("lambda",), (Fraction(1, 2),)) == (("lambda",), (Fraction(1, 2),))
    with pytest.raises(TypeError):  # a character needs its degree
        covers._row((1,), (1,))


def test_ray_annotations_build_no_sym_divisor_and_combine_only_mixed_rows(monkeypatch):
    # at n = 10 the covers are 1^10 at p = 2, 5, 10 and 1^9 0 at p = 3, 9:
    # five walks, each with the three combo rows, and the two p5 rows at
    # p = 5; every hodge and eigen row is one base at coefficient 1
    calls = {"walk": 0, "combine": 0, "over_lcm": 0, "SymDivisor": 0}

    def counting(name, f):
        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return counted

    for name, f in (("walk", "_symmetric_bases"), ("combine", "_combine"),
                    ("over_lcm", "_over_lcm")):
        monkeypatch.setattr(covers, f, counting(name, getattr(covers, f)))
    monkeypatch.setattr(SymDivisor, "__init__", counting("SymDivisor", SymDivisor.__init__))
    walks, _ = tables._candidate_rows(10)
    mixed = sum(len({row for row in rows if row[1] != (1,)}) for _, rows in walks)
    assert (len(walks), mixed) == (5, 17)
    first = tables.ray_annotations(10)
    assert calls == {"walk": 5, "combine": 17, "over_lcm": 17, "SymDivisor": 0}
    # nothing is kept across calls: the second does the same work
    assert tables.ray_annotations(10) == first
    assert calls == {"walk": 10, "combine": 34, "over_lcm": 34, "SymDivisor": 0}


@settings(max_examples=50, deadline=None)
@given(w=weight_data())
@pinned_weights
def test_classes_on_one_weight_datum_match_fresh_builds(w):
    # the profile table is filled by the first build and read by the others
    reused = WeightData(w.d, w.p)
    fresh = WeightData(w.d, w.p)
    for j in range(1, w.p):
        assert eigen_det_class(reused, j) == eigen_det_class(WeightData(w.d, w.p), j)
    assert weighted_pullbacks(reused) == weighted_pullbacks(WeightData(w.d, w.p))
    assert "_profiles" in vars(reused) and "_profiles" not in vars(fresh)
    assert reused == fresh and hash(reused) == hash(fresh) and repr(reused) == repr(fresh)


@settings(max_examples=100, deadline=None)
@given(w=weight_data().filter(lambda w: gcd(w.p, *w.d) == 1))
@pinned_weights
def test_each_eigen_pair_is_one_class_kept_on_its_weight_datum(w):
    # det E_j and det E_{p−j} are one object, symmetrized and read out once,
    # and equal to fresh builds on a new weight datum in every read-out
    p = w.p
    for j in range(1, p):
        d = eigen_det_class(w, j)
        assert d is eigen_det_class(w, p - j)
        for fresh in (eigen_det_class(WeightData(w.d, p), j),
                      eigen_det_class(WeightData(w.d, p), p - j)):
            assert fresh is not d
            assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
            assert d.to_json() == fresh.to_json()
        s = symmetrize(d)
        assert s is symmetrize(d)
        again = symmetrize(fresh)
        assert again is not s and same_raw(s, again) and s == again
        v = s.class_vector()
        assert v is s.class_vector() and v == again.class_vector()
    assert sorted(w._eigen) == list(range(1, p // 2 + 1))
    for j in (0, p):
        with pytest.raises(ValueError, match=rf"^character {j} out of range 1\.\.{p - 1}$"):
            eigen_det_class(w, j)


@settings(max_examples=50, deadline=None)
@given(w=st.one_of(st.sampled_from(PINNED_WEIGHTS), weight_data()),
       shifts=st.lists(st.integers(0, 3), min_size=11, max_size=11))
def test_weights_shifted_by_multiples_of_p_give_the_same_classes(w, shifts):
    # the layout groups markings by weight mod p, so a weight of p or more
    # splits no block
    shifted = WeightData(tuple(x + w.p * k for x, k in zip(w.d, shifts)), w.p)
    for j in range(1, w.p):
        assert eigen_det_class(shifted, j) == eigen_det_class(w, j)
        assert sym_eigen_det_class(shifted, j) == sym_eigen_det_class(w, j)
    assert weighted_pullbacks(shifted) == weighted_pullbacks(w)
    assert sym_weighted_pullbacks(shifted) == sym_weighted_pullbacks(w)
    assert shifted._profiles[0] is w._profiles[0]
    assert len(eigen_det_class(shifted, 1)._delta) == len(eigen_det_class(w, 1)._delta)


@settings(max_examples=100, deadline=None)
@given(w=weight_data().filter(lambda w: w.n <= 9))
@pinned_weights
def test_full_classes_read_side_by_side_match_the_oracle(w):
    # every canonical side read through delta(), and through its complement,
    # which holds marking n, against the closed formulas at that side
    n = w.n
    got = [*weighted_pullbacks(w), *(eigen_det_class(w, j) for j in range(1, w.p))]
    expected = [*weighted_pullbacks_by_side(w),
                *(eigen_det_class_by_side(w, j) for j in range(1, w.p))]
    everything = frozenset(range(1, n + 1))
    for d, (psi, delta) in zip(got, expected):
        assert d.psi == psi
        for side in canonical_sides(n):
            assert d.delta(side) == d.delta(everything - side) == delta.get(side, 0)


@st.composite
def layout_cases(draw):
    """A weight datum, a class of it given side by side (on random sides,
    coefficients in −2..2) and one of other weights on the same n, whose
    layout is another partition, and a rational scalar."""
    w = draw(st.one_of(st.sampled_from(PINNED_WEIGHTS), weight_data()))
    n, p = w.n, w.p
    picked = draw(st.lists(st.sampled_from(moduli._sides(n)[0]), max_size=6))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(picked), max_size=len(picked)))
    given_class = FullDivisor(n, (), {moduli._markings(m): c for m, c in zip(picked, coeffs)})
    head = draw(st.lists(st.integers(0, p - 1), min_size=n - 1, max_size=n - 1))
    other = eigen_det_class(WeightData(tuple(head) + (-sum(head) % p,), p), 1)
    scalar = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    return w, (given_class, other), scalar


def singleton_copy(d: FullDivisor) -> FullDivisor:
    return FullDivisor(d.n, d.psi, d.delta_map())


@settings(max_examples=100, deadline=None)
@given(case=layout_cases())
def test_builder_layouts_agree_with_the_singleton_layout(case):
    w, others, scalar = case
    for d in (*weighted_pullbacks(w), *(eigen_det_class(w, j) for j in range(1, w.p))):
        single = singleton_copy(d)
        assert single == d and hash(single) == hash(d)
        assert repr(single) == repr(d) and single.to_json() == d.to_json()
        assert FullDivisor.from_json(d.to_json()) == d
        assert scalar * d == scalar * single
        assert (scalar * d).to_json() == (scalar * single).to_json()
        for e in others:
            e_single = singleton_copy(e)
            for got, want in ((d + e, single + e_single), (d - e, single - e_single),
                              (e - d, e_single - single)):
                assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


def large_weight_data() -> list[WeightData]:
    return [WeightData((1,) * 40, 5), WeightData((1,) * 38 + (2, 2), 3),
            WeightData((1,) * 60, 5)]


@pytest.mark.parametrize("w", large_weight_data(), ids=lambda w: f"n{w.n}-p{w.p}")
def test_large_n_classes_build_no_per_n_side_table(w, monkeypatch):
    # at n = 40 and 60 a table over the 2^(n−1) sides could not be built, so
    # the one per-n side table left is made to fail
    def no_table(n):
        raise AssertionError(f"a per-n side table was built for n={n}")

    monkeypatch.setattr(moduli, "_sides", no_table)
    for j in range(1, w.p):
        assert symmetrize(eigen_det_class(w, j)) == sym_eigen_det_class(w, j)
    for full, sym in zip(weighted_pullbacks(w), sym_weighted_pullbacks(w)):
        assert symmetrize(full) == sym
    eigen = [eigen_det_class(w, j) for j in range(1, w.p)]
    for f in random.Random(w.n * w.p).sample(enumerate_sym_fcurves(w.n), 50):
        curve = standard_full_fcurve(f)
        tails = [sum(w.d[i - 1] for i in block) for block in curve.blocks]
        for j, e in enumerate(eigen, 1):
            assert full_pairing(e, curve) == eigen_rank_degree_fcurve(*tails, w.p, j)[1]


def test_layout_tables_stay_at_their_bound():
    # 0 on marking 1, and each pattern of 0s and 1s on markings 2..10: one
    # distinct partition, so one layout, per weight datum
    for i in range(moduli._LAYOUTS + 20):
        head = (0, *(i >> b & 1 for b in range(9)))
        WeightData(head + (sum(head) % 2,), 2)._profiles
    info = moduli._interned.cache_info()
    assert info.currsize == info.maxsize == moduli._LAYOUTS
    assert moduli._radix.cache_info().currsize <= moduli._LAYOUTS


def test_side_tables_are_dropped_two_n_later():
    # delta_map at n = 16 builds the side table of n = 16, its 2^15 − 17
    # masks and the sets of the 21,829 nonzero sides (16 MiB); two
    # delta_maps at other n evict it
    big = eigen_det_class(WeightData((1,) * 14 + (2, 2), 3), 1)
    small = [eigen_det_class(WeightData((1,) * 6, 3), 1),
             eigen_det_class(WeightData((1,) * 5 + (2, 2), 3), 1)]
    moduli._sides.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        assert len(big.delta_map()) == 21829  # the sides of weight sum prime to 3
        for d in small:
            d.delta_map()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak > 8 * 2 ** 20 and retained < 2 ** 20


def test_a_sparse_class_makes_only_its_side_sets():
    d = FullDivisor(14, (), {frozenset({1, 2}): 1, frozenset({3, 4, 14}): 2})
    moduli._sides.cache_clear()
    assert d.delta_map() == {frozenset({1, 2}): 1, frozenset(range(5, 14)) | {1, 2}: 2}
    assert list(moduli._sides(14)[1].values()) == list(d.delta_map())


def test_weighted_pullbacks_single_heavy_marking():
    w = WeightData((1, 1, 1, 1, 1, 1, 1, 1, 2), 2)
    lam, irr, red = (symmetrize(d) for d in weighted_pullbacks(w))
    assert lam.class_vector() == frac_vec("1/6", "1/6", "2/9")
    combo = 10 * lam - irr - 2 * red
    assert combo.class_vector() == frac_vec("1/9", "1/3", "2/3")
    assert proportional(combo, sym_divisor_from_vector(9, (1, 3, 6))) == Fraction(1, 9)


def test_weighted_pullbacks_dropped_marking():
    # weight 0 on a marking forgets it before taking the cover
    w = WeightData((1, 1, 1, 1, 1, 1, 0), 2)
    lam = symmetrize(weighted_pullbacks(w)[0])
    assert lam.class_vector() == frac_vec("1/7", "1/7")
    lam3 = symmetrize(weighted_pullbacks(WeightData((1, 1, 1, 1, 1, 1, 0), 3))[0])
    assert lam3.class_vector() == frac_vec("2/21", "2/7")


def test_eigen_det_sums_to_hodge():
    for d, p in (((1,) * 6, 2), ((1,) * 6, 3), ((1,) * 9, 3),
                 ((1, 1, 1, 1, 1, 1, 0), 3), ((1, 1, 1, 1, 1, 1, 1, 1, 2), 5)):
        w = WeightData(d, p)
        total = eigen_det_class(w, 1)
        for j in range(2, p):
            total = total + eigen_det_class(w, j)
        assert total == weighted_pullbacks(w)[0]


def test_eigen_det_character_symmetry():
    w = WeightData((1,) * 10, 5)
    assert eigen_det_class(w, 1) == eigen_det_class(w, 4)
    assert eigen_det_class(w, 2) == eigen_det_class(w, 3)
    with pytest.raises(ValueError):
        eigen_det_class(w, 0)
    with pytest.raises(ValueError):
        eigen_det_class(w, 5)
    with pytest.raises(TypeError):
        eigen_det_class(WeightData((1,) * 10, 5))  # the character is required


def test_eigen_det_known_rays():
    e1 = symmetrize(eigen_det_class(WeightData((1,) * 10, 5), 1))
    assert e1.class_vector() == frac_vec("1/45", "1/15", "2/15", "2/9")
    e3 = symmetrize(eigen_det_class(WeightData((1,) * 10, 10), 3))
    assert proportional(e3, sym_divisor_from_vector(10, (2, 6, 6, 5))) == Fraction(1, 30)


def test_conformal_blocks_class():
    d = (1,) * 10
    assert conformal_blocks_class(5, d) == 5 * eigen_det_class(WeightData(d, 5), 1)
    sym = symmetrize(conformal_blocks_class(5, d))
    assert sym.class_vector() == frac_vec("1/9", "1/3", "2/3", "10/9")


def test_p5_class_expansions():
    assert p5_class(10, 1).class_vector() == frac_vec("10/9", "30/9", "60/9", "55/9")
    assert proportional(
        p5_class(10, 2), sym_divisor_from_vector(10, (4, 6, 6, 7))
    ) == Fraction(15, 9)
    with pytest.raises(ValueError):
        p5_class(12, 1)
    with pytest.raises(ValueError):
        p5_class(10, 3)


def test_p5_class_fnef():
    for n in (10, 15):
        for j in (1, 2):
            div = p5_class(n, j)
            assert all(sym_pairing(div, f) >= 0 for f in enumerate_sym_fcurves(n))


def test_p5_class_from_eigen_dets():
    for n in (10, 15):
        irr = pullback_boundary(n, 5)[0]
        for j in (1, 2):
            e = symmetrize(eigen_det_class(WeightData((1,) * n, 5), j))
            assert 50 * e - irr == p5_class(n, j)


def test_log_canonical_coefficients():
    lc = log_canonical_class(6, 2)
    assert lc.psi == 1
    assert lc.delta(2) == -Fraction(3, 2)
    assert lc.delta(3) == -1


def test_log_canonical_fnef_for_odd_degree():
    for n, p in ((6, 3), (9, 3), (10, 5), (15, 3), (15, 5)):
        lc = log_canonical_class(n, p)
        assert all(sym_pairing(lc, f) >= 0 for f in enumerate_sym_fcurves(n))


def test_log_canonical_fails_for_even_degree():
    cases = ((6, 2, (3, 1, 1, 1)), (8, 2, (5, 1, 1, 1)), (12, 4, (6, 2, 2, 2)))
    for n, p, parts in cases:
        lc = log_canonical_class(n, p)
        assert sym_pairing(lc, SymFCurve(parts)) == -Fraction(1, 2)


def test_hodge_vanishing_iff_part_divisible():
    # for prime degree the Hodge pullback kills exactly the F-curves with a
    # part divisible by the degree
    for n, p in PRIME_PAIRS:
        lam = hodge_class(n, p)
        for f in enumerate_sym_fcurves(n):
            vanishes = sym_pairing(lam, f) == 0
            assert vanishes == any(v % p == 0 for v in f.parts)


def test_hodge_vanishing_on_test_curves():
    for n, p in PRIME_PAIRS:
        lam = hodge_class(n, p)
        for k in range(3, n // 2 + 1):
            deg = tk_pairing(lam, k)
            assert (deg == 0) == (k % p == 0)
