import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fcone import exactlin
from fcone.cones import (
    Certificate,
    ConeH,
    ConeV,
    _cleared_signs,
    _containing,
    contains,
    extremality_certificate,
    extreme_rays,
)
from fcone.exactlin import _SignTable, _certificate, _field_width, dot, rank
from fcone.moduli import (enumerate_sym_fcurves, fcurve_certificate, sym_divisor_from_vector,
                          zero_and_negative_fcurves)
from fcone.tables import fcone_rays, fcurve_cone

from oracles import extreme_rays_by_enumeration, reference_rank


def random_pointed_cone(rng, max_normals=10):
    # rejection sampling: the brute-force oracle needs full-rank normals
    while True:
        dim = rng.randint(2, 4)
        count = rng.randint(dim, max_normals)
        normals = tuple(
            tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(count)
        )
        cone = ConeH(dim, normals)
        if cone.normals and rank(cone.normals) == dim:
            return cone


def test_coneh_canonicalizes_normals():
    cone = ConeH(2, ((2, 4), (1, 2), (0, 0), (-1, -2)))
    assert cone.normals == ((1, 2), (-1, -2))


def test_coneh_rejects_bad_input():
    with pytest.raises(ValueError):
        ConeH(0, ())
    with pytest.raises(ValueError):
        ConeH(2, ((1, 2, 3),))


def test_conev_rejects_bad_input():
    with pytest.raises(ValueError, match="^cone dimension must be at least 1$"):
        ConeV(0, ())
    with pytest.raises(ValueError, match=r"^generator \(1, 2, 3\) does not have dimension 2$"):
        ConeV(2, ((1, 0),), ((1, 2, 3),))


def test_one_dimensional_cones_certify_with_no_rows():
    # rank dim − 1 = 0: exactlin._certificate returns before its scan
    assert extremality_certificate(ConeH(1, ((1,),)), (1,)) == Certificate((), 0)
    assert fcurve_certificate(enumerate_sym_fcurves(5)) == []


def test_conev_reduces_rays_modulo_lineality():
    cone = ConeV(2, rays=((1, 5),), lineality=((0, 1),))
    assert cone.rays == ((1, 0),)
    assert cone.lineality == ((0, 1),)
    # a ray inside the lineality space disappears
    assert ConeV(2, rays=((0, 3),), lineality=((0, 1),)).rays == ()


def test_conev_equality_is_presentation_independent():
    a = ConeV(3, rays=((2, 2, 0), (0, 1, 0)), lineality=((0, 0, 5),))
    b = ConeV(3, rays=((0, 2, 2), (1, 1, 7)), lineality=((0, 0, -1),))
    assert a == b


@st.composite
def conev_presentations(draw):
    """Rays and a lineality basis, and a second presentation of the same
    cone: the rays shuffled, each scaled by a positive integer and shifted
    by an integer combination of the lineality, and the lineality replaced
    by an invertible integer combination of its rows."""
    dim = draw(st.integers(1, 5))
    vectors = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
    rays = draw(st.lists(vectors, max_size=5))
    lin = draw(st.lists(vectors, max_size=3))
    moved = []
    for r in draw(st.permutations(rays)):
        scale = draw(st.integers(1, 5))
        v = [scale * x for x in r]
        for w in lin:
            c = draw(st.integers(-3, 3))
            v = [x + c * y for x, y in zip(v, w)]
        moved.append(tuple(v))
    # row additions and nonzero scalings are invertible
    combined = [list(w) for w in lin]
    for i in range(len(lin)):
        for j in range(len(lin)):
            if i != j:
                c = draw(st.integers(-3, 3))
                combined[i] = [x + c * y for x, y in zip(combined[i], combined[j])]
        k = draw(st.integers(-3, 3).filter(bool))
        combined[i] = [k * x for x in combined[i]]
    return (
        ConeV(dim, tuple(map(tuple, rays)), tuple(map(tuple, lin))),
        ConeV(dim, tuple(moved), tuple(map(tuple, combined))),
    )


@given(conev_presentations())
def test_conev_canonical_form_is_presentation_independent(pair):
    a, b = pair
    assert a == b


def test_contains():
    orthant = ConeH(2, ((1, 0), (0, 1)))
    assert contains(orthant, (3, 0))
    assert not contains(orthant, (-1, 2))
    with pytest.raises(ValueError):
        contains(orthant, (1, 2, 3))


def test_extremality_certificate_on_orthant():
    orthant = ConeH(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    cert = extremality_certificate(orthant, (1, 0, 0))
    assert isinstance(cert, Certificate)
    assert cert.rank == 2
    assert set(cert.indices) == {1, 2}
    # points on a 2-face or in the interior are not extreme
    assert extremality_certificate(orthant, (1, 1, 0)) is None
    assert extremality_certificate(orthant, (1, 1, 1)) is None
    with pytest.raises(ValueError):
        extremality_certificate(orthant, (-1, 0, 0))


def test_extremality_certificate_needs_a_pointed_cone():
    # (0, 0, 1) spans the lineality line of this cone, no extreme ray
    wedge = ConeH(3, ((1, 0, 0), (0, 1, 0)))
    assert not wedge.pointed
    for v in ((0, 0, 1), (1, 0, 0), (0, 0, 0)):
        with pytest.raises(ValueError, match="pointed"):
            extremality_certificate(wedge, v)
    assert not ConeH(2, ()).pointed
    assert ConeH(2, ((1, 0), (0, 1))).pointed


@pytest.mark.parametrize("n", [4, 5, 6, 12, 21])
def test_extremality_certificate_at_the_zero_vector(n):
    # every normal is tight at 0 and a pointed cone's normals have rank dim,
    # so the scan must not stop at dim − 1
    cone = fcurve_cone(n)
    assert cone.pointed
    assert extremality_certificate(cone, (0,) * cone.dim) is None


def test_extreme_rays_square_cone():
    cone = ConeH(2, ((1, 0), (0, 1)))
    assert extreme_rays(cone) == ConeV(2, ((1, 0), (0, 1)))


def test_extreme_rays_pyramid():
    cone = ConeH(3, ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)))
    expected = {(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)}
    assert set(extreme_rays(cone).rays) == expected


def test_extreme_rays_halfspace_keeps_lineality():
    cone = ConeH(3, ((1, 0, 0),))
    v = extreme_rays(cone)
    assert v.rays == ((1, 0, 0),)
    assert v.lineality == ((0, 1, 0), (0, 0, 1))


def test_extreme_rays_origin_only():
    cone = ConeH(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
    v = extreme_rays(cone)
    assert v.rays == () and v.lineality == ()


def test_no_inequalities_means_whole_space():
    v = extreme_rays(ConeH(3, ()))
    assert v.rays == ()
    assert len(v.lineality) == 3


def test_double_description_matches_brute_force():
    rng = random.Random(20260819)
    for _ in range(60):
        cone = random_pointed_cone(rng)
        assert extreme_rays(cone) == extreme_rays_by_enumeration(cone)


def test_double_description_matches_brute_force_on_many_normals():
    # 17..24 normals near a circle in dim 3: the late steps see 16 or more
    # inserted normals, so their tight sets pack into 3-byte fields
    rng = random.Random(20261018)
    for _ in range(20):
        count = rng.randint(17, 24)
        normals = []
        for _ in range(count):
            angle = rng.uniform(0, 2 * math.pi)
            radius = rng.randint(20, 60)
            normals.append((
                round(radius * math.cos(angle)),
                round(radius * math.sin(angle)),
                radius + rng.randint(-3, 3),
            ))
        cone = ConeH(3, tuple(normals))
        assert rank(cone.normals) == 3
        assert extreme_rays(cone) == extreme_rays_by_enumeration(cone)


def test_double_description_permutation_invariant():
    rng = random.Random(7)
    for _ in range(25):
        cone = random_pointed_cone(rng)
        shuffled = list(cone.normals)
        rng.shuffle(shuffled)
        assert extreme_rays(ConeH(cone.dim, tuple(shuffled))) == extreme_rays(cone)


def test_double_description_scale_invariant():
    rng = random.Random(11)
    for _ in range(25):
        cone = random_pointed_cone(rng)
        factors = [rng.randint(1, 5) for _ in cone.normals]
        scaled = ConeH(
            cone.dim,
            tuple(tuple(c * x for x in a) for c, a in zip(factors, cone.normals)),
        )
        assert extreme_rays(scaled) == extreme_rays(cone)


def test_rays_lie_in_cone_and_lineality_is_tight():
    rng = random.Random(23)
    for _ in range(20):
        dim = rng.randint(2, 4)
        count = rng.randint(1, 6)
        cone = ConeH(
            dim,
            tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(count)),
        )
        v = extreme_rays(cone)
        for r in v.rays:
            assert contains(cone, r)
        for w in v.lineality:
            assert all(dot(a, w) == 0 for a in cone.normals)


@st.composite
def cones_with_repeats(draw):
    """Random cones, some of them not pointed or not full-dimensional: after
    the random normals come repeats of them scaled by k in -3..3, which
    gives duplicate (k = 1), parallel (k > 1), opposite (k < 0) and zero
    normals."""
    dim = draw(st.integers(2, 6))
    vector = st.tuples(*[st.integers(-3, 3)] * dim)
    normals = draw(st.lists(vector, max_size=8))
    if normals:
        for a in draw(st.lists(st.sampled_from(normals), max_size=3)):
            k = draw(st.integers(-3, 3))
            normals.append(tuple(k * x for x in a))
    return ConeH(dim, tuple(normals))


@settings(max_examples=200, deadline=None)
@given(cone=cones_with_repeats(), data=st.data())
def test_double_description_properties(cone, data):
    v = extreme_rays(cone)
    shuffled = data.draw(st.permutations(cone.normals))
    assert extreme_rays(ConeH(cone.dim, tuple(shuffled))) == v
    for r in v.rays:
        assert contains(cone, r)
    for w in v.lineality:
        assert all(dot(a, w) == 0 for a in cone.normals)
    assert cone.pointed == (reference_rank(cone.normals) == cone.dim)
    if cone.pointed:
        assert v == extreme_rays_by_enumeration(cone)


@st.composite
def incidence_steps(draw):
    """One DD step's tight sets, the rays alive in it and a common tight set.

    Ray j has id j and a tight set over m ≤ 40 normals; the rays not in
    present died in earlier steps but stay in the incidence bitsets.  The
    masks come with repeats, and common is either 0 or the tight set shared
    by two present rays, sometimes with extra masks that contain it.
    """
    m = draw(st.integers(1, 40))
    mask = st.integers(0, (1 << m) - 1)
    masks = draw(st.lists(mask, min_size=2, max_size=10))
    masks += draw(st.lists(st.sampled_from(masks), max_size=3))
    i, j = draw(st.lists(st.integers(0, len(masks) - 1), min_size=2, max_size=2, unique=True))
    common = masks[i] & masks[j] if draw(st.booleans()) else 0
    masks += [t | common for t in draw(st.lists(mask, max_size=2))]
    alive = [draw(st.booleans()) for _ in masks]
    alive[i] = alive[j] = True
    rays = draw(st.permutations(list(zip(masks, alive))))
    return [t for t, _ in rays], [a for _, a in rays], common


@settings(max_examples=300, deadline=None)
@given(incidence_steps())
# a third ray with an equal mask still counts
@example(([0b110, 0b110, 0b110], [True] * 3, 0b110))
# exactly two rays, common = 0
@example(([0, 1 << 39], [True, True], 0))
def test_incidence_matches_a_loop_over_the_masks(step):
    masks, alive, common = step
    inc = [sum(1 << j for j, t in enumerate(masks) if t >> i & 1) for i in range(40)]
    present = sum(1 << j for j, a in enumerate(alive) if a)
    expected = [a and t & common == common for t, a in zip(masks, alive)]
    assert _containing(common, inc, present) == sum(1 << j for j, e in enumerate(expected) if e)


def test_double_description_keeps_the_lineality_ray_off_its_own_wall():
    # the ray a lineality step makes is strictly positive on the new normal,
    # so it is tight at every earlier wall but not at that one; counting it
    # there loses two of the four rays
    assert len(extreme_rays(fcurve_cone(8)).rays) == 4
    assert extreme_rays(fcurve_cone(8)) == extreme_rays_by_enumeration(fcurve_cone(8))


@pytest.mark.parametrize("n", range(6, 20))
def test_fcone_dual_round_trip(n):
    # n stops at 19 (about 5 s); n = 20 takes about 100 s
    rays = fcone_rays(n)
    facets = extreme_rays(ConeH(rays.dim, rays.rays))
    assert facets.lineality == ()
    assert set(facets.rays) <= set(fcurve_cone(n).normals)
    assert extreme_rays(ConeH(rays.dim, facets.rays)) == rays


def test_enumeration_oracle_requires_pointed():
    with pytest.raises(ValueError):
        extreme_rays_by_enumeration(ConeH(3, ((1, 0, 0),)))


# ---------------------------------------------------------------------------
# contains and extremality_certificate on rational vectors, against Fraction
# dot products.


def fraction_dot(a, v) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, v)), Fraction(0))


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=30)
positive_scales = st.fractions(min_value=Fraction(1, 30), max_value=30, max_denominator=30)


@st.composite
def cones_and_vectors(draw):
    """A cone (an F-cone for n = 6..14, or a random one) and a rational
    vector: a scaled ray, a positive sum of two rays, or any vector."""
    if draw(st.booleans()):
        cone = fcurve_cone(draw(st.integers(6, 14)))
    else:
        cone = draw(cones_with_repeats())
    rays = extreme_rays(cone).rays
    kind = draw(st.sampled_from(["ray", "sum", "any"] if rays else ["any"]))
    if kind == "any":
        return cone, tuple(draw(st.lists(rationals, min_size=cone.dim, max_size=cone.dim)))
    r = draw(st.sampled_from(rays))
    v = [draw(positive_scales) * x for x in r]
    if kind == "sum":
        s = draw(st.sampled_from(rays))
        c = draw(positive_scales)
        v = [x + c * y for x, y in zip(v, s)]
    return cone, tuple(v)


# Pointed cones whose largest normal L1 norm L is 1, 7, 255 and 256, and one
# with entries two and three bytes wide; each has the tight normal e3.
BOUNDARY_CONES = [ConeH(3, normals) for normals in (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((3, 4, 0), (-1, 6, 0), (0, 0, 1)),
    ((254, 1, 0), (-127, 128, 0), (0, 0, 1)),
    ((255, 1, 0), (1, 255, 0), (0, 0, 1)),
    ((300, -7, 0), (-1, 299, 0), (0, 0, 1), (-65536, 65537, 1)),
)]


def width_boundary_cases() -> list:
    """(cone, vector) pairs on either side of a field-width step of the
    packed kernel: max|v| = 2^(8w−k) − 1, the largest that fits w bytes, and
    2^(8w−k), the smallest that needs w + 1, where k = bitlen L + 1, for
    w = 1, 2, 8, 9 and both signs.  v = ±(m, m − 1, 0) is primitive, so
    clearing keeps it, and its dot with a normal comes near L·m."""
    cases = []
    for cone in BOUNDARY_CONES:
        k = max(sum(map(abs, a)) for a in cone.normals).bit_length() + 1
        for w in (1, 2, 8, 9):
            if 8 * w >= k:
                for m in (2 ** (8 * w - k) - 1, 2 ** (8 * w - k)):
                    cases += [(cone, (s * m, s * (m - 1), 0)) for s in (1, -1) if m]
    return cases


def with_width_boundary_examples(test):
    for case in width_boundary_cases():
        test = example(case, Fraction(1))(test)
    return test


@settings(max_examples=200, deadline=None)
@given(cones_and_vectors(), positive_scales)
@with_width_boundary_examples
def test_contains_and_certificate_match_fraction_dots(cone_and_vector, scale):
    cone, v = cone_and_vector
    slacks = [fraction_dot(a, v) for a in cone.normals]
    inside = all(s >= 0 for s in slacks)
    scaled = tuple(scale * x for x in v)
    assert contains(cone, v) == inside
    assert contains(cone, scaled) == inside
    if not inside:
        with pytest.raises(ValueError):
            extremality_certificate(cone, v)
        return
    if reference_rank(cone.normals) < cone.dim:
        # a cone with lineality has no extreme ray to certify
        with pytest.raises(ValueError, match="pointed"):
            extremality_certificate(cone, v)
        return
    tight = [i for i, s in enumerate(slacks) if s == 0]
    cert = extremality_certificate(cone, v)
    tight_rank = reference_rank([cone.normals[i] for i in tight])
    assert (cert is not None) == (tight_rank == cone.dim - 1)
    if cert is not None:
        assert set(cert.indices) <= set(tight)
        assert cert.rank == len(cert.indices) == cone.dim - 1
        assert reference_rank([cone.normals[i] for i in cert.indices]) == cone.dim - 1
    assert extremality_certificate(cone, scaled) == cert


def test_width_boundary_cases_cross_every_width_step():
    # the examples above reach the widths they are named for
    widths = {(cone, _field_width(v, max(sum(map(abs, a)) for a in cone.normals)))
              for cone, v in width_boundary_cases()}
    for cone in BOUNDARY_CONES:
        reached = {w for c, w in widths if c is cone}
        assert {9, 10} <= reached
    assert {1, 2, 3} <= {w for c, w in widths if c is BOUNDARY_CONES[0]}


def test_coneh_with_filled_packs_equals_and_hashes_like_a_fresh_one():
    cone = ConeH(4, fcurve_cone(11).normals)
    for v in [(1, 0, 0, 0), (2 ** 70, 1, 0, -3), (-5, 2 ** 20, 7, 1)]:
        contains(cone, v)
    assert len(cone._sign_table._packed) == 3
    fresh = ConeH(4, fcurve_cone(11).normals)
    assert fresh == cone and hash(fresh) == hash(cone)
    assert {cone: 1}[fresh] == 1


def counted_signs(monkeypatch) -> list:
    """Each vector _SignTable.signs is called on, in order."""
    calls = []
    signs = _SignTable.signs

    def counted(table, v):
        calls.append(v)
        return signs(table, v)

    monkeypatch.setattr(_SignTable, "signs", counted)
    return calls


def test_certificate_after_contains_reads_the_kept_signs(monkeypatch):
    cone = ConeH(4, fcurve_cone(11).normals)
    ray = tuple(Fraction(x, 3) for x in extreme_rays(cone).rays[0])
    calls = counted_signs(monkeypatch)
    assert contains(cone, ray)
    cert = extremality_certificate(cone, ray)
    assert len(calls) == 1
    assert cert == extremality_certificate(ConeH(4, cone.normals), ray) and cert is not None


def test_a_class_vector_is_signed_once_and_never_cleared(monkeypatch):
    cone = ConeH(4, fcurve_cone(11).normals)
    ray = extreme_rays(cone).rays[0]
    v = sym_divisor_from_vector(11, [Fraction(x, 3) for x in ray]).class_vector()
    calls = counted_signs(monkeypatch)
    clears = []
    over_lcm = exactlin._over_lcm
    monkeypatch.setattr(exactlin, "_over_lcm",
                        lambda values: clears.append(values) or over_lcm(values))
    assert contains(cone, v)
    cert = extremality_certificate(cone, v)
    assert calls == [v.ray] and calls[0] is v.ray and clears == []
    assert cert is not None and cone._signed[0] is v


@pytest.mark.parametrize("n", range(6, 15))
def test_a_class_vector_and_its_plain_copy_get_one_verdict(n):
    cone = fcurve_cone(n)
    rays = fcone_rays(n).rays
    classes = [sym_divisor_from_vector(n, ray) * Fraction(1, i % 5 + 1)
               for i, ray in enumerate(rays)]
    # the rays with denominators, a sum of two that is no ray, and negatives
    # that are not F-nef
    classes += [classes[0] + classes[-1], -classes[0], classes[0] - 2 * classes[-1]]
    for d in classes:
        v = d.class_vector()
        plain = tuple(v)
        nef = contains(cone, v)
        assert nef == contains(cone, plain)
        if nef:
            assert extremality_certificate(cone, v) == extremality_certificate(cone, plain)


def test_the_kept_signs_are_read_only_for_the_same_tuple_on_the_same_cone(monkeypatch):
    cone = ConeH(4, fcurve_cone(11).normals)
    ray, other = extreme_rays(cone).rays[:2]
    outside = tuple(-x for x in ray)
    calls = counted_signs(monkeypatch)
    # a tuple of equal values that is another object is signed again
    assert contains(cone, ray)
    assert contains(cone, tuple(x for x in ray))
    assert len(calls) == 2
    # so is every other tuple, and the kept one is then dropped
    assert not contains(cone, outside)
    with pytest.raises(ValueError, match="not in the cone"):
        extremality_certificate(cone, outside)
    assert extremality_certificate(cone, other) is not None
    assert contains(cone, ray) and extremality_certificate(cone, ray) is not None
    assert len(calls) == 5 and cone._signed[0] is ray
    # a list is signed on every call, so a change between calls is seen
    v = list(ray)
    assert contains(cone, v)
    v[:] = outside
    assert not contains(cone, v)
    with pytest.raises(ValueError, match="not in the cone"):
        extremality_certificate(cone, v)
    assert len(calls) == 8 and cone._signed[0] is ray
    # the same tuple on another cone is signed against that cone
    flipped = ConeH(4, [tuple(-x for x in a) for a in cone.normals])
    assert not contains(flipped, ray)
    assert contains(flipped, outside)
    assert len(calls) == 10
    # a vector of another dimension gets the same error as ever
    short = ray[:3]
    orthant = ConeH(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert contains(orthant, short) == all(x >= 0 for x in short)
    with pytest.raises(ValueError, match="^vector of dimension 3 against cone of dimension 4$"):
        contains(cone, short)
    with pytest.raises(ValueError, match="^vector of dimension 3 against cone of dimension 4$"):
        extremality_certificate(cone, short)


def greedy_certificate(cone: ConeH, v) -> tuple:
    """Oracle for extremality_certificate: keep a normal tight at v iff it
    raises the reference rank of the normals kept before it."""
    kept = []
    for i, a in enumerate(cone.normals):
        if fraction_dot(a, v) == 0 and \
                reference_rank([cone.normals[k] for k in [*kept, i]]) > len(kept):
            kept.append(i)
    return tuple(kept)


@pytest.mark.parametrize("n", range(6, 17))
def test_certificate_of_every_fcone_ray_is_the_greedy_choice(n):
    cone = fcurve_cone(n)
    for ray in fcone_rays(n).rays:
        assert extremality_certificate(cone, ray).indices == greedy_certificate(cone, ray)


def fcurve_positions(n: int, v) -> tuple:
    """The enumeration positions of the curves fcurve_certificate keeps among
    the zero curves of the class with pure-D coordinates v."""
    zero, _ = zero_and_negative_fcurves(sym_divisor_from_vector(n, v))
    curves = enumerate_sym_fcurves(n)
    return tuple(curves.index(f) for f in fcurve_certificate(zero))


@pytest.mark.parametrize("n", range(6, 19))
def test_both_readers_of_the_certificate_scan_agree_on_every_fcone_ray(n):
    # each F-curve type is a distinct normal of fcurve_cone(n), in enumeration order
    cone = fcurve_cone(n)
    assert len(cone.normals) == len(enumerate_sym_fcurves(n))
    for ray in fcone_rays(n).rays:
        assert extremality_certificate(cone, ray).indices == fcurve_positions(n, ray)


@pytest.mark.parametrize("n", range(6, 19))
def test_both_readers_of_the_certificate_scan_agree_on_sums_of_two_rays(n):
    # a sum of two rays is no ray: both readers find the tight rows short of
    # dim − 1, and the scan keeps the same rows for each
    cone = fcurve_cone(n)
    rays = fcone_rays(n).rays
    pairs = list(itertools.combinations(range(len(rays)), 2))
    for i, j in random.Random(n).sample(pairs, min(5, len(pairs))):
        v = tuple(a + b for a, b in zip(rays[i], rays[j]))
        _, zero, _ = _cleared_signs(cone, v)
        tight = list(itertools.compress(range(len(cone.normals)), zero))
        kept = _certificate(itertools.compress(cone._sign_table.rows, zero), cone.dim)
        assert tuple(tight[k] for k in kept) == fcurve_positions(n, v)
        assert len(kept) < cone.dim - 1
        assert extremality_certificate(cone, v) is None


def test_certificate_closes_on_a_dot_against_the_kernel(monkeypatch):
    # at v = e4 the tight normals are e1, e2, e1 + e2 and e3: the scan stops
    # at e1, e2, the row after the stop lies in their span, and e3 is the
    # first later row with a nonzero dot against their kernel
    kernels = []
    kernel = exactlin._kernel

    def counted_kernel(basis, ncols):
        kernels.append(len(basis))
        return kernel(basis, ncols)

    monkeypatch.setattr(exactlin, "_kernel", counted_kernel)
    cone = ConeH(4, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    v = (0, 0, 0, 1)
    cert = extremality_certificate(cone, v)
    assert kernels == [2]
    assert cert.indices == greedy_certificate(cone, v) == (0, 1, 3)
    assert cert.rank == 3
