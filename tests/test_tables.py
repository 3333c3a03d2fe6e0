from fractions import Fraction
from pathlib import Path

import pytest

from fcone import tables
from fcone.covers import WeightData, eigen_det_class, weighted_pullbacks
from fcone.moduli import (
    SymFCurve,
    delta_range,
    enumerate_sym_fcurves,
    fcurve_class_vector,
    proportional,
    sym_divisor_from_vector,
    sym_pairing,
    symmetrize,
)
from fcone.tables import (
    COMBO_COEFFS,
    TABLE_NAMES,
    annotation_candidates,
    fcone_rays,
    ray_annotations,
    t3_certificate_blocks,
    table_csv,
    triple_cover_divisor,
)

from oracles import reference_rank

TABLES_DIR = Path(__file__).resolve().parents[1] / "tables"

# rows of the extremality certificate for the triple-cover class, keyed by
# number of markings: total row count and the greedily appended patch rows
CERTIFICATE_SHAPE = {
    12: (4, []),
    15: (5, ["F_{8,4,2,1}"]),
    18: (7, ["F_{8,8,1,1}"]),
    21: (8, ["F_{11,8,1,1}"]),
    24: (11, ["F_{11,10,2,1}"]),
    27: (12, ["F_{14,10,2,1}"]),
    30: (14, ["F_{14,14,1,1}"]),
    33: (15, ["F_{17,14,1,1}"]),
    36: (17, ["F_{17,16,2,1}"]),
    42: (20, ["F_{20,20,1,1}"]),
    48: (23, ["F_{23,22,2,1}"]),
    60: (29, ["F_{29,28,2,1}"]),
}


def window(n, label, lo, hi):
    """Certificate rows carrying `label`, restricted to columns D_lo..D_hi."""
    rows = []
    for block, f in t3_certificate_blocks(n):
        if block == label:
            vec = fcurve_class_vector(f)
            rows.append((str(f), tuple(int(x) for x in vec[lo - 2 : hi - 1])))
    return rows


def test_golden_files_match():
    for name in ("n6", "n7", "n9", "n10", "n10-fcurves"):
        assert table_csv(name) == (TABLES_DIR / f"{name}.csv").read_text()
    golden = (TABLES_DIR / "t3-certificates-n12.csv").read_text()
    assert table_csv("t3-certificates", n=12) == golden
    assert table_csv("t3-certificates") == golden
    # n = 48: the rank scan stops after 102 of its 204 rows
    golden = (TABLES_DIR / "t3-certificates-n48.csv").read_text()
    assert table_csv("t3-certificates", n=48) == golden
    # n = 96: 13-bit numerators, so the packed F-curve degrees take two-byte fields
    golden = (TABLES_DIR / "t3-certificates-n96.csv").read_text()
    assert table_csv("t3-certificates", n=96) == golden


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        table_csv("n8")
    with pytest.raises(ValueError, match="^table n6 takes no --n$"):
        table_csv("n6", n=9)
    assert set(TABLE_NAMES) == {"n6", "n7", "n9", "n10", "n10-fcurves", "t3-certificates"}


def test_ray_sets():
    assert fcone_rays(5).rays == ((1,),)
    assert set(fcone_rays(6).rays) == {(1, 3), (2, 1)}
    assert set(fcone_rays(7).rays) == {(1, 1), (1, 3)}
    assert set(fcone_rays(9).rays) == {(1, 1, 2), (1, 3, 2), (1, 3, 6), (3, 3, 4)}
    assert set(fcone_rays(10).rays) == {
        (1, 3, 3, 4),
        (1, 3, 6, 10),
        (2, 3, 3, 5),
        (2, 6, 6, 5),
        (2, 6, 12, 11),
        (4, 3, 6, 4),
        (4, 6, 6, 7),
    }


def test_annotations_witness_proportionality():
    for n in (6, 7, 9, 10):
        candidates = dict(annotation_candidates(n))
        rows = ray_annotations(n)
        assert len(rows) == len(fcone_rays(n).rays)
        for ray, labels in rows:
            assert labels, f"unidentified ray {ray} for n={n}"
            div = sym_divisor_from_vector(n, ray)
            for lab in labels:
                assert proportional(candidates[lab], div) is not None


def candidates_class_by_class(n):
    """annotation_candidates built one class at a time: symmetrize() of the
    per-marking classes, and SymDivisor arithmetic for the combinations."""
    out = []

    def cover(w, key, eigen_key, hodge, combo, eigen):
        lam, irr, red = (symmetrize(d) for d in weighted_pullbacks(w))
        out.append((f"{hodge}({key})", lam))
        for cl, ci, cr in COMBO_COEFFS:
            out.append((f"{combo}({key},{cl},{ci},{cr})", lam * cl + irr * ci + red * cr))
        for j in range(1, w.p):
            out.append((f"{eigen}({eigen_key},{j})", symmetrize(eigen_det_class(w, j))))

    for p in range(2, n + 1):
        if n % p == 0:
            cover(WeightData((1,) * n, p), f"{n},{p}", f"1^{n},{p}", "hodge", "combo", "eigen")
    if n % 5 == 0:
        w = WeightData((1,) * n, 5)
        irr = symmetrize(weighted_pullbacks(w)[1])
        for j in (1, 2):
            out.append((f"p5({n},{j})", 50 * symmetrize(eigen_det_class(w, j)) - irr))
    for v in (0, 2):
        weights = (1,) * (n - 1) + (v,)
        label = f"1^{n - 1} {v}"
        for p in range(2, n + 1):
            if sum(weights) % p == 0:
                key = f"{label},{p}"
                cover(WeightData(weights, p), key, key, "weighted", "wcombo", "eigenw")
    return out


@pytest.mark.parametrize("n", range(5, 13))
def test_annotation_candidates_match_the_class_by_class_build(n):
    def raw(candidates):
        return [(label, d.n, d._psi, d._delta, d._den) for label, d in candidates]

    assert raw(annotation_candidates(n)) == raw(candidates_class_by_class(n))


def proportional_by_division(d1, d2):
    """The dense Fraction proportionality test: divide one coordinate of the
    ψ-expanded classes, then check every coordinate."""
    n = d1.n

    def expand(d):
        return [d.delta(k) + d.psi * Fraction(k * (n - k), n - 1) for k in delta_range(n)]

    v1, v2 = expand(d1), expand(d2)
    if all(x == 0 for x in v2):
        return Fraction(1) if all(x == 0 for x in v1) else None
    i = next(i for i, x in enumerate(v2) if x != 0)
    c = v1[i] / v2[i]
    if c <= 0:
        return None
    return c if all(x == c * y for x, y in zip(v1, v2)) else None


@pytest.mark.parametrize("n", range(5, 15))
def test_ray_annotations_match_the_all_pairs_loop(n):
    candidates = annotation_candidates(n)
    expected = []
    for ray in fcone_rays(n).rays:
        div = sym_divisor_from_vector(n, ray)
        labels = [lab for lab, d in candidates if proportional_by_division(d, div) is not None]
        expected.append((ray, labels))
    assert ray_annotations(n) == expected


def test_triple_cover_divisor_is_fnef():
    div = triple_cover_divisor(12)
    assert str(div) == "SymDivisor(12, '2*psi - 2*D2 - 3*D3 - 2*D4 - 2*D5 - 3*D6')"
    assert [11 * c for c in div.class_vector()] == [18, 21, 42, 48, 39]
    assert all(sym_pairing(div, f) >= 0 for f in enumerate_sym_fcurves(12))


def test_certificate_keeps_the_first_label_of_a_repeated_curve(monkeypatch):
    # no curve is named by two blocks at n = 12..399, so a last block repeats them all
    expected = t3_certificate_blocks(24)
    blocks = tables._t3_curve_blocks(24)
    repeat = ("repeat", [f for _, curves in blocks for f in curves])
    monkeypatch.setattr(tables, "_t3_curve_blocks", lambda n: [*blocks, repeat])
    assert t3_certificate_blocks(24) == expected


def test_certificate_shape():
    for n, (count, patches) in CERTIFICATE_SHAPE.items():
        rows = t3_certificate_blocks(n)
        assert len(rows) == count
        assert [str(f) for label, f in rows if label == "patch"] == patches
        curves = [f for _, f in rows]
        assert len(set(curves)) == len(curves)
        div = triple_cover_divisor(n)
        assert all(sym_pairing(div, f) == 0 for f in curves)
        assert reference_rank([fcurve_class_vector(f) for f in curves]) == n // 2 - 2


def test_certificate_rejects_bad_n():
    with pytest.raises(ValueError):
        t3_certificate_blocks(13)
    with pytest.raises(ValueError):
        t3_certificate_blocks(9)


def test_certificate_guards(monkeypatch):
    # a block curve of nonzero degree, then a greedy patch one row short
    with monkeypatch.context() as m:
        m.setattr(tables, "_t3_curve_blocks", lambda n: [("base", [SymFCurve((9, 1, 1, 1))])])
        message = r"^certificate curve F_\{9,1,1,1\} has nonzero degree$"
        with pytest.raises(RuntimeError, match=message):
            t3_certificate_blocks(12)
    certificate = tables.fcurve_certificate
    monkeypatch.setattr(tables, "fcurve_certificate", lambda curves: certificate(curves)[:-1])
    with pytest.raises(RuntimeError, match="^certificate for n=12 spans rank 3, need 4$"):
        t3_certificate_blocks(12)


def test_leading_block_window():
    assert window(24, "block-0", 3, 8) == [
        ("F_{20,2,1,1}", (2, -1, 0, 0, 0, 0)),
        ("F_{19,2,2,1}", (2, 1, -1, 0, 0, 0)),
        ("F_{17,4,2,1}", (1, -1, 1, 1, -1, 0)),
        ("F_{17,5,1,1}", (0, 0, -1, 2, -1, 0)),
        ("F_{16,4,2,2}", (0, 0, 0, 2, 0, -1)),
        ("F_{16,5,2,1}", (1, 0, -1, 1, 1, -1)),
    ]


def test_generic_block_window():
    assert window(36, "block-1", 9, 14) == [
        ("F_{26,7,2,1}", (1, -1, 0, 0, 0, 0)),
        ("F_{26,8,1,1}", (2, -1, 0, 0, 0, 0)),
        ("F_{25,7,2,2}", (2, 0, -1, 0, 0, 0)),
        ("F_{22,10,2,2}", (0, -1, 0, 2, 0, -1)),
        ("F_{23,11,1,1}", (0, 0, -1, 2, -1, 0)),
        ("F_{22,11,2,1}", (0, 0, -1, 1, 1, -1)),
    ]


def test_final_block_windows():
    assert window(24, "final", 9, 12) == [
        ("F_{14,7,2,1}", (1, -1, 0, 0)),
        ("F_{14,8,1,1}", (2, -1, 0, 0)),
        ("F_{13,7,2,2}", (2, 0, -1, 0)),
        ("F_{11,11,1,1}", (0, 0, -2, 2)),
    ]
    assert window(27, "final", 9, 13) == [
        ("F_{17,7,2,1}", (1, -1, 0, 0, 0)),
        ("F_{17,8,1,1}", (2, -1, 0, 0, 0)),
        ("F_{14,11,1,1}", (0, 0, -1, 2, -1)),
        ("F_{16,8,2,1}", (1, 1, -1, 0, 0)),
        ("F_{13,11,2,1}", (0, 0, -1, 1, 0)),
    ]
    assert window(30, "final", 9, 15) == [
        ("F_{20,7,2,1}", (1, -1, 0, 0, 0, 0, 0)),
        ("F_{20,8,1,1}", (2, -1, 0, 0, 0, 0, 0)),
        ("F_{19,7,2,2}", (2, 0, -1, 0, 0, 0, 0)),
        ("F_{17,11,1,1}", (0, 0, -1, 2, -1, 0, 0)),
        ("F_{17,10,2,1}", (0, -1, 1, 1, -1, 0, 0)),
        ("F_{16,10,2,2}", (0, -1, 0, 2, 0, -1, 0)),
        ("F_{13,13,2,2}", (0, 0, 0, 0, -2, 0, 2)),
    ]
    assert window(33, "final", 9, 16) == [
        ("F_{23,7,2,1}", (1, -1, 0, 0, 0, 0, 0, 0)),
        ("F_{23,8,1,1}", (2, -1, 0, 0, 0, 0, 0, 0)),
        ("F_{22,7,2,2}", (2, 0, -1, 0, 0, 0, 0, 0)),
        ("F_{20,11,1,1}", (0, 0, -1, 2, -1, 0, 0, 0)),
        ("F_{20,10,2,1}", (0, -1, 1, 1, -1, 0, 0, 0)),
        ("F_{19,10,2,2}", (0, -1, 0, 2, 0, -1, 0, 0)),
        ("F_{17,13,2,1}", (0, 0, 0, 0, -1, 1, 1, -1)),
        ("F_{16,13,2,2}", (0, 0, 0, 0, -1, 0, 2, -1)),
    ]
    assert window(36, "final", 15, 18) == [
        ("F_{20,13,2,1}", (1, -1, 0, 0)),
        ("F_{20,14,1,1}", (2, -1, 0, 0)),
        ("F_{19,13,2,2}", (2, 0, -1, 0)),
        ("F_{17,17,1,1}", (0, 0, -2, 2)),
    ]
