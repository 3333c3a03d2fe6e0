"""Exact-arithmetic divisor classes on the moduli of pointed rational
curves: cyclic-cover pullbacks, eigenbundle determinants, F-curve
pairings, and polyhedral certificates for extremal rays."""

from .exactlin import (
    dot,
    format_rational,
    independent_rows,
    kernel_basis,
    parse_rational,
    primitive,
    rank,
    rref,
)
from .cones import (
    Certificate,
    ConeH,
    ConeV,
    contains,
    extremality_certificate,
    extreme_rays,
)
from .moduli import (
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
from .covers import (
    WeightData,
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
from .eigenforms import (
    BranchData,
    eigen_rank_degree_fcurve,
    h0_weight_3pt,
    h0_weight_4pt,
)
from .tables import (
    TABLE_NAMES,
    annotation_candidates,
    fcone_rays,
    fcurve_cone,
    ray_annotations,
    t3_certificate_blocks,
    table_csv,
    triple_cover_divisor,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # fcone.main loads the command line on first use: importing it here
    # would make ``python -m fcone.cli`` find fcone.cli already imported
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
