"""yangkit: exact-arithmetic toolkit for R-matrix presentations of
Yangians of the classical Lie algebras sl_N, so_N, sp_N.

Layers:
  exact    -- rationals, truncated u^{-1}-series (scalar or matrix
              coefficients, one TruncSeries type), univariate polynomials,
              bivariate identity certification
  liealg   -- classical Lie algebra data, Casimir elements, adjoint-module
              decompositions, finite-dimensional verification reports
  rmatrix  -- rational R-matrices, QYBE/unitarity checks, the order-by-order
              intertwiner solver
  freealg  -- the free algebra on the t_{ij}^{(r)} generators, the
              generator matrix T(u) and matrix-series products and
              inverses, and the structure maps (coproduct, antipode, m_f)
              as generator tables of one matrix series each, applied by
              substitute_poly
  yangian  -- RTT relations, ideal closures, PBW counts, quantum
              determinant, central series, Hopf and fixed-point reports
  cli      -- JSON-report command line driver

All results are exact; no floating point enters any returned value.
"""

from .exact import (
    TruncSeries,
    certify_bivariate_identity,
    NonInvertibleSeries,
    rat_to_str,
    series_shift,
)
from .liealg import (
    LieAlgebraData,
    Representation,
    CasimirData,
    Decomposition,
    build_lie,
    vector_rep,
    twisted_rep,
    casimir,
    decompose_ad,
    permutation_matrix,
    q_matrix,
    verify_classical_presentation,
    verify_current_presentation,
    verify_extension_split,
    verify_yangian_module,
    InvalidAlgebra,
    UnsupportedDecomposition,
    OverflowGuard,
)
from .rmatrix import (
    RMat,
    RSeries,
    yang_r,
    sosp_r,
    check_qybe,
    check_unitarity,
    solve_intertwiner,
    proportional_to,
    expansion_check,
    UnitarityFailure,
    NotAModule,
    NonIrreducible,
    NotProportional,
)
from .freealg import (
    NCPoly,
    TensorNCPoly,
    t_matrix,
    mat_mul,
    mat_inverse,
    transpose_t,
    coproduct_table,
    antipode_table,
    mf_table,
    substitute_poly,
)
from .yangian import (
    RTTPresentation,
    RelationClosure,
    CentralSeries,
    CPoly,
    EvalModule,
    rtt_relations,
    closure,
    closure_for_query,
    normal_form,
    is_in_ideal,
    slice_dimension,
    pbw_count,
    z_series,
    y_from_z,
    qdet,
    symmetry_series,
    verify_hopf,
    verify_fixed_point,
    verify_low_order_structure,
    central_monomial_certificate,
    WrongFamily,
    OutOfBounds,
    BoundsTooLarge,
)

__all__ = [
    "TruncSeries",
    "certify_bivariate_identity",
    "NonInvertibleSeries",
    "rat_to_str",
    "series_shift",
    "LieAlgebraData",
    "Representation",
    "CasimirData",
    "Decomposition",
    "build_lie",
    "vector_rep",
    "twisted_rep",
    "casimir",
    "decompose_ad",
    "permutation_matrix",
    "q_matrix",
    "verify_classical_presentation",
    "verify_current_presentation",
    "verify_extension_split",
    "verify_yangian_module",
    "InvalidAlgebra",
    "UnsupportedDecomposition",
    "OverflowGuard",
    "RMat",
    "RSeries",
    "yang_r",
    "sosp_r",
    "check_qybe",
    "check_unitarity",
    "solve_intertwiner",
    "proportional_to",
    "expansion_check",
    "UnitarityFailure",
    "NotAModule",
    "NonIrreducible",
    "NotProportional",
    "NCPoly",
    "TensorNCPoly",
    "t_matrix",
    "mat_mul",
    "mat_inverse",
    "transpose_t",
    "coproduct_table",
    "antipode_table",
    "mf_table",
    "substitute_poly",
    "RTTPresentation",
    "RelationClosure",
    "CentralSeries",
    "CPoly",
    "EvalModule",
    "rtt_relations",
    "closure",
    "closure_for_query",
    "normal_form",
    "is_in_ideal",
    "slice_dimension",
    "pbw_count",
    "z_series",
    "y_from_z",
    "qdet",
    "symmetry_series",
    "verify_hopf",
    "verify_fixed_point",
    "verify_low_order_structure",
    "central_monomial_certificate",
    "WrongFamily",
    "OutOfBounds",
    "BoundsTooLarge",
]

__version__ = "0.1.0"
