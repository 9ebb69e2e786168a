"""Exact-arithmetic toolkit for cycle matrices, bdsw sign patterns, and the
Z-matrix taxonomy (M, N, N0, F0 and the L-band index).

Everything is computed over rationals, so every equality in the test suites
and verification campaigns is exact. The matrix layer is the oracle: each
closed-form result (determinants, inverses, class verdicts) is checked
against plain elimination on demand.
"""

from zmx.construct import (
    TypeDVerification,
    bdsw_matrix,
    circulant_conditions,
    circulant_pz,
    from_cyclic_params,
    is_tridiagonal,
    shift_matrix,
    type_d,
    type_d_verify,
)
from zmx.cyclic import (
    CyclicProducts,
    Verdict,
    bdsw_sign_classify,
    cyclic_det,
    cyclic_inverse,
    cyclic_products,
    is_bdsw,
    is_full,
    is_inverse_cyclic,
    roundtrip_check,
)
from zmx.digraph import (
    Digraph,
    Path,
    digraph_of,
    enumerate_paths,
    is_irreducible,
    is_unipathic,
    maybee_entry,
    to_dot,
)
from zmx.errors import (
    ORDER_CAP,
    MatrixParseError,
    NotInverseCyclicError,
    NotZMatrixError,
    OrderCapError,
    SingularMatrixError,
)
from zmx.matrix import (
    IndexSet,
    Matrix,
    Rational,
    complementary_minor_check,
    det,
    inverse,
    principal_minor,
    submatrix,
)
from zmx.verify import CAMPAIGNS, VerifySummary, run_verify
from zmx.zclass import (
    ClassReport,
    ZRepresentation,
    classify,
    is_f0,
    is_m,
    is_n,
    is_n0,
    is_nonsingular_m,
    is_z,
    l_index,
    perron_r,
    z_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "CAMPAIGNS",
    "ClassReport",
    "CyclicProducts",
    "Digraph",
    "IndexSet",
    "Matrix",
    "MatrixParseError",
    "NotInverseCyclicError",
    "NotZMatrixError",
    "ORDER_CAP",
    "OrderCapError",
    "Path",
    "Rational",
    "SingularMatrixError",
    "TypeDVerification",
    "Verdict",
    "VerifySummary",
    "ZRepresentation",
    "bdsw_matrix",
    "bdsw_sign_classify",
    "circulant_conditions",
    "circulant_pz",
    "classify",
    "complementary_minor_check",
    "cyclic_det",
    "cyclic_inverse",
    "cyclic_products",
    "det",
    "digraph_of",
    "enumerate_paths",
    "from_cyclic_params",
    "inverse",
    "is_bdsw",
    "is_f0",
    "is_full",
    "is_inverse_cyclic",
    "is_irreducible",
    "is_m",
    "is_n",
    "is_n0",
    "is_nonsingular_m",
    "is_tridiagonal",
    "is_unipathic",
    "is_z",
    "l_index",
    "maybee_entry",
    "perron_r",
    "principal_minor",
    "roundtrip_check",
    "run_verify",
    "shift_matrix",
    "submatrix",
    "to_dot",
    "type_d",
    "type_d_verify",
    "z_decompose",
]
