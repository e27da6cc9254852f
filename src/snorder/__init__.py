"""Total ordering of complex spectra and Jordan structure.

A lexicographic total order on the complex plane, majorization of complex
vectors, dominance of block-size partitions, and the derived
spectral-and-nilpotent order on matrices, together with how matrix
functions, Schur-type convexity, and mixing operations interact with it.
"""

from .errors import SnorderError
from .linalg import Matrix
from .majorization import (
    Majorization,
    TTransform,
    gds_check,
    gds_from_transforms,
    majorize_check,
    t_transform_apply,
    t_transform_decompose,
)
from .matfunc import (
    OracleFunction,
    PolynomialFunction,
    derivative_order_kappa,
    eta,
    f_jordan_block,
    gdod_f_g,
    gdod_two_blocks,
    named_oracle,
    poly,
    repr_of_fx,
    split_block,
)
from .partitions import dominance_check, gdod, gdod_vector, merge_desc
from .scalar import (
    OrderOutcome,
    TotalComplex,
    approx,
    cmp_total,
    div_preserves_order,
    exact,
    mul_preserves_order,
    product_nonneg,
    recip_cmp,
    sort_desc,
)
from .snrepr import (
    JordanSpec,
    SNOVerdict,
    SNRepresentation,
    assemble,
    canonical_repr,
    compare_nilpotent,
    compare_sno,
    repr_from_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "SnorderError", "Matrix",
    "Majorization", "TTransform", "gds_check", "gds_from_transforms", "majorize_check",
    "t_transform_apply", "t_transform_decompose",
    "OracleFunction", "PolynomialFunction", "derivative_order_kappa", "eta", "f_jordan_block",
    "gdod_f_g", "gdod_two_blocks", "named_oracle", "poly", "repr_of_fx", "split_block",
    "dominance_check", "gdod", "gdod_vector", "merge_desc",
    "OrderOutcome", "TotalComplex", "approx", "cmp_total", "div_preserves_order", "exact",
    "mul_preserves_order", "product_nonneg", "recip_cmp", "sort_desc",
    "JordanSpec", "SNOVerdict", "SNRepresentation", "assemble", "canonical_repr",
    "compare_nilpotent", "compare_sno", "repr_from_matrix",
]
