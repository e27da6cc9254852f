"""Total ordering of complex spectra and Jordan structure.

A lexicographic total order on the complex plane, majorization of complex
vectors, dominance of block-size partitions, and the derived
spectral-and-nilpotent order on matrices, together with how matrix
functions, Schur-type convexity, and mixing operations interact with it.

The names below load their home module on first access (PEP 562), so
``import snorder`` loads no submodule and a ``sno`` run loads only the
layers its subcommand calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each submodule, in the order of __all__.
_EXPORTS = {
    "errors": ("SnorderError",),
    "linalg": ("Matrix",),
    "majorization": ("Majorization", "TTransform", "gds_check", "gds_from_transforms",
                     "majorize_check", "t_transform_apply", "t_transform_decompose"),
    "matfunc": ("OracleFunction", "PolynomialFunction", "derivative_order_kappa", "eta",
                "f_jordan_block", "gdod_f_g", "gdod_two_blocks", "named_oracle", "poly",
                "repr_of_fx", "split_block"),
    "partitions": ("dominance_check", "gdod", "gdod_vector", "merge_desc"),
    "scalar": ("OrderOutcome", "TotalComplex", "approx", "cmp_total", "div_preserves_order",
               "exact", "mul_preserves_order", "product_nonneg", "recip_cmp", "sort_desc"),
    "schur": ("Prop", "cdm_condition_check", "compose_table1", "compose_table2"),
    "snrepr": ("JordanSpec", "SNOVerdict", "SNRepresentation", "canonical_repr",
               "compare_nilpotent", "compare_sno", "repr_from_matrix"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
