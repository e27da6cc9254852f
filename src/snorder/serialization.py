"""JSON encoding/decoding for the external interface.

Exact scalars carry their components as rational strings ("3/4"); float
scalars are plain numbers.  Transform indices are 1-based in files and
0-based in memory.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction
from importlib import resources

from .errors import SnorderError
from .linalg import Matrix
from .majorization import TTransform
from .matfunc import FunctionDescriptor, PolynomialFunction, named_oracle
from .partitions import as_partition
from .scalar import EXACT, FLOAT, TotalComplex, approx, exact
from .schur import DomainBox
from .snrepr import JordanSpec, SNRepresentation


class InputFormatError(SnorderError):
    """Malformed or backend-inconsistent JSON input."""


def _component_to_json(v, backend: str):
    if backend == EXACT:
        f = Fraction(v)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return float(v)


def scalar_to_json(z: TotalComplex) -> dict:
    return {
        "re": _component_to_json(z.re, z.backend),
        "im": _component_to_json(z.im, z.backend),
    }


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _component_from_json(v, backend: str):
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise InputFormatError(f"component {v!r} must be a number or a rational string")
    if backend == EXACT:
        if isinstance(v, float):
            raise InputFormatError(
                f"float literal {v!r} is not valid for the exact backend"
            )
        if isinstance(v, str) and not _RATIONAL.fullmatch(v):
            raise InputFormatError(f"bad rational literal {v!r}")
        try:
            return Fraction(v)
        except ZeroDivisionError as err:
            raise InputFormatError(f"bad rational literal {v!r}: {err}")
    if isinstance(v, str):
        raise InputFormatError(f"string literal {v!r} is not valid for the float backend")
    if not abs(v) <= sys.float_info.max:  # NaN, infinities, integers out of float range
        raise InputFormatError(f"non-finite number {v!r} is not a valid component")
    return float(v)


def scalar_from_json(obj, backend: str) -> TotalComplex:
    if not isinstance(obj, dict) or set(obj) - {"re", "im"}:
        raise InputFormatError(f"scalar object must have keys re/im, got {obj!r}")
    re = _component_from_json(obj.get("re", 0), backend)
    im = _component_from_json(obj.get("im", 0), backend)
    if backend == EXACT:
        return exact(re, im)
    return approx(re, im)


def vector_to_json(v) -> list:
    return [scalar_to_json(z) for z in v]


def vector_from_json(obj, backend: str) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError("vector must be a non-empty array")
    return tuple(scalar_from_json(z, backend) for z in obj)


def transform_to_json(t: TTransform) -> dict:
    return {"i": t.i + 1, "j": t.j + 1, "beta": scalar_to_json(t.beta)}


def partition_from_json(obj) -> tuple:
    """Integer parts; integral floats such as 3.0 count as integers, as in
    JSON Schema."""
    if not isinstance(obj, list) or not all(
        type(v) is int or (isinstance(v, float) and v.is_integer()) for v in obj
    ):
        raise InputFormatError("partition must be an integer array")
    try:
        return as_partition(obj)
    except ValueError as err:
        raise InputFormatError(str(err))


def jordan_spec_from_json(obj, backend: str) -> JordanSpec:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise InputFormatError("spec must be an object with a 'blocks' array")
    blocks = []
    for blk in obj["blocks"]:
        try:
            lam = scalar_from_json(blk["eigenvalue"], backend)
            sizes = partition_from_json(blk["sizes"])
        except (KeyError, TypeError) as err:
            raise InputFormatError(f"bad block {blk!r}: {err}")
        if not sizes:
            raise InputFormatError(f"block {blk!r} needs at least one size")
        blocks.append((lam, sizes))
    if not blocks:
        raise InputFormatError("spec needs at least one block")
    return JordanSpec(tuple(blocks))


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": [[scalar_to_json(z) for z in row] for row in m.rows]}


def matrix_from_json(obj, backend: str) -> Matrix:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InputFormatError("matrix must be an object with a 'rows' array")
    rows = obj["rows"]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InputFormatError("matrix rows must be non-empty and rectangular")
    return Matrix.from_rows(
        [[scalar_from_json(z, backend) for z in row] for row in rows]
    )


def function_from_json(obj, backend: str) -> FunctionDescriptor:
    if not isinstance(obj, dict):
        raise InputFormatError("function must be an object")
    if "polynomial" in obj:
        coeffs = obj["polynomial"].get("coefficients")
        if not coeffs:
            raise InputFormatError("polynomial needs a non-empty coefficient array")
        return PolynomialFunction(
            tuple(scalar_from_json(c, backend) for c in coeffs)
        )
    if "oracle" in obj:
        if backend == EXACT:
            raise InputFormatError("named oracles are float-backend only")
        try:
            return named_oracle(obj["oracle"])
        except KeyError as err:
            raise InputFormatError(str(err))
    raise InputFormatError("function must have a 'polynomial' or 'oracle' key")


def domain_box_from_json(obj) -> DomainBox:
    try:
        return DomainBox(*(_component_from_json(obj[k], FLOAT) for k in ("c1", "c2", "c3")))
    except (KeyError, TypeError, ValueError) as err:
        raise InputFormatError(f"bad domain box {obj!r}: {err}")


def snrepr_to_json(rep: SNRepresentation) -> dict:
    return {
        "eigenvalues": [scalar_to_json(lam) for lam in rep.eigenvalues],
        "partitions": [list(p) for p in rep.partitions],
        "dimension": rep.dimension,
    }


def load_schema(name: str) -> dict:
    """Load one of the bundled JSON schema documents by stem name."""
    text = resources.files("snorder.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


@functools.lru_cache(maxsize=None)
def _schema_registry():
    """Registry of all bundled schemas so cross-file $refs resolve."""
    import referencing

    resources_ = []
    for entry in resources.files("snorder.schemas").iterdir():
        if entry.name.endswith(".schema.json"):
            doc = json.loads(entry.read_text())
            resources_.append((doc["$id"], referencing.Resource.from_contents(doc)))
    return referencing.Registry().with_resources(resources_)


def make_validator(name: str):
    import jsonschema

    return jsonschema.Draft202012Validator(load_schema(name), registry=_schema_registry())
