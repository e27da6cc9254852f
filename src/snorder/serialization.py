"""JSON encoding/decoding for the external interface.

Exact scalars carry their components as rational strings ("3/4"); float
scalars are plain numbers.  Transform indices are 1-based in files and
0-based in memory.

The ``*_from_json`` decoders are the runtime validator: each raises
``InputFormatError`` on every document its bundled schema rejects, and on the
backend mismatches a schema cannot express.  The schema files stay the
documented interface; ``make_validator`` checks documents against them.
Each decoder imports the layer that builds its value on first use, so a
``sno`` run loads only the layers its subcommand reads.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction
from reprlib import repr as shown  # a value in an error message, cut short
from typing import TYPE_CHECKING

from .errors import SnorderError
from .scalar import EXACT, FLOAT, TotalComplex, approx, exact

if TYPE_CHECKING:
    from .linalg import Matrix
    from .majorization import TTransform
    from .matfunc import FunctionDescriptor
    from .schur import DomainBox
    from .snrepr import JordanSpec, SNRepresentation


class InputFormatError(SnorderError):
    """Malformed or backend-inconsistent JSON input."""


def _fields(obj, what: str, required, optional=()) -> dict:
    """obj, checked to be an object with every key of required and no key
    outside required and optional (JSON Schema ``type: object``,
    ``required`` and ``additionalProperties: false``)."""
    if not isinstance(obj, dict) or not set(required) <= obj.keys() <= {*required, *optional}:
        got = f"keys {shown(list(obj))}" if isinstance(obj, dict) else type(obj).__name__
        keys = [*required, *(f"{k} (optional)" for k in optional)]
        raise InputFormatError(f"{what} must be an object with the keys {keys}, got {got}")
    return obj


def _array(obj, what: str) -> list:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(f"{what} must be a non-empty array")
    return obj


def _component_to_json(v, backend: str):
    if backend != EXACT:
        return float(v)
    f = Fraction(v)
    try:
        parts = [str(f.numerator), str(f.denominator)]
    except ValueError:  # past the digit limit of str(); Decimal prints any int whole
        from decimal import Decimal

        parts = [str(Decimal(f.numerator)), str(Decimal(f.denominator))]
    return parts[0] if f.denominator == 1 else "/".join(parts)


def scalar_to_json(z: TotalComplex) -> dict:
    return {
        "re": _component_to_json(z.re, z.backend),
        "im": _component_to_json(z.im, z.backend),
    }


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # no zero denominator


def _component_from_json(v, backend: str):
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise InputFormatError(f"component {shown(v)} must be a number or a rational string")
    if backend == EXACT:
        if isinstance(v, float):
            raise InputFormatError(
                f"float literal {shown(v)} is not valid for the exact backend"
            )
        if isinstance(v, str) and not _RATIONAL.fullmatch(v):
            raise InputFormatError(f"bad rational literal {shown(v)}")
        try:
            return Fraction(v)
        except ValueError as err:  # over the digit limit
            raise InputFormatError(f"bad rational literal {shown(v)}: {err}")
    if isinstance(v, str):
        raise InputFormatError(f"string literal {shown(v)} is not valid for the float backend")
    if not abs(v) <= sys.float_info.max:  # NaN, infinities, integers out of float range
        raise InputFormatError(f"non-finite number {shown(v)} is not a valid component")
    return float(v)


def scalar_from_json(obj, backend: str) -> TotalComplex:
    _fields(obj, "scalar", (), ("re", "im"))
    re = _component_from_json(obj.get("re", 0), backend)
    im = _component_from_json(obj.get("im", 0), backend)
    if backend == EXACT:
        return exact(re, im)
    return approx(re, im)


def vector_to_json(v) -> list:
    return [scalar_to_json(z) for z in v]


def vector_from_json(obj, backend: str) -> tuple:
    return tuple(scalar_from_json(z, backend) for z in _array(obj, "vector"))


def transform_to_json(t: TTransform) -> dict:
    return {"i": t.i + 1, "j": t.j + 1, "beta": scalar_to_json(t.beta)}


def partition_from_json(obj) -> tuple:
    """Integer parts; integral floats such as 3.0 count as integers, as in
    JSON Schema."""
    from .partitions import as_partition

    if not isinstance(obj, list) or not all(
        type(v) is int or (isinstance(v, float) and v.is_integer()) for v in obj
    ):
        raise InputFormatError("partition must be an integer array")
    try:
        return as_partition(obj)
    except ValueError as err:
        raise InputFormatError(str(err))


def jordan_spec_from_json(obj, backend: str) -> JordanSpec:
    from .snrepr import JordanSpec

    blocks = [_fields(blk, "block", ("eigenvalue", "sizes"))
              for blk in _array(_fields(obj, "spec", ("blocks",))["blocks"], "spec blocks")]
    return JordanSpec(tuple(
        (scalar_from_json(blk["eigenvalue"], backend),
         partition_from_json(_array(blk["sizes"], "block sizes")))
        for blk in blocks
    ))


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": [[scalar_to_json(z) for z in row] for row in m.rows]}


def matrix_from_json(obj, backend: str) -> Matrix:
    from .linalg import Matrix

    rows = _array(_fields(obj, "matrix", ("rows",))["rows"], "matrix rows")
    if any(len(_array(r, "matrix row")) != len(rows[0]) for r in rows):
        raise InputFormatError("matrix rows must be rectangular")
    return Matrix.from_rows([[scalar_from_json(z, backend) for z in row] for row in rows])


def function_from_json(obj, backend: str) -> FunctionDescriptor:
    """The schema's oneOf: a document with a 'polynomial' key is a
    polynomial, valid in full and with no oracle name beside it; otherwise it
    names an oracle.  Other keys are allowed, as in the schema."""
    from .matfunc import NAMED_ORACLES, PolynomialFunction, named_oracle

    if not isinstance(obj, dict):
        raise InputFormatError("function must be an object")
    oracle = obj.get("oracle")
    is_oracle = isinstance(oracle, str) and oracle in NAMED_ORACLES
    if "polynomial" in obj:
        poly = obj["polynomial"]
        if not isinstance(poly, dict) or "coefficients" not in poly:
            raise InputFormatError("polynomial must be an object with a 'coefficients' array")
        coeffs = _array(poly["coefficients"], "polynomial coefficients")
        if is_oracle:
            raise InputFormatError("function must be a polynomial or an oracle, not both")
        return PolynomialFunction(tuple(scalar_from_json(c, backend) for c in coeffs))
    if not is_oracle:
        raise InputFormatError(
            f"function needs a polynomial or an oracle of {sorted(NAMED_ORACLES)}"
        )
    if backend == EXACT:
        raise InputFormatError("named oracles are float-backend only")
    return named_oracle(oracle)


def domain_box_from_json(obj) -> DomainBox:
    from .schur import DomainBox

    box = _fields(obj, "domain box", ("c1", "c2", "c3"))
    return DomainBox(*(_component_from_json(box[k], FLOAT) for k in ("c1", "c2", "c3")))


def snrepr_to_json(rep: SNRepresentation) -> dict:
    return {
        "eigenvalues": [scalar_to_json(lam) for lam in rep.eigenvalues],
        "partitions": [list(p) for p in rep.partitions],
        "dimension": rep.dimension,
    }


def load_schema(name: str) -> dict:
    """Load one of the bundled JSON schema documents by stem name."""
    from importlib import resources

    text = resources.files("snorder.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


@functools.lru_cache(maxsize=None)
def _schema_registry():
    """Registry of all bundled schemas so cross-file $refs resolve."""
    from importlib import resources

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
