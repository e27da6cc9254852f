import contextlib
import copy
import functools
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import snorder
from snorder import serialization as ser
from snorder.cli import main


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def sc(re, im="0"):
    return {"re": re, "im": im}


def assert_input_error(capsys, argv):
    """Exit 2 with one line on stderr, so no traceback, and nothing on stdout;
    returns that line."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_majorize_strict_with_decomposition(tmp_path, capsys):
    x = write(tmp_path, "x.json", [sc("2"), sc("2")])
    y = write(tmp_path, "y.json", [sc("3"), sc("1")])
    code, out = run(capsys, ["majorize", x, y, "--decompose"])
    assert code == 0
    assert out["verdict"] == "strict"
    assert out["gds_valid"] is True
    assert out["all_beta_convex"] is True
    assert out["transforms"][0]["i"] == 1  # 1-based in files


# Reports of `majorize --decompose` on one fixed exact and one fixed float
# pair; x is y after T(1, 3, 1/3) then T(2, 3, 1/2 + i/4) (0.3 for float).
DECOMPOSE_CASES = {
    "exact": (
        [sc("1/3", "1/3"), sc("1/2", "11/12"), sc("7/6", "7/4")],
        [sc("3", "1"), sc("0", "2"), sc("-1", "0")],
        {
            "all_beta_convex": False,
            "gds": {"rows": [
                [sc("19091/71670", "1207/71670"), sc("31/120", "-11/40"),
                 sc("45419/95560", "74009/286680")],
                [sc("4069/71670", "-8167/71670"), sc("89/120", "11/40"),
                 sc("19261/95560", "-46169/286680")],
                [sc("1617/2389", "232/2389"), sc("0", "0"), sc("772/2389", "-232/2389")],
            ]},
            "gds_valid": True,
            "transforms": [
                {"i": 1, "j": 2, "beta": sc("89/120", "11/40")},
                {"i": 1, "j": 3, "beta": sc("1617/2389", "232/2389")},
                {"i": 1, "j": 3, "beta": sc("0", "0")},
            ],
            "verdict": "strict",
        },
    ),
    "float": (
        [sc(0.19999999999999996, 0.3), sc(0.5749999999999997, 0.9000000000000001),
         sc(1.2249999999999999, 1.7999999999999998)],
        [sc(3.0, 1.0), sc(0.0, 2.0), sc(-1.0, 0.0)],
        {
            "all_beta_convex": False,
            "gds": {"rows": [
                [sc(0.23590513068731844, 0.013678606001936142), sc(0.2825, -0.2725),
                 sc(0.4815948693126816, 0.25882139399806386)],
                [sc(0.057763794772507246, -0.10614714424007742), sc(0.7175, 0.2725),
                 sc(0.2247362052274927, -0.1663528557599226)],
                [sc(0.7063310745401743, 0.09246853823814127), sc(0.0, 0.0),
                 sc(0.2936689254598257, -0.09246853823814127)],
            ]},
            "gds_valid": True,
            "transforms": [
                {"i": 1, "j": 2, "beta": sc(0.7175, 0.2725)},
                {"i": 1, "j": 3, "beta": sc(0.7063310745401743, 0.09246853823814127)},
                {"i": 1, "j": 3, "beta": sc(0.0, 0.0)},
            ],
            "verdict": "strict",
        },
    ),
}


@pytest.mark.parametrize("backend", sorted(DECOMPOSE_CASES))
def test_majorize_decompose_report_is_unchanged(tmp_path, capsys, backend):
    xs, ys, expected = DECOMPOSE_CASES[backend]
    x = write(tmp_path, "x.json", xs)
    y = write(tmp_path, "y.json", ys)
    code, out = run(capsys, ["--backend", backend, "majorize", x, y, "--decompose"])
    assert code == 0
    # Serialized text, not dict equality, so -0.0 and 0.0 stay apart.
    assert json.dumps(out, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_float_decompose_with_no_step_prints_a_float_identity(tmp_path, capsys):
    # x is already sorted, so the decomposition has no step and the GDS
    # matrix is the empty product, in the backend of the input.
    x = write(tmp_path, "x.json", [sc(2.0, 0.0), sc(1.0, 0.0)])
    code, out = run(capsys, ["--backend", "float", "majorize", x, x, "--decompose"])
    assert (code, out["transforms"], out["gds_valid"]) == (0, [], True)
    one, zero = sc(1.0, 0.0), sc(0.0, 0.0)
    assert json.dumps(out["gds"], sort_keys=True) == json.dumps(
        {"rows": [[one, zero], [zero, one]]}, sort_keys=True)


# `majorize --decompose` on a pair that is not strictly majorized prints the
# verdict alone, as `majorize` does.
REFUSED_CASES = {
    "weak": ([("1", "1"), ("0", "0")], [("3", "0"), ("1", "2")]),
    "none": ([("5", "0"), ("0", "-1")], [("3", "0"), ("1", "0")]),
}


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("verdict", sorted(REFUSED_CASES))
def test_majorize_decompose_reports_a_refused_pair(tmp_path, capsys, backend, verdict):
    conv = (lambda q: float(Fraction(q))) if backend == "float" else str
    x, y = (write(tmp_path, f"{name}.json", [sc(conv(re), conv(im)) for re, im in v])
            for name, v in zip("xy", REFUSED_CASES[verdict]))
    assert main(["--backend", backend, "majorize", x, y, "--decompose"]) == 0
    assert capsys.readouterr().out == json.dumps({"verdict": verdict}, indent=2) + "\n"


@pytest.mark.parametrize("xs, ys, sorts", [
    ([2.0, 2.0], [3.0, 1.0], 3),  # strict: one mixing step re-sorts once
    ([1.0, 0.0], [3.0, 1.0], 2),
    ([5.0, 0.0], [3.0, 1.0], 2),
])
def test_majorize_decompose_sorts_each_vector_once(tmp_path, capsys, monkeypatch, xs, ys, sorts):
    from snorder import majorization
    x = write(tmp_path, "x.json", [sc(v, 0.0) for v in xs])
    y = write(tmp_path, "y.json", [sc(v, 0.0) for v in ys])
    calls = []
    sort_desc = majorization.sort_desc
    monkeypatch.setattr(majorization, "sort_desc", lambda v: calls.append(v) or sort_desc(v))
    assert main(["--backend", "float", "majorize", x, y, "--decompose"]) == 0
    capsys.readouterr()
    assert len(calls) == sorts
    # The exact backend sorts the vectors' integer numerators instead.
    calls.clear()
    x = write(tmp_path, "x.json", [sc(str(int(v))) for v in xs])
    y = write(tmp_path, "y.json", [sc(str(int(v))) for v in ys])
    assert main(["majorize", x, y, "--decompose"]) == 0
    capsys.readouterr()
    assert calls == []


def test_majorize_decompose_failure_after_its_check_exits_3(tmp_path, capsys, monkeypatch):
    from snorder import majorization
    from snorder.errors import NotMajorized

    def unconverged(x, y):
        raise NotMajorized("decomposition failed to converge")

    monkeypatch.setattr(majorization, "t_transform_decompose", unconverged)
    x = write(tmp_path, "x.json", [sc("2"), sc("2")])
    y = write(tmp_path, "y.json", [sc("3"), sc("1")])
    assert main(["majorize", x, y, "--decompose"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "failed to converge" in captured.err


def test_float_decompose_near_tie_exits_3(tmp_path, capsys):
    # Strict under float majorize, but its near-ties leave the decomposition
    # no pair of entries to mix.
    x = write(tmp_path, "x.json", [sc(v, 0.0) for v in (0.7500000007500001, 0.24999999985000002,
                                                        6e-10, 0.0)])
    y = write(tmp_path, "y.json", [sc(v, 0.0) for v in (-6e-10, 1.0000000012, 6e-10, 0.0)])
    assert run(capsys, ["--backend", "float", "majorize", x, y]) == (0, {"verdict": "strict"})
    assert main(["--backend", "float", "majorize", x, y, "--decompose"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("analysis error: NotMajorized: ")
    assert captured.err.count("\n") == 1


def test_majorize_weak(tmp_path, capsys):
    x = write(tmp_path, "x.json", [sc("1"), sc("0")])
    y = write(tmp_path, "y.json", [sc("3"), sc("1")])
    code, out = run(capsys, ["majorize", x, y])
    assert code == 0
    assert out["verdict"] == "weak"


@pytest.mark.parametrize("env", ["bogus", "float"])
def test_backend_defaults_to_exact_whatever_the_environment_says(tmp_path, capsys,
                                                                  monkeypatch, env):
    monkeypatch.setenv("SNO_BACKEND", env)
    x = write(tmp_path, "x.json", [sc("1/3"), sc("1/3")])
    y = write(tmp_path, "y.json", [sc("2/3"), sc("0")])
    code, out = run(capsys, ["majorize", x, y])
    assert code == 0
    assert out["verdict"] == "strict"


def test_exact_backend_rejects_float_literals(tmp_path, capsys):
    x = write(tmp_path, "x.json", [{"re": 0.5, "im": 0}])
    y = write(tmp_path, "y.json", [sc("1")])
    code, _ = run(capsys, ["majorize", x, y])
    assert code == 2


def test_float_backend_accepts_numbers(tmp_path, capsys):
    x = write(tmp_path, "x.json", [{"re": 0.5, "im": 0.0}, {"re": 0.5, "im": 0.0}])
    y = write(tmp_path, "y.json", [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}])
    code, out = run(capsys, ["--backend", "float", "majorize", x, y])
    assert code == 0
    assert out["verdict"] == "strict"


def test_compare_and_repr(tmp_path, capsys):
    spec_x = {"blocks": [{"eigenvalue": sc("1"), "sizes": [2, 1]}]}
    spec_y = {"blocks": [{"eigenvalue": sc("1"), "sizes": [3]}]}
    x = write(tmp_path, "x.json", spec_x)
    y = write(tmp_path, "y.json", spec_y)
    code, out = run(capsys, ["compare", x, y])
    assert code == 0
    assert out["verdict"] == "strict_less"
    code, out = run(capsys, ["repr", "--spec", x])
    assert code == 0
    assert out["partitions"] == [[2, 1]]
    assert out["dimension"] == 3


def test_repr_from_matrix_path(tmp_path, capsys):
    m = {"rows": [[sc("1"), sc("1")], [sc("0"), sc("1")]]}
    ev = [sc("1")]
    code, out = run(capsys, [
        "repr",
        "--matrix", write(tmp_path, "m.json", m),
        "--eigenvalues", write(tmp_path, "ev.json", ev),
    ])
    assert code == 0
    assert out["partitions"] == [[2]]


def test_repr_without_its_inputs_is_an_input_error(tmp_path, capsys):
    m = write(tmp_path, "m.json", {"rows": [[sc("1")]]})
    err = assert_input_error(capsys, ["repr", "--matrix", m])
    assert err == "input error: --matrix requires --eigenvalues\n"
    err = assert_input_error(capsys, ["repr"])
    assert err == "input error: provide --spec or --matrix/--eigenvalues\n"


def test_repr_from_matrix_ignores_a_permutation_of_its_blocks(tmp_path, capsys):
    # J_2(1), a dense 2 x 2 block with the single Jordan block J_2(2), and i
    entries = [["1", "1", "0", "0", "0"], ["0", "1", "0", "0", "0"],
               ["0", "0", "1", "1/2", "0"], ["0", "0", "-2", "3", "0"],
               ["0", "0", "0", "0", "i"]]
    rows = [[sc("0", "1") if z == "i" else sc(z) for z in row] for row in entries]
    perm = [3, 0, 4, 1, 2]
    permuted = [[rows[i][j] for j in perm] for i in perm]
    ev = write(tmp_path, "ev.json", [sc("0", "1"), sc("2"), sc("1")])
    reports = []
    for name, m in (("m.json", rows), ("p.json", permuted)):
        code, out = run(capsys, ["repr", "--matrix", write(tmp_path, name, {"rows": m}),
                                 "--eigenvalues", ev])
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    assert reports[0]["partitions"] == [[2], [2], [1]]


def test_fmap_golden(tmp_path, capsys):
    f = {"polynomial": {"coefficients": [sc("0"), sc("0"), sc("1")]}}
    spec = {"blocks": [{"eigenvalue": sc("0"), "sizes": [4, 3, 2]}]}
    code, out = run(capsys, [
        "fmap", write(tmp_path, "f.json", f), write(tmp_path, "s.json", spec),
    ])
    assert code == 0
    assert out["repr"]["partitions"] == [[2, 2, 2, 1, 1, 1]]
    assert out["gdod"] == [[2, 3, 3, 2, 1, 0]]


def test_gdod_subcommand(tmp_path, capsys):
    p = write(tmp_path, "p.json", [3, 2])
    q = write(tmp_path, "q.json", [4, 2])
    code, out = run(capsys, ["gdod", p, q])
    assert code == 0
    assert out == {"dominated": True, "gdod": [1, 1]}
    code, out = run(capsys, ["gdod", q, p])
    assert code == 0
    assert out == {"dominated": False}


def test_schur_subcommand(capsys):
    code, out = run(capsys, ["schur", "--func", "neg_sum_sq", "--n", "2",
                             "--trials", "300", "--samples", "5"])
    assert code == 0
    assert out["criterion_passed"] is False
    assert out["counterexample"] is not None


@pytest.mark.parametrize("argv", [
    ["--n", "0"], ["--n", "-2"], ["--trials", "-1"], ["--samples", "-1"],
])
def test_schur_rejects_bad_sizes(capsys, argv):
    assert_input_error(capsys, ["schur", *argv])


def test_schur_accepts_zero_trials_and_samples(capsys):
    code, out = run(capsys, ["schur", "--n", "1", "--trials", "0", "--samples", "0"])
    assert code == 0
    assert out["criterion_cases"] == 0
    assert out["counterexample"] is None


def test_convexity_subcommand(tmp_path, capsys):
    f = {"polynomial": {"coefficients": [sc("0"), sc("0"), sc("1")]}}
    a = {"rows": [[sc("0"), sc("0")], [sc("0"), sc("2")]]}
    b = {"rows": [[sc("1"), sc("0")], [sc("0"), sc("1")]]}
    code, out = run(capsys, [
        "convexity", write(tmp_path, "f.json", f),
        write(tmp_path, "a.json", a), write(tmp_path, "b.json", b),
        "-t", "1/2",
    ])
    assert code == 0
    assert out["consistent"] is True


def test_monotone_subcommand(tmp_path, capsys):
    f = {"polynomial": {"coefficients": [sc("1"), sc("2")]}}
    x = {"blocks": [{"eigenvalue": sc("2"), "sizes": [1]},
                    {"eigenvalue": sc("2"), "sizes": [1]}]}
    y = {"blocks": [{"eigenvalue": sc("3"), "sizes": [1]},
                    {"eigenvalue": sc("1"), "sizes": [1]}]}
    code, out = run(capsys, [
        "monotone", write(tmp_path, "f.json", f),
        write(tmp_path, "x.json", x), write(tmp_path, "y.json", y),
    ])
    assert code == 0
    assert out["certificate"] == "A"
    assert out["confirmed"] is True


def test_malformed_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run(capsys, ["gdod", str(p), str(p)])
    assert code == 2


def test_schema_violation_is_input_error(tmp_path, capsys):
    x = write(tmp_path, "x.json", [{"re": "1", "im": "0", "extra": 1}])
    y = write(tmp_path, "y.json", [sc("1")])
    code, _ = run(capsys, ["majorize", x, y])
    assert code == 2


def test_extra_keys_and_oracle_beside_null_polynomial_are_input_errors(tmp_path, capsys):
    block = {"eigenvalue": sc("1"), "sizes": [1]}
    spec = write(tmp_path, "s.json", {"blocks": [block]})
    extra_spec = write(tmp_path, "xs.json", {"blocks": [block], "note": "x"})
    extra_matrix = write(tmp_path, "xm.json", {"rows": [[sc("1")]], "note": "x"})
    ev = write(tmp_path, "ev.json", [sc("1")])
    assert_input_error(capsys, ["compare", extra_spec, spec])
    assert_input_error(capsys, ["repr", "--matrix", extra_matrix, "--eigenvalues", ev])
    f = write(tmp_path, "f.json", {"oracle": "exp", "polynomial": None})
    fspec = write(tmp_path, "fs.json", {"blocks": [{"eigenvalue": sc(0.0), "sizes": [1]}]})
    assert_input_error(capsys, ["--backend", "float", "fmap", f, fspec])


@pytest.mark.parametrize("doc", [
    {"blocks": [{"eigenvalue": sc("1"), "sizes": [1]}], "note": "x"},
    {"blocks": [{"eigenvalue": sc(1.5), "sizes": [1]}]},  # float literal on the exact backend
], ids=["extra-key", "backend-mismatch"])
def test_input_errors_name_their_file(tmp_path, capsys, doc):
    a = write(tmp_path, "a.json", {"blocks": [{"eigenvalue": sc("1"), "sizes": [1]}]})
    b = write(tmp_path, "b.json", doc)
    err = assert_input_error(capsys, ["compare", a, b])
    assert b in err
    assert "a.json" not in err


@functools.lru_cache(maxsize=None)
def validator(schema):
    return ser.make_validator(schema)


def decode_as(schema, backend, doc):
    decoder = getattr(ser, f"{schema}_from_json")
    return decoder(doc) if schema in ("partition", "domain_box") else decoder(doc, backend)


@pytest.mark.parametrize("schema, decode, doc", [
    ("scalar", "exact", {"re": True}),
    ("scalar", "exact", {"re": " 3/4 "}),
    ("scalar", "exact", {"re": "1.5"}),
    ("scalar", "exact", {"re": "1e3"}),
    ("scalar", "exact", {"im": "1_000"}),
    ("scalar", "float", {"re": True}),
    ("scalar", "float", {"im": [1]}),
    ("partition", None, [3.5, 1]),
    ("partition", None, [True, "1"]),
    ("partition", None, [2, "1"]),
    ("scalar", "exact", [sc("1")]),
    ("vector", "exact", sc("1")),
    ("partition", None, {"parts": [1]}),
    ("jordan_spec", "exact", {"blocks": [{"eigenvalue": sc("1"), "sizes": [1]}], "x": 1}),
    ("jordan_spec", "exact", {"blocks": [{"eigenvalue": sc("1"), "sizes": [1], "x": 1}]}),
    ("jordan_spec", "exact", {"blocks": 5}),
    ("matrix", "exact", {"rows": [[sc("1")]], "x": 1}),
    ("matrix", "exact", {"rows": [[]]}),
    ("matrix", "float", {"rows": 5}),
    ("function", "exact", {"polynomial": [1]}),
    ("function", "float", {"oracle": ["exp"]}),
    ("function", "float", {"oracle": "exp", "polynomial": {"coefficients": [sc(1.0, 0.0)]}}),
    ("domain_box", None, {"c1": 1, "c2": 0, "c3": 0, "c4": 0}),
    ("function", "float", {"oracle": "exp", "polynomial": None}),
])
def test_decoders_reject_what_the_schemas_reject(schema, decode, doc):
    assert not validator(schema).is_valid(doc)
    with pytest.raises(ser.InputFormatError):
        decode_as(schema, decode, doc)


def test_partition_schema_describes_the_order_it_cannot_express():
    """JSON Schema has no keyword for non-increasing items: the schema takes
    [1, 2] and says so in its description, and the decoder refuses it."""
    assert validator("partition").is_valid([1, 2])
    assert "non-increasing" in ser.load_schema("partition")["description"]
    with pytest.raises(ser.InputFormatError, match="non-increasing"):
        decode_as("partition", None, [1, 2])


# One or more valid documents per schema and backend, and the pieces that
# mutations put into them: junk values of every JSON type and the schemas'
# own keys.
VALID_DOCS = {
    (backend, schema): docs
    for backend, zero, one, half in (("exact", "0", "1", "-1/2"), ("float", 0.0, 1.0, -0.5))
    for schema, docs in {
        "scalar": [sc(one, half), {"im": half}, {}],
        "vector": [[sc(one, zero), sc(half, one)]],
        "partition": [[3, 2, 1], []],
        "jordan_spec": [{"blocks": [{"eigenvalue": sc(one, zero), "sizes": [2, 1]},
                                    {"eigenvalue": sc(half, one), "sizes": [1]}]}],
        "matrix": [{"rows": [[sc(one, zero), sc(half, one)], [{}, {"re": one}]]}],
        "function": [{"polynomial": {"coefficients": [sc(half, zero), {"re": one}]}},
                     {"polynomial": {"coefficients": [{}]}, "oracle": "tan"},
                     {"oracle": "exp", "x": 1}],
        "domain_box": [{"c1": 1, "c2": -0.5, "c3": 0.5}],
    }.items()
}
JUNK = [None, True, 0, -1, 1.5, float("nan"), "", "x", "3/4", "1/0", "1.5", "exp",
        [], [1], {}, {"re": "1"}, {"re": 1.0}, {"coefficients": []}]
KEYS = ["re", "im", "rows", "blocks", "eigenvalue", "sizes", "polynomial", "coefficients",
        "oracle", "c1", "c4", "x"]


def paths(doc, at=()):
    """The key paths of doc and of every value inside it, doc itself first."""
    yield at
    if isinstance(doc, (dict, list)):
        for key in doc if isinstance(doc, dict) else range(len(doc)):
            yield from paths(doc[key], at + (key,))


def mutate(doc, draw, at):
    """doc with one change at the path at: the value there replaced by junk,
    or, for a container, emptied, given one more key or item, or one less."""
    if at:
        out = copy.copy(doc)
        out[at[0]] = mutate(doc[at[0]], draw, at[1:])
        return out
    op = draw(st.sampled_from(["junk", "empty", "add", "drop"]))
    if op == "junk" or not isinstance(doc, (dict, list)):
        return draw(st.sampled_from(JUNK))
    if op == "empty" or (op == "drop" and not doc):
        return type(doc)()
    if isinstance(doc, dict):
        if op == "drop":
            gone = draw(st.sampled_from(list(doc)))
            return {k: v for k, v in doc.items() if k != gone}
        return {**doc, draw(st.sampled_from(KEYS)): draw(st.sampled_from(JUNK))}
    if op == "drop":
        return doc[1:]
    return doc + [draw(st.sampled_from(JUNK + doc))]


@pytest.mark.parametrize("backend, schema", sorted(VALID_DOCS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decoders_refuse_every_mutant_the_schema_refuses(backend, schema, data):
    # The decoder raises InputFormatError and nothing else, and what it
    # accepts the schema accepts; it may refuse more (backend mismatches).
    doc = data.draw(st.sampled_from(VALID_DOCS[backend, schema]))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(doc, data.draw, data.draw(st.sampled_from(list(paths(doc)))))
    try:
        decode_as(schema, backend, doc)
    except ser.InputFormatError:
        return
    assert validator(schema).is_valid(doc), doc


def test_function_decoder_follows_the_polynomial_key():
    # A valid polynomial beside an oracle key that names no oracle is a
    # polynomial, for the schema and the decoder alike.
    poly = {"polynomial": {"coefficients": [sc("1")]}, "oracle": "1"}
    assert validator("function").is_valid(poly)
    assert ser.function_from_json(poly, "exact").coefficients == (snorder.exact(1),)


def test_partition_decoder_accepts_integral_floats_like_the_schema():
    assert ser.make_validator("partition").is_valid([3.0, 1])
    assert ser.partition_from_json([3.0, 1]) == (3, 1)


def test_analysis_error_exit_code(tmp_path, capsys):
    # incomparable 2x2 convexity input in exact mode -> analysis completes
    # with per-point errors (exit 0); a backend failure is exit 3
    f = {"polynomial": {"coefficients": [sc("0"), sc("1")]}}
    x = {"blocks": [{"eigenvalue": sc("1"), "sizes": [1]}]}
    y = {"blocks": [{"eigenvalue": sc("1"), "sizes": [1, 1]}]}  # dimension mismatch
    code, _ = run(capsys, [
        "monotone", write(tmp_path, "f.json", f),
        write(tmp_path, "x.json", x), write(tmp_path, "y.json", y),
    ])
    assert code == 3


def test_output_file(tmp_path, capsys):
    p = write(tmp_path, "p.json", [2])
    out_path = tmp_path / "report.json"
    code = main(["--output", str(out_path), "gdod", p, p])
    assert code == 0
    assert json.loads(out_path.read_text())["dominated"] is True


def test_package_exports_names_not_submodules():
    assert len(set(snorder.__all__)) == len(snorder.__all__)
    for name in snorder.__all__:
        assert not isinstance(getattr(snorder, name), types.ModuleType), name


def test_lazy_namespace_resolves_each_name_from_its_home_module():
    assert sorted(snorder._HOME) == sorted(snorder.__all__)
    for name, home in snorder._HOME.items():
        module = importlib.import_module(f"snorder.{home}")
        assert getattr(snorder, name) is getattr(module, name), name
    assert set(snorder.__all__) <= set(dir(snorder))
    namespace = {}
    exec("from snorder import *", namespace)
    assert all(namespace[name] is getattr(snorder, name) for name in snorder.__all__)
    with pytest.raises(AttributeError):
        snorder.no_such_name


@pytest.mark.parametrize("sub", ["fmap", "compare", "monotone", "repr"])
def test_empty_jordan_block_is_input_error(tmp_path, capsys, sub):
    f = write(tmp_path, "f.json", {"polynomial": {"coefficients": [sc("0"), sc("1")]}})
    empty = write(tmp_path, "e.json", {"blocks": [{"eigenvalue": sc("1"), "sizes": []}]})
    ok = write(tmp_path, "s.json", {"blocks": [{"eigenvalue": sc("1"), "sizes": [1]}]})
    argv = {
        "fmap": ["fmap", f, empty],
        "compare": ["compare", empty, ok],
        "monotone": ["monotone", f, ok, empty],
        "repr": ["repr", "--spec", empty],
    }[sub]
    assert_input_error(capsys, argv)


@pytest.mark.parametrize("weights", ["2,-1", "1/2,3/2", "-1/4"])
def test_convexity_rejects_weights_outside_unit_interval(tmp_path, capsys, weights):
    f = write(tmp_path, "f.json", {"polynomial": {"coefficients": [sc("0"), sc("0"), sc("1")]}})
    a = write(tmp_path, "a.json", {"rows": [[sc("0"), sc("0")], [sc("0"), sc("2")]]})
    b = write(tmp_path, "b.json", {"rows": [[sc("1"), sc("0")], [sc("0"), sc("1")]]})
    assert_input_error(capsys, ["convexity", f, a, b, f"-t={weights}"])
    code, out = run(capsys, ["convexity", f, a, b, "-t", "0,1"])
    assert code == 0
    assert [p["t"] for p in out["points"]] == ["0", "1"]


def test_convexity_refuses_an_oracle_function(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"oracle": "exp"})
    a = write(tmp_path, "a.json", {"rows": [[sc(0.0, 0.0)]]})
    err = assert_input_error(capsys, ["--backend", "float", "convexity", f, a, a])
    assert f in err and "polynomial" in err


@pytest.mark.parametrize("a_shape, b_shape", [((1, 2), (3, 3)), ((2, 2), (3, 3))])
def test_convexity_rejects_shape_mismatch(tmp_path, capsys, a_shape, b_shape):
    def zeros(m, n):
        return {"rows": [[sc("0")] * n for _ in range(m)]}

    f = write(tmp_path, "f.json", {"polynomial": {"coefficients": [sc("0"), sc("0"), sc("1")]}})
    a = write(tmp_path, "a.json", zeros(*a_shape))
    b = write(tmp_path, "b.json", zeros(*b_shape))
    assert_input_error(capsys, ["convexity", f, a, b, "-t", "1/2"])


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e999", "int-1e400"])
def test_non_finite_floats_are_input_errors(tmp_path, capsys, literal):
    def text(name, body):
        p = tmp_path / name
        p.write_text(body)
        return str(p)

    bad = f'{{"re": {literal}, "im": 0}}'
    x = text("x.json", f'[{bad}, {{"re": 1, "im": 0}}]')
    y = write(tmp_path, "y.json", [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}])
    assert_input_error(capsys, ["--backend", "float", "majorize", x, y])
    m = text("m.json", f'{{"rows": [[{bad}, {{"re": 0, "im": 0}}], [{{"re": 0, "im": 0}}, {bad}]]}}')
    ev = write(tmp_path, "ev.json", [{"re": 1.0, "im": 0.0}])
    assert_input_error(capsys, ["--backend", "float", "repr", "--matrix", m, "--eigenvalues", ev])
    box = text("box.json", f'{{"c1": 1, "c2": {literal}, "c3": 0}}')
    assert_input_error(capsys, ["schur", "--box", box, "--trials", "1", "--samples", "1"])


@pytest.mark.parametrize("body", [b"[" + b"1" * 5000 + b"]", b"\xff\xfe[]"],
                         ids=["int-5000-digits", "not-utf8"])
def test_undecodable_json_is_input_error(tmp_path, capsys, body):
    x = tmp_path / "x.json"
    x.write_bytes(body)
    assert_input_error(capsys, ["majorize", str(x), str(x)])


def test_repr_rejects_non_square_matrix(tmp_path, capsys):
    m = write(tmp_path, "m.json", {"rows": [[sc("1"), sc("0")]]})
    ev = write(tmp_path, "ev.json", [sc("1")])
    assert_input_error(capsys, ["repr", "--matrix", m, "--eigenvalues", ev])


def run_fresh(tmp_path, script):
    """Run script in a new interpreter that imports this checkout's snorder;
    return the JSON it prints last."""
    src = str(Path(snorder.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000 + "]" * 200_000)
    assert str(p) in assert_input_error(capsys, ["compare", str(p), str(p)])


@pytest.mark.parametrize("literal", ["1" * 5_000, "1/" + "3" * 5_000, "-7/" + "9" * 4_301],
                         ids=["integer", "denominator", "negative"])
def test_rational_literals_over_the_digit_limit_are_input_errors(tmp_path, capsys, literal):
    """Fraction refuses strings of more than sys.get_int_max_str_digits()
    digits with a ValueError; both decoders of exact scalars turn it into an
    input error."""
    vec = write(tmp_path, "v.json", [sc("1"), {"re": literal}])
    ok_vec = write(tmp_path, "w.json", [sc("1"), sc("1")])
    assert "v.json" in assert_input_error(capsys, ["majorize", vec, ok_vec])
    spec = write(tmp_path, "s.json", {"blocks": [{"eigenvalue": sc("0", literal), "sizes": [1]}]})
    ok_spec = write(tmp_path, "t.json", {"blocks": [{"eigenvalue": sc("1"), "sizes": [1]}]})
    assert "s.json" in assert_input_error(capsys, ["compare", ok_spec, spec])


@pytest.mark.parametrize("subcommand, doc, reason", [
    ("majorize", [sc("1"), {"re": "1" * 5_000}], "Exceeds the limit"),
    ("majorize", [sc("1"), {"re": "7" * 4_000 + "/00"}], "bad rational literal"),
    ("majorize", '[{"re": "1"}, {"re": ' + "[" * 500 + "]" * 500 + "}]",
     "must be a number or a rational string"),
    ("majorize", [sc("1"), {f"k{k}": 0 for k in range(5_000)}], "must be an object with the keys"),
    ("gdod", [2] * 3_000 + [3], "must be non-increasing"),
], ids=["5000-digits", "zero-denominator", "nested-500", "5000-keys", "partition-3001"])
def test_input_errors_name_a_long_value_without_echoing_it(tmp_path, capsys, subcommand, doc,
                                                           reason):
    """An input error keeps the path and the reason but cuts the value it
    names short, whatever its length or depth."""
    bad = tmp_path / "bad.json"  # a str doc is JSON text, nested too deep for json.dumps here
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    bad = str(bad)
    ok = write(tmp_path, "ok.json", [2, 1] if subcommand == "gdod" else [sc("1"), sc("1")])
    line = assert_input_error(capsys, [subcommand, bad, ok])
    assert bad in line and reason in line
    assert len(line) < len(bad) + 300


def test_a_bad_weight_list_is_named_cut_short(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"polynomial": {"coefficients": [sc("0"), sc("1")]}})
    a = write(tmp_path, "a.json", {"rows": [[sc("1")]]})
    line = assert_input_error(capsys, ["convexity", f, a, a, "-t", "7" * 4_000 + "/0"])
    assert "bad -t list" in line and "zero denominator" in line and len(line) < 300


def test_exact_output_past_the_digit_limit(tmp_path, capsys):
    """An exact result with more digits than str() converts is printed in
    full: z^2 at a 2,500-digit eigenvalue has a 5,000-digit image."""
    lam = 2 * 10 ** 2_499 + 3
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = str(lam * lam)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > limit
    f = write(tmp_path, "f.json", {"polynomial": {"coefficients": [sc("0"), sc("0"), sc("1")]}})
    spec = write(tmp_path, "s.json", {"blocks": [{"eigenvalue": sc("2" + "0" * 2_498 + "3"),
                                                  "sizes": [2]}]})
    code, out = run(capsys, ["fmap", f, spec])
    assert code == 0
    assert out["repr"]["eigenvalues"] == [sc(want)] and out["repr"]["partitions"] == [[2]]


def test_exact_cli_runs_do_not_import_numpy(tmp_path):
    write(tmp_path, "x.json", {"blocks": [{"eigenvalue": sc("1"), "sizes": [2, 1]}]})
    write(tmp_path, "y.json", {"blocks": [{"eigenvalue": sc("1"), "sizes": [3]}]})
    write(tmp_path, "m.json", {"rows": [[sc("1"), sc("1")], [sc("0"), sc("1")]]})
    write(tmp_path, "ev.json", [sc("1")])
    write(tmp_path, "v.json", [sc("2"), sc("1")])
    write(tmp_path, "f.json", {"polynomial": {"coefficients": [sc("0"), sc("0"), sc("1")]}})
    write(tmp_path, "a.json", {"rows": [[sc("0"), sc("0")], [sc("0"), sc("2")]]})
    write(tmp_path, "b.json", {"rows": [[sc("1"), sc("0")], [sc("0"), sc("1")]]})
    report = run_fresh(tmp_path, """
import json, sys
import snorder, snorder.cli as cli
out = "report.json"
unwanted = ("numpy", "jsonschema", "referencing")
codes = [cli.main(["--output", out, "schur", "--n", "2", "--trials", "20", "--samples", "3"])]
after_schur = sorted(m for m in unwanted if m in sys.modules)
codes += [
    cli.main(["--output", out, "majorize", "v.json", "v.json", "--decompose"]),
    cli.main(["--output", out, "compare", "x.json", "y.json"]),
    cli.main(["--output", out, "repr", "--matrix", "m.json", "--eigenvalues", "ev.json"]),
    cli.main(["--output", out, "convexity", "f.json", "a.json", "b.json"]),
]
print(json.dumps({"codes": codes, "after_schur": after_schur,
                  "loaded": sorted(m for m in unwanted if m in sys.modules)}))
""")
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["after_schur"] == []
    # The decoders are the validator, so no run loads jsonschema.
    assert report["loaded"] == []


# One small exact run of each subcommand, and the snorder modules it must not
# load: each subcommand imports only the layers it calls.  No run imports
# dataclasses or inspect, which cost more than a tenth of a short run.
SUBCOMMAND_RUNS = {
    "gdod": (["gdod", "p.json", "q.json"], {"snrepr", "matfunc", "ordering"}),
    "majorize": (["majorize", "v.json", "w.json", "--decompose"],
                 {"snrepr", "matfunc", "ordering"}),
    "compare": (["compare", "x.json", "y.json"], {"ordering"}),
    "repr": (["repr", "--matrix", "m.json", "--eigenvalues", "ev.json"], {"ordering"}),
    "schur": (["schur", "--n", "2", "--trials", "20", "--samples", "3"],
              {"ordering", "matfunc", "snrepr"}),
    "fmap": (["fmap", "f.json", "x.json"], {"ordering"}),
    "convexity": (["convexity", "f.json", "a.json", "b.json"], {"schur"}),
    "monotone": (["monotone", "f.json", "x.json", "y.json"], {"schur"}),
}


@pytest.mark.parametrize("sub", sorted(SUBCOMMAND_RUNS))
def test_each_subcommand_loads_only_its_layers(tmp_path, sub):
    write(tmp_path, "p.json", [3, 1])
    write(tmp_path, "q.json", [4])
    write(tmp_path, "v.json", [sc("2"), sc("2")])
    write(tmp_path, "w.json", [sc("3"), sc("1")])
    write(tmp_path, "x.json", {"blocks": [{"eigenvalue": sc("1"), "sizes": [2, 1]}]})
    write(tmp_path, "y.json", {"blocks": [{"eigenvalue": sc("1"), "sizes": [3]}]})
    write(tmp_path, "m.json", {"rows": [[sc("1"), sc("1")], [sc("0"), sc("1")]]})
    write(tmp_path, "ev.json", [sc("1")])
    write(tmp_path, "f.json", {"polynomial": {"coefficients": [sc("0"), sc("0"), sc("1")]}})
    write(tmp_path, "a.json", {"rows": [[sc("0"), sc("0")], [sc("0"), sc("2")]]})
    write(tmp_path, "b.json", {"rows": [[sc("1"), sc("0")], [sc("0"), sc("1")]]})
    argv, unwanted = SUBCOMMAND_RUNS[sub]
    report = run_fresh(tmp_path, f"""
import json, sys
def layers():
    return sorted(m.split(".")[1] for m in sys.modules if m.startswith("snorder."))
import snorder
bare = layers()
import snorder.cli as cli
code = cli.main(["--output", "report.json"] + {argv!r})
stdlib = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps({{"bare": bare, "code": code, "loaded": layers(), "stdlib": stdlib}}))
""")
    assert report["bare"] == []
    assert report["code"] == 0
    assert "cli" in report["loaded"]
    assert not unwanted & set(report["loaded"]), report["loaded"]
    assert report["stdlib"] == []


def test_float_paths_load_numpy_on_first_use(tmp_path):
    report = run_fresh(tmp_path, """
import json, sys
from snorder import linalg, repr_from_matrix
from snorder.scalar import approx
before = "numpy" in sys.modules
m = linalg.Matrix.from_rows([[approx(1.0, 0.0), approx(2.0, 0.0)],
                             [approx(2.0, 0.0), approx(4.0, 0.0)]])
arr = m.to_numpy()
rep = repr_from_matrix(m, [approx(0.0), approx(5.0)])
print(json.dumps({"before": before, "shape": list(arr.shape),
                  "partitions": [list(p) for p in rep.partitions]}))
""")
    assert report["before"] is False
    assert report["shape"] == [2, 2]
    assert report["partitions"] == [[1], [1]]


# -- every subcommand on valid documents: exit 0 or 3, never a crash -------


def _quarters():
    return st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4]))


def _values(n):
    """n complex values with real and imaginary parts in multiples of 1/4."""
    part = st.one_of(st.just(Fraction(0)), _quarters())
    return st.lists(st.tuples(_quarters(), part), min_size=n, max_size=n)


@st.composite
def _scalars(draw, backend, values):
    """values as scalar documents: rational strings on exact; on float, the
    same values, each part off by a jitter of up to 2e-9."""
    if backend == "exact":
        return [sc(str(re), str(im)) for re, im in values]
    jitter = st.sampled_from([0.0, 0.0, 1e-9, -2e-9, 2.0 ** -40])
    return [sc(float(re) + draw(jitter), float(im) + draw(jitter)) for re, im in values]


@st.composite
def _spec(draw, backend, n):
    """A Jordan spec of dimension n; its eigenvalues come from a pool of
    three, so blocks at one eigenvalue often merge."""
    pool = draw(_values(3))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    lams = draw(_scalars(backend, [draw(st.sampled_from(pool)) for _ in sizes]))
    return {"blocks": [{"eigenvalue": lam, "sizes": [s]} for lam, s in zip(lams, sizes)]}


@st.composite
def _function(draw, backend, oracles=True):
    if backend == "float" and oracles and draw(st.booleans()):
        return {"oracle": draw(st.sampled_from(["exp", "sin", "cos"]))}
    coeffs = draw(_scalars(backend, draw(_values(draw(st.integers(1, 3))))))
    return {"polynomial": {"coefficients": coeffs}}


@st.composite
def _matrix(draw, backend, n, triangular=False):
    """An n x n matrix; a triangular one, with its indices permuted, comes
    with its diagonal in random order as its eigenvalues."""
    vals = draw(_values(n * n))
    rows = [vals[i * n:(i + 1) * n] for i in range(n)]
    if triangular:
        rows = [[z if j >= i else (Fraction(0), Fraction(0)) for j, z in enumerate(row)]
                for i, row in enumerate(rows)]
        perm = draw(st.permutations(range(n)))
        rows = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    doc = {"rows": [draw(_scalars(backend, row)) for row in rows]}
    diag = draw(st.permutations([rows[i][i] for i in range(n)]))
    return doc, draw(_scalars(backend, diag))


@st.composite
def _cli_run(draw, backend, sub):
    """(argv, files): one valid run of sub, files being the documents that
    argv names by key."""
    n = draw(st.integers(1, 4))
    m = n if draw(st.integers(0, 5)) else draw(st.integers(1, 4))  # mostly equal sizes
    files = {}
    if sub == "majorize":
        y, x = draw(_values(n)), draw(_values(m))
        if n > 1 and draw(st.booleans()):  # y with two entries averaged: majorized by y
            i, j = draw(st.permutations(range(n)))[:2]
            mid = tuple((a + b) / 2 for a, b in zip(y[i], y[j]))
            x = [mid if k in (i, j) else z for k, z in enumerate(y)]
        files = {"x": draw(_scalars(backend, x)), "y": draw(_scalars(backend, y))}
        argv = ["majorize", "x", "y"] + (["--decompose"] if draw(st.booleans()) else [])
    elif sub in ("compare", "monotone"):
        files = {"x": draw(_spec(backend, n)), "y": draw(_spec(backend, m))}
        argv = [sub, "x", "y"]
        if sub == "monotone":
            files["f"] = draw(_function(backend))
            argv = [sub, "f", "x", "y"]
    elif sub == "repr":
        if draw(st.booleans()):
            files = {"s": draw(_spec(backend, n))}
            argv = ["repr", "--spec", "s"]
        else:
            files["m"], files["ev"] = draw(_matrix(backend, n, draw(st.integers(0, 3)) > 0))
            if draw(st.integers(0, 4)) == 0:
                files["ev"] = files["ev"][1:] or files["ev"]
            argv = ["repr", "--matrix", "m", "--eigenvalues", "ev"]
    elif sub == "fmap":
        files = {"f": draw(_function(backend)), "s": draw(_spec(backend, n))}
        argv = ["fmap", "f", "s"]
    elif sub == "gdod":
        part = st.lists(st.integers(1, 4), max_size=4).map(lambda p: sorted(p, reverse=True))
        files = {"p": draw(part), "q": draw(part)}
        argv = ["gdod", "p", "q"]
    elif sub == "schur":
        argv = ["schur", "--func", draw(st.sampled_from(["sum_sq", "neg_sum_sq"])),
                "--n", str(min(n, 3)), "--trials", str(draw(st.integers(0, 30))),
                "--samples", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            files = {"box": {"c1": draw(st.sampled_from([0, 0.5, 1])),
                             "c2": draw(st.sampled_from([-1, 0])),
                             "c3": draw(st.sampled_from([0, 0.5]))}}
            argv += ["--box", "box"]
    else:  # convexity, which needs f(A), so a polynomial
        k = min(n, 2)
        files = {"f": draw(_function(backend, oracles=False)),
                 "a": draw(_matrix(backend, k, draw(st.booleans())))[0],
                 "b": draw(_matrix(backend, k, draw(st.booleans())))[0]}
        argv = ["convexity", "f", "a", "b"]
        if draw(st.booleans()):
            argv += ["-t", ",".join(draw(st.lists(st.sampled_from(["0", "1/4", "1/2", "1"]),
                                                  min_size=1, max_size=3)))]
    return argv, files


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("sub", ["majorize", "compare", "repr", "fmap", "gdod", "schur",
                                 "convexity", "monotone"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_valid_documents_exit_0_or_3_with_one_line_of_stderr(backend, sub, data):
    # In-process through main(): an exception escaping it fails the test.
    argv, files = data.draw(_cli_run(backend, sub))
    with tempfile.TemporaryDirectory() as tmp:
        for key, doc in files.items():
            (Path(tmp) / f"{key}.json").write_text(json.dumps(doc))
        argv = [str(Path(tmp) / f"{a}.json") if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--backend", backend, *argv])
    assert code in (0, 3), err.getvalue()
    assert err.getvalue().count("\n") <= 1
    if code == 0:
        json.loads(out.getvalue())
