"""Smoke test of the benchmark itself, at minimal size on a fixed seed.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
from pathlib import Path

import pytest

import run

run.use_source_tree()
BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 8)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "CLI_STARTUP_PROBES", 1)
    monkeypatch.setattr(run, "CLI_TRACE_BLOCKS", 1)


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)])
    *_, report, result = capsys.readouterr().out.splitlines()
    return code, json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(small, capsys, workload, trace):
    code, report, result = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert report["failed_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert set(report["stamp"]) == {"commit", "python", "numpy", "nproc", "src_lines"}


def test_wrong_answer_is_counted_and_fails_the_run(small, capsys, monkeypatch):
    from snorder import snrepr

    real = snrepr.repr_from_matrix
    calls = []

    def wrong_once(x, eigenvalues):
        rep = real(x, eigenvalues)
        calls.append(rep)
        if len(calls) > 1:
            return rep
        return snrepr.SNRepresentation(rep.eigenvalues, ((9,),) + rep.partitions[1:])

    monkeypatch.setattr(snrepr, "repr_from_matrix", wrong_once)
    code, report, result = bench(capsys, "jordan_sweep")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert len(report["wrong_answers"]) == 1


def test_program_error_is_counted_but_is_not_a_wrong_answer(small, capsys, monkeypatch):
    from snorder import snrepr
    from snorder.errors import SpectrumMismatch

    real = snrepr.repr_from_matrix
    calls = []

    def raise_once(x, eigenvalues):
        calls.append(x)
        if len(calls) == 1:
            raise SpectrumMismatch("injected")
        return real(x, eigenvalues)

    monkeypatch.setattr(snrepr, "repr_from_matrix", raise_once)
    code, report, result = bench(capsys, "jordan_sweep")
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 1
    assert report["failed_ratio"]["value"] == 1 / result["attempted"]


def test_op_times_are_scaled_by_the_host_reference(small, capsys, monkeypatch):
    # a host that runs the reference chunk at half the nominal speed
    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.CHUNK_NOMINAL_S)
    code, report, result = bench(capsys, "order_queries")
    assert code == 0
    wall, metrics = report["wall"], result["metrics"]
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(wall["latency_p50_ms"] / 2)
    assert metrics["latency_p90_ms"]["value"] == pytest.approx(wall["latency_p90_ms"] / 2)
    assert metrics["ops_per_s"]["value"] == pytest.approx(wall["ops_per_s"] * 2)
