"""Tests of the benchmark itself: output contract, repeatable counts, the gate.

    python3 -m pytest perfbench/tests -q

Runs use ``--size tiny``: every phase does the least work it can, so the
whole module takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gendata
import measure
import tracing
import workloads
from checks import Ledger
from workloads import BENCH_DIR, ROOT, WORKLOADS, tiny

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

_runs: dict[tuple[str, int, int], dict] = {}


def run_tiny(workload: str, trace: int, seed: int = 3) -> dict:
    """Last-line JSON of one tiny run (cached per workload, trace and seed)."""
    key = (workload, trace, seed)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        _runs[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


@pytest.mark.parametrize("workload", ["desk-tft", "desk-qtft"])
def test_counts_repeat_exactly_across_traced_runs(workload):
    first, second = run_tiny(workload, 1, seed=5), run_tiny(workload, 1, seed=3)
    again = run_tiny(workload, 1, seed=5)
    counts = [m["name"] for m in BENCH["per_layer"]
              if m["unit"] == "count" and m["name"] != "grad.gc_collections"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == again["metrics"][name], name
    assert second["correct"]


def test_counts_match_the_model_structure():
    counts = run_tiny("desk-qtft", 1)["metrics"]
    # Every circuit node in the loss graph is differentiated once per backward.
    assert counts["grad.shift_calls"]["value"] == counts["grad.quantum_nodes"]["value"]
    assert counts["quantum_sim.run_bound_batch_rows"]["value"] == counts["grad.shift_rows"]["value"]
    assert counts["forecasting.train_windows"]["value"] == 17


def _tiny_inputs(name: str, tmp_path, seed: int = 2) -> measure.Inputs:
    workload = tiny(WORKLOADS[name])
    csv_path = str(tmp_path / "input.csv")
    gendata.write_csv(csv_path, seed, workload.csv_rows)
    return measure.Inputs(workload, csv_path)


@pytest.mark.parametrize("workload", ["desk-qtft", "wide-qlstm"])
def test_corrupted_circuit_jacobian_is_caught_by_the_gate(workload, tmp_path, monkeypatch):
    from qtft import grad

    original = grad.shift_rule_jacobians

    def offset(*args):
        jf, jw = original(*args)
        return jf + 1e-3, jw + 1e-3

    monkeypatch.setattr(grad, "shift_rule_jacobians", offset)
    ledger = Ledger()
    measure.run_untraced(_tiny_inputs(workload, tmp_path), 0.0, 2, ledger)
    caught = [f for f in ledger.failures
              if "circuit Jacobians agree with the dense reference" in f]
    assert len(caught) == 1, ledger.failures
    if workload == "wide-qlstm":
        # At d_model 4 the offset also reaches the loss through the layer norms.
        assert any("backward agrees with central differences" in f for f in ledger.failures)


def test_corrupted_simulator_is_caught_by_the_gate(tmp_path, monkeypatch):
    from qtft import grad

    original = grad.run_circuit

    def shifted(circuit, features=(), weights=()):
        return original(circuit, features, np.asarray(weights, dtype=float) + 1e-3)

    monkeypatch.setattr(grad, "run_circuit", shifted)
    ledger = Ledger()
    measure.run_untraced(_tiny_inputs("desk-qtft", tmp_path), 0.0, 2, ledger)
    assert any("circuit <Z> values agree with reference.dense_run" in f
               for f in ledger.failures), ledger.failures


def test_gate_passes_on_the_unmodified_program(tmp_path):
    ledger = Ledger()
    metrics, _ = measure.run_untraced(_tiny_inputs("desk-qtft", tmp_path), 0.0, 2, ledger)
    assert ledger.failed == 0 and ledger.attempted > 0
    assert metrics["final_train_loss"] > 0


def test_hook_that_never_fires_is_reported_missing(tmp_path, monkeypatch):
    functions = {core: dict(fns) for core, fns in tracing.CORE_BLOCK_FUNCTIONS.items()}
    del functions["tft_core"]["grn"]
    monkeypatch.setattr(tracing, "CORE_BLOCK_FUNCTIONS", functions)
    _, missing, _, _ = measure.run_traced(_tiny_inputs("desk-tft", tmp_path), 0.0, 2, Ledger())
    assert "tft_core.enrichment.forward_s" in missing
    assert "tft_core.positionwise.forward_s" in missing
    assert "tft_core.attention.forward_s" not in missing


def test_tracer_restores_every_binding():
    from qtft import forecasting, grad, qtft_core, tft_core

    before = {(m.__name__, a): getattr(m, a) for m in (forecasting, grad, qtft_core, tft_core)
              for a in dir(m) if callable(getattr(m, a))}
    model = measure.forecasting.build_model(
        WORKLOADS["desk-qtft"].train_config(), 5, 1, 1)
    with tracing.Tracer() as tracer:
        tracer.install(model)
        assert qtft_core.qgrn is not before[("qtft.qtft_core", "qgrn")]
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert after == before


def test_generator_is_seeded_and_shaped_like_the_sample(tmp_path):
    with open(os.path.join(ROOT, "data", "axis_bank_2000.csv"), encoding="utf-8") as fh:
        sample_header = fh.readline().strip()
    assert gendata.HEADER == sample_header
    assert gendata.rows(4, 30) == gendata.rows(4, 30)
    assert gendata.rows(4, 30) != gendata.rows(5, 30)
    closes = [float(line.split(",")[8]) for line in gendata.rows(4, 200)]
    assert 20.0 < np.median(closes) < 35.0


def test_every_block_has_parameter_fields():
    assert set(tracing.BLOCK_OF_FIELD.values()) == set(workloads.BLOCKS)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert measure.tail_percentile(1000) == pytest.approx(99.0)
    assert measure.tail_percentile(250) == pytest.approx(96.0)
    assert measure.tail_percentile(5) == 0.0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-tft", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
