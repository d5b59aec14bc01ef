"""Tests of the benchmark's span arithmetic, tracing hooks and output checks."""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_of_nested_spans():
    S = tracing.Span
    spans = [
        S("cli.band", 0.0, 10.0, None),
        S("hamiltonian.momentum_spectra", 1.0, 7.0, 0),
        S("eigensolve.eigh", 2.0, 6.0, 1),
        S("eigensolve.lapack", 2.5, 5.0, 2),
        S("bands.extract_band", 7.5, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 1.5, 2.5, 1.5])
    layers = tracing.self_time_by_layer(spans)
    assert layers == pytest.approx(
        {"cli": 2.5, "hamiltonian": 2.0, "eigensolve": 4.0, "bands": 1.5})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_best_latencies_take_each_operations_fastest_run_over_ragged_passes():
    passes = [run.Pass(latencies=[3.0, 1.0, 2.0]), run.Pass(latencies=[2.0, 1.5, 2.5]),
              run.Pass(latencies=[2.5])]  # the last pass stopped at the deadline
    assert run.best_latencies(passes) == [2.0, 1.0, 2.0]


def test_installed_wrappers_nest_spans_and_are_removed_afterwards():
    qdnls = workloads.import_qdnls()
    original = qdnls.hamiltonian.eigh
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert qdnls.hamiltonian.eigh is not original
        qdnls.momentum_spectra(qdnls.ModelParams(f=5, n=2, gamma1=1.0, epsilon=0.5))
    assert qdnls.hamiltonian.eigh is original
    names = [s.name for s in tracer.spans]
    parent = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent is not None}
    assert names.count("eigensolve.eigh") == 5
    assert names.count("eigensolve.lapack") == 5
    assert parent["eigensolve.lapack"] == "eigensolve.eigh"
    assert parent["eigensolve.eigh"] == "hamiltonian.momentum_spectra"
    assert parent["hamiltonian.block_parts"] == "hamiltonian.assemble_block"
    metrics = tracing.layer_metrics(tracer, cli_rows=15, cli_bytes=0)
    assert metrics["hamiltonian.blocks"] == 5
    assert metrics["hamiltonian.block_dim_sum"] == 15  # every state of the (5, 2) sector
    assert metrics["eigensolve.pairs"] == 15
    assert metrics["eigensolve.useful_ratio"] == 1.0


def test_energy_shifted_by_1e_6_fails_the_trace_check_and_counts_as_failed():
    workloads.import_qdnls()
    params = workloads.Params(f=5, n=2, gamma1=1.0, gamma2=0.0, epsilon=0.5)
    op = workloads.cli_op("spectrum f5 n2", "spectrum", params, ["spectrum", "--f", "5", "--n", "2"])
    text = op.execute({}, None)
    assert checks.invariants(op, text) == []

    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    row = lines[first].split(",")
    row[3] = repr(float(row[3]) + 1e-6)
    lines[first] = ",".join(row)
    shifted = "\n".join(lines) + "\n"
    assert any("trace" in p for p in checks.invariants(op, shifted))

    tampered = dataclasses.replace(op, execute=lambda state, tracer: shifted)
    result = run.run_pass([op, tampered], None)
    assert result.failed == 1
    assert result.failed / len(result.latencies) == 0.5
