"""End-to-end CLI checks through click's test runner."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qdnls
from qdnls.cli import CSV_COLUMNS, MODEL_KEYS, main
from qdnls.perturbation import PT_BUILDERS, pt_asymptotics

from conftest import BAD_PATTERNS

FIG_FLAGS = ["--f", "7", "--n", "4", "--gamma1", "10", "--eps", "0.5"]
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def runner():
    return CliRunner()


def invoke_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.stderr or result.output
    return result


def parse_csv(text):
    lines = text.strip().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return comments, header, rows


# ------------------------------------------------------------------- spectrum


def test_spectrum_emits_labelled_csv(runner):
    result = invoke_ok(runner, ["spectrum", "--f", "5", "--n", "3", "--gamma1", "5",
                                "--eps", "0.5"])
    comments, header, rows = parse_csv(result.output)
    assert comments[0].startswith("# params: ")
    params = json.loads(comments[0][len("# params: "):])
    assert params["f"] == 5 and params["n"] == 3 and params["k"] == "all"
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 35
    assert {row[0] for row in rows} == {"-2", "-1", "0", "1", "2"}
    bands = {row[4] for row in rows}
    assert "3" in bands and "2+1" in bands
    # ascending within each momentum block
    for l in ("-2", "-1", "0", "1", "2"):
        energies = [float(r[3]) for r in rows if r[0] == l]
        assert energies == sorted(energies)


def test_spectrum_momentum_restriction(runner):
    result = invoke_ok(runner, ["spectrum", "--f", "5", "--n", "3", "--gamma1", "5",
                                "--eps", "0.5", "--k", "2"])
    _, _, rows = parse_csv(result.output)
    assert len(rows) == 7
    assert {row[0] for row in rows} == {"2"}
    assert float(rows[0][1]) == pytest.approx(2.0 * math.pi * 2 / 5)


def test_spectrum_rejects_off_grid_momentum(runner):
    result = runner.invoke(main, ["spectrum", "--f", "5", "--n", "3", "--gamma1", "5",
                                  "--k", "7"])
    assert result.exit_code == 2
    assert "not on the grid" in result.stderr


def test_zero_hopping_spectrum_is_diagonal(runner):
    result = invoke_ok(runner, ["spectrum", "--f", "4", "--n", "2", "--gamma1", "1"])
    _, _, rows = parse_csv(result.output)
    assert {float(r[3]) for r in rows} == {-2.0, 0.0}
    assert all(float(r[5]) == 1.0 for r in rows)


def test_empty_sector_spectrum_has_one_vacuum_row(runner):
    # n = 0: only l = 0 carries the vacuum; the other momentum blocks are empty
    args = ["--f", "5", "--n", "0", "--gamma1", "1"]
    _, header, rows = parse_csv(invoke_ok(runner, ["spectrum", *args]).output)
    assert header == list(CSV_COLUMNS)
    assert rows == [["0", "0", "0", "0", "unclassified", "1"]]
    _, _, oracle_rows = parse_csv(invoke_ok(runner, ["oracle", *args]).output)
    assert [row[3] for row in oracle_rows] == [rows[0][3]]


def test_validation_failure_leaves_no_file(runner, tmp_path):
    out = tmp_path / "never.csv"
    result = runner.invoke(main, ["spectrum", "--f", "1", "--n", "2", "--gamma1", "1",
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert "error:" in result.stderr
    assert not out.exists()


def test_missing_parameters_fail_cleanly(runner):
    result = runner.invoke(main, ["spectrum", "--f", "5"])
    assert result.exit_code == 2
    assert "missing required parameters" in result.stderr


# --------------------------------------------------------------------- config


def test_json_output_round_trips_through_config(runner, tmp_path):
    out = tmp_path / "run.json"
    invoke_ok(runner, ["spectrum", "--f", "5", "--n", "3", "--gamma1", "5", "--eps", "0.5",
                       "--k", "2", "--threshold", "0.9", "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["columns"] == list(CSV_COLUMNS)
    assert len(doc["rows"]) == 7 and doc["config"]["threshold"] == 0.9
    again = tmp_path / "again.json"
    invoke_ok(runner, ["spectrum", "--config", str(out), "--format", "json",
                       "--out", str(again)])
    doc2 = json.loads(again.read_text())
    assert doc2 == doc
    # a flag given on the command line still wins over the stored setting
    every_k = json.loads(invoke_ok(runner, ["spectrum", "--config", str(out), "--k", "all",
                                            "--format", "json"]).stdout)
    assert len(every_k["rows"]) == 35 and every_k["config"]["threshold"] == 0.9


def test_config_rejects_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"f": 5, "n": 3, "gamma1": 5.0, "tau": 1}))
    result = runner.invoke(main, ["spectrum", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "unknown keys" in result.stderr and "tau" in result.stderr


def test_wrapped_config_rejects_unknown_keys(runner, tmp_path):
    # the {"config": ...} wrapper tolerates run settings (pattern, k,
    # threshold) stored next to the model parameters, but not junk keys
    cfg = tmp_path / "bad_wrapped.json"
    cfg.write_text(json.dumps({"config": {"f": 5, "n": 3, "gamma1": 5.0, "tau": 1}}))
    result = runner.invoke(main, ["spectrum", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "unknown keys" in result.stderr and "tau" in result.stderr


def test_wrapped_config_rejects_non_numeric_threshold(runner, tmp_path):
    cfg = tmp_path / "bad_threshold.json"
    cfg.write_text(json.dumps({"config": {"f": 5, "n": 3, "gamma1": 5.0, "threshold": "high"}}))
    result = runner.invoke(main, ["spectrum", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "non-numeric threshold" in result.stderr


def test_flags_override_config(runner, tmp_path):
    cfg = tmp_path / "base.json"
    cfg.write_text(json.dumps({"f": 5, "n": 3, "gamma1": 5.0}))
    result = invoke_ok(runner, ["spectrum", "--config", str(cfg), "--gamma1", "7"])
    comments, _, _ = parse_csv(result.output)
    params = json.loads(comments[0][len("# params: "):])
    assert params["gamma1"] == 7.0


# ----------------------------------------------------------------------- band


def test_band_reports_tags_counts_and_ground(runner):
    result = invoke_ok(runner, ["band", *FIG_FLAGS, "--pattern", "2,2",
                                "--format", "json"])
    doc = json.loads(result.output)
    assert doc["config"]["pattern"] == [2, 2]
    assert all(entry == [3, 3] for entry in doc["counts"].values())
    tags = {row[4] for row in doc["rows"]}
    assert tags == {"line", "continuum"}
    assert doc["pt_max_residual"] < 2e-3
    ground = doc["global_ground"]
    assert ground["l"] == 0 and ground["in_band"] is False


def test_band_csv_carries_extras_as_comments(runner):
    result = invoke_ok(runner, ["band", *FIG_FLAGS, "--pattern", "2,2"])
    comments, header, rows = parse_csv(result.output)
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 21
    assert any(c.startswith("# counts: ") for c in comments)
    assert any(c.startswith("# global_ground: ") for c in comments)


def test_band_rejects_wrong_boson_count(runner):
    result = runner.invoke(main, ["band", *FIG_FLAGS, "--pattern", "5,1"])
    assert result.exit_code == 2
    assert "holds 6 bosons" in result.stderr


# ------------------------------------------------------------------------- pt


def test_pt_pair_band_exposes_asymptotics(runner):
    result = invoke_ok(runner, ["pt", "--f", "19", "--n", "4", "--gamma1", "10",
                                "--eps", "0.5", "--pattern", "2,2", "--k", "0",
                                "--format", "json"])
    doc = json.loads(result.output)
    assert doc["columns"] == list(CSV_COLUMNS) + ["asym_line", "asym_cont_min",
                                                  "asym_cont_max"]
    assert len(doc["rows"]) == 9
    line_col = doc["columns"].index("asym_line")
    assert doc["rows"][0][line_col] == pytest.approx(-39.8875, abs=1e-12)
    assert doc["rows"][0][doc["columns"].index("asym_cont_min")] == pytest.approx(-40.2)


def test_pt_flat_band_is_momentum_independent(runner):
    result = invoke_ok(runner, ["pt", "--f", "7", "--n", "6", "--gamma1", "10",
                                "--gamma2", "20", "--eps", "0.5", "--pattern", "3,3",
                                "--format", "json"])
    doc = json.loads(result.output)
    by_index = {}
    for row in doc["rows"]:
        by_index.setdefault(row[2], set()).add(row[3])
    assert len(by_index) == 3
    assert all(len(values) == 1 for values in by_index.values())


def test_pt_resonant_parameters_exit_4(runner):
    result = runner.invoke(main, ["pt", "--f", "11", "--n", "6", "--gamma1", "3",
                                  "--gamma2", "1", "--pattern", "4,2"])
    assert result.exit_code == 4
    assert "gamma1 - 3*gamma2" in result.stderr


def test_pt_prints_each_resonance_warning_once():
    # h22_matrix and pt_asymptotics both reach coeffs22; a warning that names
    # the coefficient function's own line is shown once under the default filter
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(qdnls.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-m", "qdnls.cli", "pt", "--f", "7", "--n", "4",
                          "--gamma1", "1", "--eps", "1", "--pattern", "2,2"],
                         env=env, capture_output=True, text=True, check=True)
    shown = [line for line in run.stderr.splitlines() if "ResonanceWarning" in line]
    assert len(shown) == 2
    assert "denominator -2*gamma1 = -2 is within" in shown[0]
    assert "denominator gamma1 - 3*gamma2 = 1 is within" in shown[1]


def test_pt_unsupported_pattern_exits_2(runner):
    result = runner.invoke(main, ["pt", *FIG_FLAGS, "--pattern", "2,1,1"])
    assert result.exit_code == 2
    assert "no closed perturbative form" in result.stderr


@pytest.mark.parametrize("args", [
    [*FIG_FLAGS, "--pattern", "2,2"],
    ["--f", "7", "--n", "6", "--gamma1", "30", "--eps", "0.5", "--pattern", "4,2"],
    ["--f", "7", "--n", "6", "--gamma1", "10", "--gamma2", "20", "--eps", "0.5",
     "--pattern", "3,3"],
    ["--config", str(CONFIGS / "band22_n4.json"), "--pattern", "2,2"],
])
def test_pt_asymptotic_columns_are_the_perturbation_function_bitwise(runner, args):
    doc = json.loads(invoke_ok(runner, ["pt", *args, "--format", "json"]).output)
    params = qdnls.ModelParams(**{key: doc["config"][key] for key in MODEL_KEYS})
    pattern = tuple(doc["config"]["pattern"])
    for row in doc["rows"]:
        asym = pt_asymptotics(params, pattern, qdnls.MomentumIndex(row[0], params.f))
        assert doc["columns"] == [*CSV_COLUMNS, *asym]
        assert row[len(CSV_COLUMNS):] == list(asym.values())  # JSON floats round-trip


def closed_forms_listed(stderr, after):
    """The patterns an error message lists after `after`, as tuples."""
    listed = stderr.strip().split(after)[1].split(" / ")
    return [tuple(map(int, pattern.split(","))) for pattern in listed]


def test_unsupported_pattern_messages_list_the_closed_form_builders(runner, monkeypatch):
    pt_error = runner.invoke(main, ["pt", *FIG_FLAGS, "--pattern", "3,1"]).stderr
    compare_error = runner.invoke(main, ["compare", *FIG_FLAGS, "--pattern", "3,1"]).stderr
    assert closed_forms_listed(pt_error, "supported: ") == list(PT_BUILDERS)
    assert closed_forms_listed(compare_error, "one of ") == list(PT_BUILDERS)
    # both follow the builders: without {3,3}, neither lists it
    monkeypatch.delitem(PT_BUILDERS, (3, 3))
    flat = ["--f", "7", "--n", "6", "--gamma1", "10", "--gamma2", "20", "--pattern", "3,3"]
    for command, after in (("pt", "supported: "), ("compare", "one of ")):
        result = runner.invoke(main, [command, *flat])
        assert result.exit_code == 2
        assert closed_forms_listed(result.stderr, after) == [(2, 2), (4, 2)]


# -------------------------------------------------------------------- compare


def test_compare_reports_residuals(runner):
    result = invoke_ok(runner, ["compare", *FIG_FLAGS, "--pattern", "2,2",
                                "--format", "json"])
    doc = json.loads(result.output)
    assert doc["columns"] == list(CSV_COLUMNS) + ["pt", "absdiff"]
    assert 0 < doc["max_residual"] < 2e-3
    assert 0 < doc["mean_residual"] <= doc["max_residual"]
    diff_col = doc["columns"].index("absdiff")
    assert all(row[diff_col] <= doc["max_residual"] for row in doc["rows"])


def test_compare_scaling_shows_quartic_decay(runner):
    result = invoke_ok(runner, ["compare", *FIG_FLAGS, "--pattern", "2,2",
                                "--scaling", "--format", "json"])
    table = json.loads(result.output)["scaling"]
    assert [entry["epsilon"] for entry in table] == [0.5, 0.25, 0.125]
    for entry in table[1:]:
        assert 10.0 < entry["decay_factor"] < 25.0


def test_compare_scaling_without_residual_reports_no_decay(runner):
    # at threshold 0.995 every momentum comes up short at eps, so that row
    # pairs nothing and has no residual, and the next has no decay factor
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke_ok(runner, ["compare", *FIG_FLAGS, "--pattern", "2,2", "--threshold",
                                    "0.995", "--scaling", "--format", "json"])
    doc = json.loads(result.stdout)
    # the overlap is reported once, in the output, and not warned as well
    assert any("another band overlaps" in note for note in doc["overlap_warnings"])
    assert not [w for w in caught if "another band overlaps" in str(w.message)]
    table = doc["scaling"]
    assert table[0]["max_residual"] is None
    assert table[1]["max_residual"] is not None and table[1]["decay_factor"] is None


def test_compare_resonant_parameters_exit_4(runner, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compare built a sector table or solved a block")

    # the resonance is found before any table is built or block solved
    monkeypatch.setattr(qdnls.basis, "SectorOrbits", refuse)
    monkeypatch.setattr(qdnls.hamiltonian, "eigh", refuse)
    qdnls.basis.sector_orbits.cache_clear()
    result = runner.invoke(main, ["compare", "--f", "7", "--n", "6", "--gamma1", "3",
                                  "--gamma2", "1", "--eps", "0.1", "--pattern", "4,2"])
    assert result.exit_code == 4
    assert "gamma1 - 3*gamma2" in result.stderr


@pytest.mark.parametrize("command", ["band", "compare"])
@pytest.mark.parametrize("sector,pattern,message", BAD_PATTERNS)
def test_band_and_compare_reject_a_pattern_with_the_library_message(
        runner, command, sector, pattern, message):
    f, n = sector
    result = runner.invoke(main, [command, "--f", str(f), "--n", str(n), "--gamma1", "10",
                                  "--eps", "0.5", "--pattern", ",".join(map(str, pattern))])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"


def test_compare_even_ring_exits_2(runner):
    result = runner.invoke(main, ["compare", "--f", "6", "--n", "4", "--gamma1", "10",
                                  "--eps", "0.3", "--pattern", "2,2"])
    assert result.exit_code == 2
    assert "odd site count" in result.stderr


# --------------------------------------------------------------------- oracle


def test_oracle_lists_full_sector(runner):
    result = invoke_ok(runner, ["oracle", "--f", "5", "--n", "3", "--gamma1", "5",
                                "--eps", "0.5", "--format", "json"])
    doc = json.loads(result.output)
    assert len(doc["rows"]) == 35
    energies = [row[3] for row in doc["rows"]]
    assert energies == sorted(energies)
    assert doc["rows"][0][0] is None and doc["rows"][0][1] is None


def test_oracle_keeps_eigh_ascending_order_bitwise(runner):
    flags = ["--f", "6", "--n", "4", "--gamma1", "3", "--gamma2", "1", "--eps", "0.7"]
    doc = json.loads(invoke_ok(runner, ["oracle", *flags, "--format", "json"]).output)
    params = qdnls.ModelParams(**{key: doc["config"][key] for key in MODEL_KEYS})
    energies = [row[3] for row in doc["rows"]]
    assert energies == np.sort(qdnls.eigh(qdnls.full_matrix(params)).eigenvalues).tolist()
    assert energies == sorted(energies)


def test_oracle_respects_dense_cap(runner):
    result = runner.invoke(main, ["oracle", "--f", "5", "--n", "3", "--gamma1", "5"],
                           env={"BREATHER_DENSE_CAP": "20"})
    assert result.exit_code == 3
    assert "dense cap" in result.stderr
    result = runner.invoke(main, ["oracle", "--f", "19", "--n", "4", "--gamma1", "10"])
    assert result.exit_code == 3


def test_oracle_matches_spectrum_multiset(runner):
    flags = ["--f", "5", "--n", "4", "--gamma1", "3", "--eps", "0.4", "--format", "json"]
    exact = json.loads(invoke_ok(runner, ["oracle", *flags]).output)
    blocks = json.loads(invoke_ok(runner, ["spectrum", *flags]).output)
    dense = [row[3] for row in exact["rows"]]
    folded = sorted(row[3] for row in blocks["rows"])
    assert max(abs(a - b) for a, b in zip(dense, folded)) < 1e-9


# ------------------------------------------------------- one solve per ±k pair


@pytest.fixture
def block_solves(monkeypatch):
    """Shapes of the matrices that the momentum-block path hands to `eigh`."""
    import qdnls.hamiltonian

    calls = []
    solve = qdnls.hamiltonian.eigh
    monkeypatch.setattr(qdnls.hamiltonian, "eigh",
                        lambda matrix, **kw: calls.append(matrix.shape) or solve(matrix, **kw))
    return calls


@pytest.mark.parametrize("args,solves", [
    (["band", *FIG_FLAGS, "--pattern", "2,2"], 4),             # l = 0..3 of -3..3
    (["spectrum", "--f", "8", "--n", "4", "--gamma1", "10", "--eps", "0.5"], 5),  # l = 0..4
    (["spectrum", *FIG_FLAGS, "--k", "-3"], 1),               # no partner requested
])
def test_commands_solve_each_opposite_momentum_pair_once(runner, block_solves, args, solves):
    invoke_ok(runner, args)
    assert len(block_solves) == solves


def test_momentum_spectra_still_solves_every_momentum_it_is_given(block_solves):
    from qdnls import ModelParams, momentum_spectra

    momentum_spectra(ModelParams(f=5, n=2, gamma1=1.0, epsilon=0.5))
    assert len(block_solves) == 5


@pytest.mark.parametrize("args,message", [
    (["band", "--config", str(CONFIGS / "band42_n6.json"), "--pattern", "4,2", "--threshold", "0"],
     "threshold must lie in (0, 1], got 0.0"),
    (["compare", "--config", str(CONFIGS / "band22_n4.json"), "--pattern", "2,2", "--eps", "0",
      "--scaling"], "--scaling needs a positive epsilon"),
], ids=["band-threshold-0", "compare-scaling-eps-0"])
def test_invalid_settings_exit_2_before_any_block_is_solved(runner, block_solves, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"
    assert block_solves == []


def test_in_process_runs_keep_no_redirected_output_alive():
    # click's cache of its default stdout maps each redirected stream to
    # itself; a caller that runs many commands in one process and captures
    # their output would keep every output alive
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["oracle", *FIG_FLAGS], standalone_mode=False)
    assert buf.getvalue().startswith("# params:")
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None
