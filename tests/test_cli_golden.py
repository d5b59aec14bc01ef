"""The `qdnls` command surface pinned to recorded outputs.

`golden/cli.json` holds, for each invocation in CASES, the exit code, stdout
and stderr, plus every command's option names and defaults.  Labels, tags,
counts, columns and comment keys must match exactly; floats must agree within
1e-10 of max(1, |value|), since the last digits can change with the BLAS build.

The one exception is the `decay_factor` of a `compare --scaling` table: a
ratio of two residuals of about 1e-5, it moves some 1e5 times more than the
energies do.  It must equal the ratio of its own output's neighbouring
`max_residual` values within 1e-12, and the golden one within what the
residuals' 1e-10 of max(1, |value|) allows the ratio.

Regenerate after an intended output change with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qdnls
from qdnls.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
RTOL = 1e-10
RATIO_RTOL = 1e-12

F7N4 = ["--f", "7", "--n", "4", "--gamma1", "10", "--eps", "0.5"]
F7N6 = ["--f", "7", "--n", "6", "--gamma1", "30", "--eps", "0.5"]
F7N6_G2 = ["--f", "7", "--n", "6", "--gamma1", "10", "--gamma2", "20", "--eps", "0.5"]
JSON = ["--format", "json"]

CASES = [
    ["spectrum", *F7N4],
    ["spectrum", *F7N6, "--k", "2", *JSON],
    ["band", *F7N4, "--pattern", "2,2"],
    ["band", *F7N4, "--pattern", "2,2", *JSON],
    ["band", *F7N6, "--pattern", "4,2"],
    ["band", *F7N6_G2, "--pattern", "3,3", *JSON],
    ["pt", *F7N4, "--pattern", "2,2"],
    ["pt", *F7N6, "--pattern", "4,2", *JSON],
    ["pt", *F7N6_G2, "--pattern", "3,3"],
    ["compare", *F7N4, "--pattern", "2,2", "--scaling"],
    ["compare", *F7N4, "--pattern", "2,2", "--scaling", *JSON],
    ["compare", *F7N6, "--pattern", "4,2", *JSON],
    ["oracle", *F7N4],
    ["spectrum", "--f", "1", "--n", "2", "--gamma1", "1"],
    ["band", *F7N4, "--pattern", "5,1"],
    ["compare", "--f", "6", "--n", "4", "--gamma1", "10", "--eps", "0.3", "--pattern", "2,2"],
    ["pt", "--f", "11", "--n", "6", "--gamma1", "3", "--gamma2", "1", "--pattern", "4,2"],
]


def invoke(args):
    result = CliRunner().invoke(main, args)
    return {"exit_code": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}


def option_surface():
    """Each command's options: flags -> [default, required, type, choices]."""
    surface = {}
    for name, command in sorted(main.commands.items()):
        infos = (p.to_info_dict() for p in command.params)
        surface[name] = {"/".join(i["opts"]): [i["default"], i["required"], i["type"]["name"],
                                               list(i["type"].get("choices", ()))]
                         for i in infos}
    return surface


def parsed(text):
    """A JSON document as is; a CSV as its comments, columns and rows, with
    every cell that reads as a number turned into a float."""
    if text.startswith("{"):
        return json.loads(text)
    lines = text.splitlines()
    comments = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(": ")
        comments[key] = json.loads(value)

    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value

    return {"comments": comments, "columns": lines[0].split(","),
            "rows": [[cell(v) for v in line.split(",")] for line in lines[1:]]}


def decay_factors(doc):
    """Pop each `decay_factor` of a --scaling table, with the previous and the
    current `max_residual` it divides."""
    table = doc.get("scaling") or doc.get("comments", {}).get("scaling", [])
    return [(row.pop("decay_factor"), prev["max_residual"], row["max_residual"])
            for prev, row in zip(table, table[1:])]


def assert_decay_factors_match(got_doc, want_doc):
    """Check and remove the decay factors: each equals its own residuals'
    ratio within RATIO_RTOL, and the golden one within the tolerance that RTOL
    on the golden residuals gives their ratio."""
    got, want = decay_factors(got_doc), decay_factors(want_doc)
    assert len(got) == len(want)
    for (factor, prev, cur), (golden, g_prev, g_cur) in zip(got, want):
        if None in (factor, golden):
            assert factor is None and golden is None
            continue
        ratio = prev / cur
        assert abs(factor - ratio) <= RATIO_RTOL * abs(ratio), (factor, prev, cur)
        dp, dc = RTOL * max(1.0, abs(g_prev)), RTOL * max(1.0, abs(g_cur))
        spread = (abs(g_prev) + dp) / (abs(g_cur) - dc) - abs(g_prev / g_cur)
        assert abs(factor - golden) <= spread, (factor, golden, spread)


def assert_matches(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= RTOL * max(1.0, abs(want)), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def assert_same_output(got_stdout, want_stdout):
    got, want = parsed(got_stdout), parsed(want_stdout)
    assert_decay_factors_match(got, want)
    assert_matches(got, want)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("args", CASES, ids=" ".join)
def test_output_matches_golden(golden, args):
    want = golden["outputs"][" ".join(args)]
    got = invoke(args)
    assert got["exit_code"] == want["exit_code"], got["stderr"]
    if want["exit_code"]:
        assert got["stderr"] == want["stderr"]
        assert got["stdout"] == ""
    else:
        assert_same_output(got["stdout"], want["stdout"])


SCALING_CASES = [args for args in CASES if "--scaling" in args]


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the Prescott kernels are x86-64 kernels")
def test_scaling_tables_match_golden_with_other_blas_kernels(golden):
    # Prescott runs on any x86-64 and moves the residuals' last bits
    child = ("import json, sys; from click.testing import CliRunner; from qdnls.cli import main; "
             "print(json.dumps([CliRunner().invoke(main, a).stdout for a in json.loads(sys.argv[1])]))")
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join([str(Path(qdnls.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", child, json.dumps(SCALING_CASES)],
                         env=env, capture_output=True, text=True, check=True)
    outputs = json.loads(run.stdout)
    assert len(outputs) == len(SCALING_CASES) == 2
    for args, stdout in zip(SCALING_CASES, outputs):
        assert_same_output(stdout, golden["outputs"][" ".join(args)]["stdout"])


def test_option_names_and_defaults_match_golden(golden):
    assert option_surface() == golden["options"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    record = {"options": option_surface(),
              "outputs": {" ".join(args): invoke(args) for args in CASES}}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
