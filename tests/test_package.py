"""The public surface of the `qdnls` package."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import qdnls
import qdnls.errors

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
QBENCH = ROOT / "qbench"

# the five CLI commands on small sectors and one numeric PT block, in a fresh
# interpreter; prints the scipy and numpy.ma modules they left imported
IMPORT_PROBE = """
import contextlib, io, sys
import qdnls.cli
from qdnls import ModelParams, SectorOrbits, bw_second_order_block, momentum_grid, pattern_of

model = ["--f", "7", "--n", "4", "--gamma1", "10", "--eps", "0.25"]
for argv in (["spectrum", *model], ["band", *model, "--pattern", "2,2"],
             ["pt", *model, "--pattern", "2,2"], ["compare", *model, "--pattern", "2,2"],
             ["oracle", "--f", "5", "--n", "3", "--gamma1", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        qdnls.cli.main(argv, standalone_mode=False)
sector = SectorOrbits(7, 4)
classes = [o for o in sector.orbits if pattern_of(o.rep) == (2, 2)]
params = ModelParams(f=7, n=4, gamma1=10.0, gamma2=0.0, epsilon=0.25)
bw_second_order_block(params, momentum_grid(7)[1], classes)
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_all_lists_the_public_names_that_star_import_binds():
    assert len(qdnls.__all__) == len(set(qdnls.__all__))
    assert not [name for name in qdnls.__all__
                if isinstance(getattr(qdnls, name), types.ModuleType)]
    namespace = {}
    exec("from qdnls import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qdnls.__all__)


def test_all_exports_the_error_classes_and_what_the_readme_and_the_benchmark_use():
    # the README's Python blocks and inline code, and the benchmark's
    # `qdnls.<name>` lookups plus the closed forms it looks up by getattr
    readme = README.read_text(encoding="utf-8")
    code = re.findall(r"```python\n(.*?)```|`([^`\n]+)`", readme, re.DOTALL)
    used = set(re.findall(r"\w+", " ".join(block + span for block, span in code)))
    for path in QBENCH.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        used |= set(re.findall(r"\bqdnls\.(\w+)", text))
        used |= {name for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["CLOSED_FORMS"]
                 for name in ast.literal_eval(node.value).values()}
    errors = {name for name, value in vars(qdnls.errors).items() if isinstance(value, type)}
    assert sorted(set(qdnls.__all__) - errors - used) == []
    # and every package name they use is exported
    taken = {name for name in used if not name.startswith("_") and hasattr(qdnls, name)
             and not isinstance(getattr(qdnls, name), types.ModuleType)}
    assert sorted(taken - set(qdnls.__all__)) == []


def test_readme_library_entry_points_run():
    # the first Python block under the heading, run as written
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, f"{README}:Library entry points", "exec"), namespace)
    assert namespace["ground"].pattern == (4,)
    assert namespace["line"]


def test_cli_and_pt_reference_import_neither_scipy_nor_numpy_ma():
    # scipy costs about 27 MB of resident memory and numpy.ma about 2 MB
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
