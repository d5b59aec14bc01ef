"""The public surface of the `qdnls` package."""

import re
import types
from pathlib import Path

import qdnls

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_the_public_names_that_star_import_binds():
    assert len(qdnls.__all__) == len(set(qdnls.__all__))
    assert not [name for name in qdnls.__all__
                if isinstance(getattr(qdnls, name), types.ModuleType)]
    namespace = {}
    exec("from qdnls import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qdnls.__all__)


def test_readme_library_entry_points_run():
    # the first Python block under the heading, run as written
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, f"{README}:Library entry points", "exec"), namespace)
    assert namespace["ground"].pattern == (4,)
    assert namespace["line"]
