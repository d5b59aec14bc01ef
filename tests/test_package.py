"""The public surface of the `qdnls` package."""

import types

import qdnls


def test_all_lists_the_public_names_that_star_import_binds():
    assert len(qdnls.__all__) == len(set(qdnls.__all__))
    assert not [name for name in qdnls.__all__
                if isinstance(getattr(qdnls, name), types.ModuleType)]
    namespace = {}
    exec("from qdnls import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(qdnls.__all__)
