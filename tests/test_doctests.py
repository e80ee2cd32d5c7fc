import doctest
import importlib
import pkgutil

import quadclass


def test_module_doctests_pass():
    attempted = 0
    for info in pkgutil.iter_modules(quadclass.__path__):
        module = importlib.import_module(f"quadclass.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 10  # the examples are collected, not silently skipped
