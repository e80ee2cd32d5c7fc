"""The benchmark's tracer wraps quadclass functions by name; a renamed or
deleted one breaks only traced benchmark runs, so its names are checked
here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_resolves():
    tracing = _tracing()
    assert "ClassGroupCache.get" in tracing.SPANNED["forms"]
    for layer, names in tracing.SPANNED.items():
        module = importlib.import_module(f"quadclass.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                assert hasattr(owner, part), f"quadclass.{layer}.{name}"
                owner = getattr(owner, part)
            assert callable(owner), f"quadclass.{layer}.{name}"
