"""The public API: every exported name resolves, and the package exports
exactly what its eight library modules export."""

import importlib

import dilatekit as dk

MODULES = ("errors", "linalg", "convex", "moments", "measures", "boundary",
           "verify", "pipelines")


def test_public_names_resolve_and_match_the_modules():
    union = set()
    for name in MODULES:
        module = importlib.import_module(f"dilatekit.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
        union.update(module.__all__)
    assert [n for n in dk.__all__ if not hasattr(dk, n)] == []
    assert set(dk.__all__) == union
