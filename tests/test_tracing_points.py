"""Every patch point of the benchmark's span tracer names a live attribute.

The tracer (bench/tracing.py) replaces each attribute in its owner's
``__dict__``; a renamed function would otherwise surface only as a
KeyError in a traced benchmark run. The file is executed with runpy, which
writes no bytecode next to it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
PATCH_POINTS = runpy.run_path(str(TRACING))["PATCH_POINTS"]


@pytest.mark.parametrize("module_name, path, layer", PATCH_POINTS)
def test_patch_point_resolves(module_name, path, layer):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module_name}:{path} ({layer})"
