"""The names the benchmark's tracer wraps must stay in the package.

``perfbench/tracer.py`` replaces each ``TRACED`` function by a timing
wrapper and patches ``RationalMatrix.__matmul__`` on the class; a name
it cannot find makes every traced benchmark run raise.
"""

import importlib
import pathlib

from kahlercheck import linalg


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"kahlercheck.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    assert callable(linalg.RationalMatrix.__matmul__)
