"""The names the benchmark's tracer wraps must stay in the package.

``perfbench/tracer.py`` replaces each ``TRACED`` function by a timing
wrapper and patches ``RationalMatrix.__matmul__`` on the class; a name
it cannot find makes every traced benchmark run raise.  A traced run
must print what an untraced one prints.
"""

import importlib
import io
import pathlib

from kahlercheck import cli, linalg
from kahlercheck.fixtures import surface_text


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"kahlercheck.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    assert callable(linalg.RationalMatrix.__matmul__)


def test_a_traced_analyze_matches_the_untraced_one(monkeypatch, tmp_path):
    # installing the tracer must leave what the pinned functions return alone
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    path = tmp_path / "surface_g2.txt"
    path.write_text(surface_text(2))
    argv = ["analyze", str(path), "--json", "--oracle"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        return cli.main(argv, out=out, err=err), out.getvalue(), err.getvalue()

    untraced = run()
    assert untraced[0] == 0
    traced = tracer.Tracer()
    try:
        traced.install()
        assert run() == untraced
    finally:
        traced.uninstall()
    names = {span.name for span in traced.take()}
    assert {"cli.main", "gradedlie.commutator_relations", "report.build_report",
            "nilpotent.commutator_quotient_dim"} <= names
