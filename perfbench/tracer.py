"""Spans around the public functions of each kahlercheck module, from outside.

``Tracer.install`` replaces each traced function by a timing wrapper under
every name it is bound to in the package, since ``gradedlie`` and
``nilpotent`` import ``rref``, ``nullspace``, ``rank`` and
``quotient_basis`` by name.  ``RationalMatrix.__matmul__`` is wrapped on
the class.  ``uninstall`` puts the originals back.

The traced functions are the layer boundaries: the entry points of each
module and the functions other modules call.  Per-letter helpers such as
``magnus.truncated_mul`` and the ``NilpotentElement`` products are not
wrapped; a span per letter would cost more than the letter, and their
time shows as self time of ``magnus.expand`` and ``nilpotent.evaluate``.

Each thread keeps its own span stack, because ``batch`` analyzes files on
a thread pool.  A span opened on a worker thread with an empty stack takes
as parent the innermost open span of the thread that installed the tracer
(the ``cli.cmd_batch`` span).  Spans stay in memory until ``take``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns

TRACED = {
    "cli": ("main", "cmd_analyze", "cmd_batch"),
    "presentation": ("parse_presentation", "format_presentation"),
    "magnus": ("expand",),
    "gradedlie": ("abelianization_data", "commutator_relations", "graded_lie_algebra",
                  "surface_genus", "classify_single_relator", "minimal_model_stage",
                  "is_free_two_step"),
    "linalg": ("rref", "rank", "nullspace", "quotient_basis", "alternating_rank",
               "row_space_contains"),
    "obstructions": ("evaluate", "evaluate_computed"),
    "report": ("build_report", "oracle_mismatch", "render_text", "render_json"),
    "nilpotent": ("evaluate", "commutator_quotient_dim"),
}


def _parse_attrs(args, result) -> dict:
    return {"relators": result.s,
            "letters": sum(len(rel.letters) for rel in result.relators)}


def _rref_attrs(args, result) -> dict:
    return {"cells": args[0].rows * args[0].cols}


def _render_attrs(args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


ATTRS = {
    "presentation.parse_presentation": _parse_attrs,
    "linalg.rref": _rref_attrs,
    "report.render_text": _render_attrs,
    "report.render_json": _render_attrs,
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: int          # perf_counter_ns
    end: int
    worker: bool        # opened on a thread other than the installing one
    error: str | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = tracer._stacks.setdefault(ident, [])
            worker = ident != tracer._main
            if stack:
                parent = stack[-1]
            else:
                main_stack = tracer._stacks.get(tracer._main) if worker else None
                parent = main_stack[-1] if main_stack else None
            span = Span(next(tracer._ids), parent, name, 0, 0, worker)
            stack.append(span.id)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter_ns()
                span.error = type(exc).__name__
                raise
            else:
                span.end = perf_counter_ns()
                if attrs_of is not None:
                    span.attrs = attrs_of(args, result)
                return result
            finally:
                stack.pop()
                tracer.spans.append(span)
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "kahlercheck" or key.startswith("kahlercheck."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"kahlercheck.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapped)
        matrix = sys.modules["kahlercheck.linalg"].RationalMatrix
        original = matrix.__matmul__
        self._restore.append((matrix, "__matmul__", original))
        matrix.__matmul__ = self._wrap("linalg.matmul", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover.

    Children on worker threads may overlap each other, so their covered
    time is the length of the union of their intervals.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = {}
    for s in spans:
        covered, reach = 0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        result[s.id] = s.end - s.start - covered
    return result
