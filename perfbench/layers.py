"""Per-layer metrics from the spans of traced operations.

Each traced sample of an operation is reduced to sums per span name
(duration, self time, calls and recorded attributes).  An operation's
samples are averaged and the averages summed over the workload's
operations, so every metric is per pass, whatever the number of passes.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import Span, self_times

MS = 1e-6  # per nanosecond


def summarize(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    v: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s.end - s.start
        v[f"{s.name}:dur"] += dur
        v[f"{s.name}:self"] += selfs[s.id]
        v[f"{s.name}:calls"] += 1
        for key, x in s.attrs.items():
            v[f"{s.name}:{key}"] += x
        if s.error is not None:
            v[f"{s.name}:{s.error}"] += 1
        parent = by_id.get(s.parent)
        if s.worker and (parent is None or not parent.worker):
            v["batch:busy"] += dur
    v["self_total"] = sum(selfs.values())
    return v


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _self(v, *names):
    return sum(v[f"{n}:self"] for n in names) * MS


# name, unit, value from the per-pass sums
METRICS = (
    ("presentation.parse_ms", "ms", lambda v: v["presentation.parse_presentation:dur"] * MS),
    ("presentation.letters", "count", lambda v: v["presentation.parse_presentation:letters"]),
    ("magnus.expand_ms", "ms", lambda v: v["magnus.expand:dur"] * MS),
    ("magnus.expand_calls", "count", lambda v: v["magnus.expand:calls"]),
    ("magnus.expands_per_relator", "ratio",
     lambda v: _ratio(v["magnus.expand:calls"], v["presentation.parse_presentation:relators"])),
    ("gradedlie.abelianization_self_ms", "ms", lambda v: _self(v, "gradedlie.abelianization_data")),
    ("gradedlie.commutator_relations_self_ms", "ms",
     lambda v: _self(v, "gradedlie.commutator_relations")),
    ("gradedlie.graded_lie_self_ms", "ms", lambda v: _self(v, "gradedlie.graded_lie_algebra")),
    ("gradedlie.surface_genus_self_ms", "ms", lambda v: _self(v, "gradedlie.surface_genus")),
    ("linalg.rref_ms", "ms", lambda v: v["linalg.rref:dur"] * MS),
    ("linalg.rref_calls", "count", lambda v: v["linalg.rref:calls"]),
    ("linalg.rref_cells", "count", lambda v: v["linalg.rref:cells"]),
    ("linalg.matmul_ms", "ms", lambda v: v["linalg.matmul:dur"] * MS),
    ("linalg.matmul_calls", "count", lambda v: v["linalg.matmul:calls"]),
    ("obstructions.evaluate_self_ms", "ms",
     lambda v: _self(v, "obstructions.evaluate", "obstructions.evaluate_computed")),
    ("report.build_report_self_ms", "ms", lambda v: _self(v, "report.build_report")),
    ("report.render_ms", "ms",
     lambda v: (v["report.render_json:dur"] + v["report.render_text:dur"]) * MS),
    ("report.output_bytes", "bytes",
     lambda v: v["report.render_json:bytes"] + v["report.render_text:bytes"]),
    ("report.oracle_self_ms", "ms", lambda v: _self(v, "report.oracle_mismatch")),
    ("nilpotent.evaluate_ms", "ms", lambda v: v["nilpotent.evaluate:dur"] * MS),
    ("nilpotent.evaluate_calls", "count", lambda v: v["nilpotent.evaluate:calls"]),
    ("nilpotent.quotient_dim_self_ms", "ms",
     lambda v: _self(v, "nilpotent.commutator_quotient_dim")),
    ("cli.self_ms", "ms", lambda v: _self(v, "cli.main", "cli.cmd_analyze", "cli.cmd_batch")),
    ("cli.files", "count", lambda v: v["presentation.parse_presentation:calls"]),
    ("cli.error_rows", "count", lambda v: v["presentation.parse_presentation:ParseError"]),
    ("cli.batch_busy_ms", "ms", lambda v: v["batch:busy"] * MS),
    ("cli.batch_wall_ms", "ms", lambda v: v["cli.cmd_batch:dur"] * MS),
)


class LayerMetrics:
    def __init__(self) -> None:
        self.samples: dict[str, list[dict[str, float]]] = defaultdict(list)
        self.first: dict[str, list[Span]] = {}

    def add(self, op: str, spans: list[Span]) -> None:
        self.samples[op].append(summarize(spans))
        self.first.setdefault(op, spans)

    def _mean(self, op: str) -> dict[str, float]:
        samples = self.samples[op]
        keys = {k for s in samples for k in s}
        return defaultdict(float, {k: sum(s.get(k, 0.0) for s in samples) / len(samples)
                                   for k in keys})

    def per_pass(self) -> dict[str, tuple[float, str]]:
        totals: dict[str, float] = defaultdict(float)
        for op in self.samples:
            for key, x in self._mean(op).items():
                totals[key] += x
        return {name: (fn(totals), unit) for name, unit, fn in METRICS}

    def dump(self, untraced: dict[str, list[float]], traced: dict[str, list[float]]) -> dict:
        """Per operation: untraced and traced median time, the sum of all
        span self times, the layer metrics, and the spans of one sample."""
        ops = {}
        for op, spans in self.first.items():
            mean = self._mean(op)
            selfs = self_times(spans)
            base = min((s.start for s in spans), default=0)
            ops[op] = {
                "untraced_ms": statistics.median(untraced[op]) * 1e3,
                "traced_ms": statistics.median(traced[op]) * 1e3,
                "self_sum_ms": mean["self_total"] * MS,
                "samples": len(self.samples[op]),
                "metrics": {name: fn(mean) for name, _, fn in METRICS},
                "spans": [
                    {"id": s.id, "parent": s.parent, "name": s.name,
                     "start_ms": (s.start - base) * MS,
                     "ms": (s.end - s.start) * MS, "self_ms": selfs[s.id] * MS,
                     "worker": s.worker, "error": s.error, "attrs": s.attrs}
                    for s in sorted(spans, key=lambda s: s.start)
                ],
            }
        return {"operations": ops}
