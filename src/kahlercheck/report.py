"""Analysis reports: consistency re-checks, text and JSON output.

JSON schema (version 1), fixed key order, integers as JSON numbers and
matrix entries as exact rational strings from Fraction (``"3"``,
``"-1/2"``):

    schema, presentation, n, s, k, q, dim_ker_d0, dim_ker_d1, dim_W,
    dim_gamma2_gamma3, grl_free, surface_genus, m_max, excluded_genera,
    minimal_model {dimV1, dimV2, differential}, verdicts [{code,
    theorem, detail}], overall
"""

from __future__ import annotations

import json
from math import comb

from . import nilpotent, obstructions
from .obstructions import ObstructionReport
from .presentation import Presentation


class ReportInvariantError(RuntimeError):
    """A report failed its arithmetic self-checks before emission."""


def _verify(doc: ObstructionReport) -> None:
    checks = (
        ("q = n - k", doc.q == doc.n - doc.k),
        ("dim ker d0 = s - k", doc.dim_kernel == doc.s - doc.k),
        ("dim W = dim ker d0 - dim ker d1",
         doc.dim_relations == doc.dim_kernel - doc.dim_kernel_deg2),
        ("dim2 = C(q,2) - dim ker d0 + dim ker d1",
         doc.dim2 == comb(doc.q, 2) - doc.dim_kernel + doc.dim_kernel_deg2),
        ("model dims", doc.model.dim_v1 == doc.q and doc.model.dim_v2 == doc.dim2),
        ("ker d1 inside ker d0", 0 <= doc.dim_kernel_deg2 <= doc.dim_kernel),
    )
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise ReportInvariantError("consistency check failed: " + ", ".join(failed))


def build_report(pres: Presentation) -> ObstructionReport:
    """The full analysis of one presentation, arithmetic self-checks passed."""
    doc = obstructions.evaluate(pres)
    _verify(doc)
    return doc


def oracle_mismatch(pres: Presentation, doc: ObstructionReport) -> str | None:
    """Re-derive dim2 through the nilpotent evaluator; describe any mismatch."""
    independent = nilpotent.commutator_quotient_dim(pres)
    if independent != doc.dim2:
        return (
            f"oracle mismatch: joint-span route gives dim2 = {independent}, "
            f"pipeline gives {doc.dim2}"
        )
    return None


def render_text(doc: ObstructionReport, explain: bool = False) -> str:
    lines = []
    pres_lines = doc.presentation.rstrip("\n").split("\n")
    lines.append("presentation:")
    lines.extend("  " + p for p in pres_lines)
    lines.append("invariants:")
    lines.append(f"  n = {doc.n}  s = {doc.s}  k = {doc.k}")
    lines.append(f"  q (rational abelianization rank) = {doc.q}")
    lines.append(f"  dim ker d0 = {doc.dim_kernel}")
    lines.append(f"  dim ker d1 = {doc.dim_kernel_deg2}")
    lines.append(f"  dim W = {doc.dim_relations}")
    lines.append(f"  dim Gamma2/Gamma3 = {doc.dim2}")
    lines.append(f"  two-step algebra free: {'yes' if doc.free_two_step else 'no'}")
    genus = "none" if doc.surface_genus is None else str(doc.surface_genus)
    lines.append(f"  surface genus match: {genus}")
    lines.append(f"  albanese m_max = {doc.m_max}")
    excl = ", ".join(str(g) for g in doc.excluded_genera) or "none"
    lines.append(f"  excluded fibration genera: {excl}")
    lines.append("minimal model stage:")
    lines.append(f"  dim V1 = {doc.model.dim_v1}  dim V2 = {doc.model.dim_v2}")
    if explain:
        for i in range(doc.model.differential.rows):
            row = " ".join(str(x) for x in doc.model.differential.row(i))
            lines.append(f"  d(v{i + 1}) = [{row}]")
    lines.append("verdicts:")
    if not doc.verdicts:
        lines.append("  (none)")
    for v in doc.verdicts:
        lines.append(f"  {v.code.value} [{v.theorem}]")
        if explain:
            lines.append(f"    {v.detail}")
    lines.append(f"overall: {doc.overall.value}")
    return "\n".join(lines) + "\n"


def to_json_dict(doc: ObstructionReport) -> dict:
    return {
        "schema": 1,
        "presentation": doc.presentation,
        "n": doc.n,
        "s": doc.s,
        "k": doc.k,
        "q": doc.q,
        "dim_ker_d0": doc.dim_kernel,
        "dim_ker_d1": doc.dim_kernel_deg2,
        "dim_W": doc.dim_relations,
        "dim_gamma2_gamma3": doc.dim2,
        "grl_free": doc.free_two_step,
        "surface_genus": doc.surface_genus,
        "m_max": doc.m_max,
        "excluded_genera": list(doc.excluded_genera),
        "minimal_model": {
            "dimV1": doc.model.dim_v1,
            "dimV2": doc.model.dim_v2,
            "differential": [
                [str(x) for x in doc.model.differential.row(i)]
                for i in range(doc.model.differential.rows)
            ],
        },
        "verdicts": [
            {"code": v.code.value, "theorem": v.theorem, "detail": v.detail}
            for v in doc.verdicts
        ],
        "overall": doc.overall.value,
    }


def render_json(doc: ObstructionReport) -> str:
    return json.dumps(to_json_dict(doc), indent=2, ensure_ascii=False) + "\n"
