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
from decimal import Decimal
from fractions import Fraction
from math import comb
from typing import Iterator

from . import nilpotent, obstructions
from .gradedlie import ModelStage
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
        for i, cells in enumerate(_differential_cells(doc.model), 1):
            lines.append(f"  d(v{i}) = [{' '.join(cells)}]")
    lines.append("verdicts:")
    if not doc.verdicts:
        lines.append("  (none)")
    for v in doc.verdicts:
        lines.append(f"  {v.code.value} [{v.theorem}]")
        if explain:
            lines.append(f"    {v.detail}")
    lines.append(f"overall: {doc.overall.value}")
    return "\n".join(lines) + "\n"


def _differential_cells(model: ModelStage) -> Iterator[list[str]]:
    """Each differential row as the strings of its dense entries.

    All zero entries share one "0" string, and only the nonzero entries
    are formatted.
    """
    width = comb(model.dim_v1, 2)
    for row in model.differential:
        cells = ["0"] * width
        for c, x in row:
            cells[c] = _exact(x)
        yield cells


def _exact(x: Fraction) -> str:
    """str(x), in full even past the interpreter's int-to-str digit limit."""
    try:
        return str(x)
    except ValueError:   # a numerator or denominator over 4300 digits
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _json_member(key: str, value: object, pad: str) -> str:
    """One ``"key": value`` member of an indent-2 document at depth ``pad``.

    ``json.dumps`` escapes newlines inside strings, so each newline in its
    output is layout and takes the member's indentation.
    """
    text = json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + pad)
    return f"{pad}{json.dumps(key)}: {text}"


def _differential_json(model: ModelStage) -> str:
    """The differential as an indent-2 JSON array at depth 2.

    Its entries are Fraction strings, which need no escaping.
    """
    rows = [
        '      [\n        "' + '",\n        "'.join(cells) + '"\n      ]'
        if cells else "      []"
        for cells in _differential_cells(model)
    ]
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n    ]"


def render_json(doc: ObstructionReport) -> str:
    """The schema-1 document, laid out as ``json.dumps(..., indent=2)`` does.

    The differential, which holds almost all of a large document, is
    written directly from its sparse rows; every other value goes
    through ``json.dumps``.
    """
    model = doc.model
    head = (
        ("schema", 1),
        ("presentation", doc.presentation),
        ("n", doc.n),
        ("s", doc.s),
        ("k", doc.k),
        ("q", doc.q),
        ("dim_ker_d0", doc.dim_kernel),
        ("dim_ker_d1", doc.dim_kernel_deg2),
        ("dim_W", doc.dim_relations),
        ("dim_gamma2_gamma3", doc.dim2),
        ("grl_free", doc.free_two_step),
        ("surface_genus", doc.surface_genus),
        ("m_max", doc.m_max),
        ("excluded_genera", list(doc.excluded_genera)),
    )
    verdicts = [
        {"code": v.code.value, "theorem": v.theorem, "detail": v.detail}
        for v in doc.verdicts
    ]
    members = [_json_member(key, value, "  ") for key, value in head]
    members.append(
        '  "minimal_model": {\n'
        + _json_member("dimV1", model.dim_v1, "    ") + ",\n"
        + _json_member("dimV2", model.dim_v2, "    ") + ",\n"
        + '    "differential": ' + _differential_json(model) + "\n  }"
    )
    members.append(_json_member("verdicts", verdicts, "  "))
    members.append(_json_member("overall", doc.overall.value, "  "))
    return "{\n" + ",\n".join(members) + "\n}\n"
