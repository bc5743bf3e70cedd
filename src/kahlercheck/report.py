"""Analysis reports: consistency re-checks, text and JSON output.

JSON schema (version 1), fixed key order, integers as JSON numbers and
matrix entries as exact rational strings from Fraction (``"3"``,
``"-1/2"``):

    schema, presentation, n, s, k, q, dim_ker_d0, dim_ker_d1, dim_W,
    dim_gamma2_gamma3, grl_free, surface_genus, m_max, excluded_genera,
    minimal_model {dimV1, dimV2, differential}, verdicts [{code,
    theorem, detail}], overall

Each format has one chunk generator, ``text_chunks`` and ``json_chunks``:
the document's head, then one string per differential row, then its
tail, each made only when the previous one has been taken, so ``analyze``
writes a document while holding one row of it.  ``render_text`` and
``render_json`` join those chunks into one string.  They alone format the
report's presentation, so ``batch`` formats none.  The JSON document is
one ``json.dumps(..., indent=2, ensure_ascii=False)`` of the schema with
an empty differential, and the differential's rows are spliced in at that
one marker.  The differential rows, dense in the output, are cut from
one template of zeros made once per report: a unit row is one slice of
it, and any other row is its zero row with the row's nonzeros spliced
in, so a row costs its nonzeros and one copy.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import Iterator

from . import nilpotent, obstructions
from .gradedlie import GradedLie2
from .obstructions import ObstructionReport
from .presentation import Presentation, _digits, format_presentation


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
        ("model dims", doc.model.dim1 == doc.q and doc.model.dim2 == doc.dim2),
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


def oracle_mismatch(doc: ObstructionReport) -> str | None:
    """Re-derive dim2 through the nilpotent evaluator; describe any mismatch."""
    independent = nilpotent.commutator_quotient_dim(doc.presentation)
    if independent != doc.dim2:
        return (
            f"oracle mismatch: joint-span route gives dim2 = {independent}, "
            f"pipeline gives {doc.dim2}"
        )
    return None


def render_text(doc: ObstructionReport, explain: bool = False) -> str:
    return "".join(text_chunks(doc, explain))


def text_chunks(doc: ObstructionReport, explain: bool = False) -> Iterator[str]:
    """The text document: its head, each row ``d(v<i>)`` under explain, the verdicts."""
    genus = "none" if doc.surface_genus is None else str(doc.surface_genus)
    excl = ", ".join(str(g) for g in doc.excluded_genera) or "none"
    pieces = ["presentation:\n"]
    pieces.extend(f"  {p}\n" for p in format_presentation(doc.presentation).splitlines())
    pieces += [
        "invariants:\n",
        f"  n = {doc.n}  s = {doc.s}  k = {doc.k}\n",
        f"  q (rational abelianization rank) = {doc.q}\n",
        f"  dim ker d0 = {doc.dim_kernel}\n",
        f"  dim ker d1 = {doc.dim_kernel_deg2}\n",
        f"  dim W = {doc.dim_relations}\n",
        f"  dim Gamma2/Gamma3 = {doc.dim2}\n",
        f"  two-step algebra free: {'yes' if doc.free_two_step else 'no'}\n",
        f"  surface genus match: {genus}\n",
        f"  albanese m_max = {doc.m_max}\n",
        f"  excluded fibration genera: {excl}\n",
        "minimal model stage:\n",
        f"  dim V1 = {doc.model.dim1}  dim V2 = {doc.model.dim2}\n",
    ]
    yield "".join(pieces)
    if explain:
        for i, row in enumerate(_differential_rows(doc.model, " "), 1):
            yield f"  d(v{i}) = [{row}]\n"
    pieces = ["verdicts:\n"]
    if not doc.verdicts:
        pieces.append("  (none)\n")
    for v in doc.verdicts:
        pieces.append(f"  {v.code.value} [{v.theorem}]\n")
        if explain:
            pieces.append(f"    {v.detail}\n")
    pieces.append(f"overall: {doc.overall.value}\n")
    yield "".join(pieces)


def _differential_rows(model: GradedLie2, sep: str) -> Iterator[str]:
    """Each differential row, its dense entries joined by sep.

    Every row is cut from one template per report: the all-zero row
    "0<sep>...<sep>0" of C = C(q,2) entries, then "<sep>1" and C - 1 more
    zeros.  The entry in column c of a row starts at offset c * stride,
    stride = len(sep) + 1.  A unit row, 1 in column c and 0 elsewhere, is
    the one slice of a row's width that starts C - c entries in.  Any
    other row is the zero row, the template's first width characters,
    with its nonzeros spliced in between slices of it, so it costs its
    nonzeros and one join.
    """
    if not model.dim2:
        return
    cols, stride = comb(model.dim1, 2), len(sep) + 1
    width = cols * stride - len(sep)
    template = ("0" + sep) * cols + "1" + (sep + "0") * (cols - 1)
    for row in model.reduced.quotient_rows():
        if len(row) == 1:   # only its free column's 1 (``Rref.quotient_rows``)
            start = (cols - row[0][0]) * stride
            yield template[start:start + width]
            continue
        pieces, pos = [], 0
        for c, x in row:
            pieces.append(template[pos:c * stride])
            pieces.append(_exact(x))
            pos = c * stride + 1
        pieces.append(template[pos:width])
        yield "".join(pieces)


def _exact(x: Fraction) -> str:
    """str(x), in full even past the interpreter's int-to-str digit limit."""
    num = _digits(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_digits(x.denominator)}"


def render_json(doc: ObstructionReport) -> str:
    return "".join(json_chunks(doc))


def json_chunks(doc: ObstructionReport) -> Iterator[str]:
    """The schema-1 document: ``json.dumps(..., indent=2, ensure_ascii=False)``.

    The differential, which holds almost all of a large document, is
    dumped as ``[]`` and its rows, written directly from the sparse rows
    (their entries are Fraction strings, which need no escaping), are
    spliced in at that marker, one chunk per row.
    """
    model = doc.model
    document = {
        "schema": 1,
        "presentation": format_presentation(doc.presentation),
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
        "excluded_genera": doc.excluded_genera,
        "minimal_model": {
            "dimV1": model.dim1, "dimV2": model.dim2, "differential": [],
        },
        "verdicts": [
            {"code": v.code.value, "theorem": v.theorem, "detail": v.detail}
            for v in doc.verdicts
        ],
        "overall": doc.overall.value,
    }
    # The marker occurs once: "differential" is the only key of that name,
    # and every '"' inside a JSON string is escaped, so no value holds it.
    head, _, tail = json.dumps(document, indent=2, ensure_ascii=False).partition(
        '"differential": []')
    yield head + '"differential": ['
    joint = '\n      [\n        "'
    for row in _differential_rows(model, '",\n        "'):
        yield joint + row
        joint = '"\n      ],\n      [\n        "'
    yield ('"\n      ]\n    ]' if model.dim2 else "]") + tail + "\n"
