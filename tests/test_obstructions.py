import copy
import json
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kahlercheck import obstructions
from kahlercheck.gradedlie import RelatorClass
from kahlercheck.obstructions import (
    CITE_ALBANESE,
    CITE_COMBINED,
    CITE_EVEN_RANK,
    CITE_FREE_ALGEBRA,
    CITE_LOW_RELATOR,
    CITE_NONFIBERED_BOUND,
    CITE_ONE_RELATOR,
    CITE_RELATION_COUNT,
    Verdict,
    VerdictCode,
    albanese_bound,
    check_even_rank,
    check_free_algebra,
    check_low_relator_count,
    check_nonfibered_bound,
    check_relation_count,
    evaluate,
    fibered_genus_exclusion,
    overall_code,
)
from kahlercheck.fixtures import CORPUS
from kahlercheck.presentation import format_presentation, parse_presentation
from kahlercheck.report import ReportInvariantError, build_report, render_json, render_text

import cases
import randgen
from oracles import oracle_dict
from strategies import presentations


# --- individual checks -----------------------------------------------------------

def test_even_rank():
    verdict = check_even_rank(3)
    assert verdict is not None and verdict.code is VerdictCode.NOT_KAHLER
    assert verdict.theorem == CITE_EVEN_RANK
    assert check_even_rank(4) is None
    assert check_even_rank(0) is None


def test_free_algebra_check():
    verdict = check_free_algebra(3, True)
    assert verdict is not None and verdict.theorem == CITE_FREE_ALGEBRA
    assert check_free_algebra(0, True) is None
    assert check_free_algebra(4, False) is None


def test_low_relator_check():
    assert check_low_relator_count(1, 0, None, RelatorClass.NOT_IN_GAMMA2) is None
    assert check_low_relator_count(1, 4, 2, RelatorClass.IN_GAMMA2_NOT_GAMMA3) is None
    assert check_low_relator_count(3, 4, None, None) is None
    fired = check_low_relator_count(2, 4, None, None)
    assert fired is not None and fired.theorem == CITE_LOW_RELATOR
    # a one-relator group whose relator sits in the wrong layer
    fired = check_low_relator_count(1, 2, None, RelatorClass.IN_GAMMA3)
    assert fired is not None and fired.theorem == CITE_ONE_RELATOR
    # one relator in the right layer but with no surface match
    fired = check_low_relator_count(1, 4, None, RelatorClass.IN_GAMMA2_NOT_GAMMA3)
    assert fired is not None and fired.theorem == CITE_LOW_RELATOR


def test_albanese_bound_values():
    # 2*C(2,2)+1 = 3 > 0, so only a curve image is possible
    m_max, verdict = albanese_bound(0, 2, None)
    assert m_max == 1
    assert verdict is not None and verdict.theorem == CITE_ALBANESE
    m_max, verdict = albanese_bound(3, 4, None)
    assert m_max == 2 and verdict is None
    m_max, verdict = albanese_bound(1, 4, 2)
    assert m_max == 1 and verdict is None
    m_max, verdict = albanese_bound(0, 0, None)
    assert m_max == 1 and verdict is None


def test_albanese_bound_monotone():
    values = [albanese_bound(d, 0, None)[0] for d in range(40)]
    assert values == sorted(values)
    assert values[0] == 1 and values[3] == 2 and values[7] == 3


def test_nonfibered_bound():
    # the boundary: at q = 4 the bound is 1, and dim2 = 2 is the first to fire
    fired = check_nonfibered_bound(4, 2)
    assert fired is not None and fired.code is VerdictCode.NOT_NONFIBERED_KAHLER
    assert fired.theorem == CITE_NONFIBERED_BOUND == "Prop 5.7"
    assert check_nonfibered_bound(4, 5) is not None
    assert check_nonfibered_bound(4, 1) is None   # dim2 equals the bound, 1 at q = 4
    assert check_nonfibered_bound(4, 0) is None
    assert check_nonfibered_bound(3, 99) is None
    assert check_nonfibered_bound(0, 0) is None


def test_relation_count():
    fired = check_relation_count(5, 1, 5)
    assert fired is not None and fired.theorem == CITE_RELATION_COUNT
    assert "6" in fired.detail
    assert check_relation_count(4, 0, 4) is not None
    assert check_relation_count(5, 1, 6) is None   # s equals the bound, 6
    assert check_relation_count(2, 0, 1) is None  # bound is -1, vacuous


def test_fibered_genus_exclusion():
    excluded, all_excluded = fibered_genus_exclusion(4, 2)
    assert excluded == (2,) and all_excluded
    excluded, all_excluded = fibered_genus_exclusion(4, 5)
    assert excluded == () and not all_excluded
    excluded, all_excluded = fibered_genus_exclusion(6, 9)
    assert excluded == (3,) and not all_excluded
    excluded, all_excluded = fibered_genus_exclusion(2, 0)
    assert excluded == () and all_excluded


# --- aggregation ------------------------------------------------------------------

def _verdict(code):
    return Verdict(code, "tag", "detail")


def test_overall_priorities():
    nk = _verdict(VerdictCode.NOT_KAHLER)
    nnf = _verdict(VerdictCode.NOT_NONFIBERED_KAHLER)
    fe = _verdict(VerdictCode.FIBERED_EXCLUDED)
    assert overall_code((), False) is VerdictCode.INCONCLUSIVE
    assert overall_code((fe,), True) is VerdictCode.INCONCLUSIVE
    assert overall_code((nnf,), False) is VerdictCode.NOT_NONFIBERED_KAHLER
    assert overall_code((nnf, fe), True) is VerdictCode.NOT_KAHLER
    assert overall_code((nk,), False) is VerdictCode.NOT_KAHLER


@given(st.permutations([
    VerdictCode.NOT_KAHLER,
    VerdictCode.NOT_NONFIBERED_KAHLER,
    VerdictCode.FIBERED_EXCLUDED,
    VerdictCode.NOT_NONFIBERED_KAHLER,
]), st.booleans())
def test_overall_is_order_independent(codes, all_excluded):
    verdicts = tuple(_verdict(c) for c in codes)
    expected = overall_code(tuple(sorted(verdicts, key=lambda v: v.code.value)),
                            all_excluded)
    assert overall_code(verdicts, all_excluded) is expected


# --- whole-presentation evaluation ---------------------------------------------------

def test_evaluate_combined_route():
    report = evaluate(cases.CHAIN_PLUS_POWER)
    assert report.overall is VerdictCode.NOT_KAHLER
    assert any(v.theorem == CITE_COMBINED for v in report.verdicts)
    assert any(v.theorem == CITE_RELATION_COUNT for v in report.verdicts)
    assert report.all_genera_excluded


def test_evaluate_chain_link_six_left_open():
    report = evaluate(cases.chain_link_group(6))
    assert report.overall is VerdictCode.NOT_NONFIBERED_KAHLER
    assert not report.all_genera_excluded
    assert report.excluded_genera == (3,)


def test_evaluate_free_rank_one():
    report = evaluate(cases.free_group(1))
    assert report.overall is VerdictCode.NOT_KAHLER
    cited = {v.theorem for v in report.verdicts if v.code is VerdictCode.NOT_KAHLER}
    assert CITE_EVEN_RANK in cited and CITE_FREE_ALGEBRA in cited


def test_evaluate_cyclic_group():
    report = evaluate(cases.cyclic_group(5))
    assert report.q == 0
    assert report.overall is VerdictCode.INCONCLUSIVE


def test_report_fields_read_by_name():
    pres = cases.surface_group(2)
    doc = build_report(pres)
    # the report keeps the presentation it analyzed; the renderers format it
    assert doc.presentation is pres
    assert format_presentation(doc.presentation) == (
        "gens: a1 b1 a2 b2\nrels: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\n")
    assert {name: getattr(doc, name) for name in (
        "presentation", "n", "s", "k", "q", "dim_kernel", "dim_kernel_deg2",
        "dim_relations", "dim2", "free_two_step", "surface_genus", "m_max",
        "excluded_genera", "all_genera_excluded", "overall")} == {
        "presentation": pres,
        "n": 4, "s": 1, "k": 0, "q": 4, "dim_kernel": 1, "dim_kernel_deg2": 0,
        "dim_relations": 1, "dim2": 5, "free_two_step": False, "surface_genus": 2,
        "m_max": 1, "excluded_genera": (), "all_genera_excluded": False,
        "overall": VerdictCode.NOT_NONFIBERED_KAHLER,
    }
    assert [(v.code, v.theorem, v.detail) for v in doc.verdicts] == [
        (VerdictCode.NOT_NONFIBERED_KAHLER, CITE_NONFIBERED_BOUND,
         "dim2 = 5 > 1 = b(b-1)/2 - 2(b-3) - (b-1) with b = 4"),
        (VerdictCode.NOT_NONFIBERED_KAHLER, CITE_RELATION_COUNT,
         "s = 1 < k + 2(n-k-3) + (n-k-1) = 5 with n = 4, k = 0"),
    ]
    assert (doc.model.dim1, doc.model.dim2) == (4, 5)
    one = Fraction(1)
    assert list(doc.model.reduced.quotient_rows()) == [
        ((1, one),), ((2, one),), ((3, one),), ((4, one),), ((0, -one), (5, one))]
    assert copy.copy(doc) == doc and hash(doc) == hash(copy.deepcopy(doc))


@pytest.mark.parametrize("change, failed", [
    ({"n": 5}, "q = n - k"),
    ({"s": 2}, "dim ker d0 = s - k"),
    ({"dim_relations": 2}, "dim W = dim ker d0 - dim ker d1"),
    ({"dim2": 6}, "dim2 = C(q,2) - dim ker d0 + dim ker d1, model dims"),
    ({"model": evaluate(cases.chain_link_group(4)).model}, "model dims"),
    ({"dim_kernel_deg2": 2}, "dim W = dim ker d0 - dim ker d1, "
     "dim2 = C(q,2) - dim ker d0 + dim ker d1, ker d1 inside ker d0"),
])
def test_build_report_names_each_failed_self_check(monkeypatch, change, failed):
    # surface genus 2: n=4 s=1 k=0 q=4, dim ker d0 = 1, dim ker d1 = 0, dim W = 1, dim2 = 5
    pres = cases.surface_group(2)
    broken = evaluate(pres)._replace(**change)
    monkeypatch.setattr(obstructions, "evaluate", lambda _: broken)
    with pytest.raises(ReportInvariantError) as info:
        build_report(pres)
    assert str(info.value) == "consistency check failed: " + failed


def test_tuple_records_keep_the_tuple_protocol():
    # tuple(x), copy and pickle rely on these; a record must not redefine them
    for record in cases.tuple_records():
        assert issubclass(record, tuple)
        for method in ("__iter__", "__len__", "__getitem__"):
            assert getattr(record, method) is getattr(tuple, method), (record, method)


def test_evaluate_never_certifies_kahler():
    # the overall code is never an assertion that the group is Kahler
    for pres in (cases.TRIVIAL, cases.surface_group(2), cases.free_abelian_group(4)):
        report = evaluate(pres)
        assert report.overall in (
            VerdictCode.INCONCLUSIVE,
            VerdictCode.NOT_NONFIBERED_KAHLER,
        )


def test_relation_count_implies_dimension_bound():
    # when no combination survives to degree 2, the two nonfibered tests agree
    # (the dimension bound is only defined for even q >= 2)
    rng = random.Random(7)
    import randgen

    checked = 0
    while checked < 60:
        pres = randgen.random_presentation(rng)
        report = evaluate(pres)
        if report.q < 2 or report.q % 2 or report.dim_kernel_deg2 != 0:
            continue
        checked += 1
        count_fired = any(v.theorem == CITE_RELATION_COUNT for v in report.verdicts)
        bound_fired = any(v.theorem == CITE_NONFIBERED_BOUND for v in report.verdicts)
        if count_fired:
            assert bound_fired


def test_known_kahler_controls_fire_nothing_fatal():
    controls = [
        cases.TRIVIAL,
        cases.cyclic_group(2),
        cases.cyclic_group(7),
        cases.surface_group(1),
        cases.surface_group(2),
        cases.surface_group(3),
        cases.free_abelian_group(2),
        cases.free_abelian_group(4),
        parse_presentation(
            "gens: x1 x2 x3 x4 x5 x6\n"
            "rels: (x1,x2)|(x1,x3)|(x1,x4)|(x1,x5)|(x1,x6)|(x2,x3)|(x2,x4)"
            "|(x2,x5)|(x2,x6)|(x3,x4)|(x3,x5)|(x3,x6)|(x4,x5)|(x4,x6)|(x5,x6)"
        ),
    ]
    for pres in controls:
        report = evaluate(pres)
        assert report.overall is not VerdictCode.NOT_KAHLER
        assert all(v.code is not VerdictCode.NOT_KAHLER for v in report.verdicts)


# --- rendering ------------------------------------------------------------------

@given(presentations())
@example(cases.TRIVIAL)                  # q = 0
@example(cases.free_group(1))            # q = 1, empty wedge square
@example(cases.free_abelian_group(4))    # dimV2 = 0 with q = 4
@example(cases.cyclic_group(5))          # q = 0 with n = 1
@example(cases.free_group(2))            # one wedge column: a unit row with no zero
@example(cases.surface_group(3))
@example(parse_presentation("gens: a b c\nrels: (a,b) (b,c)^-1"))  # first and last columns
@example(parse_presentation("gens: a b c\nrels: (a,c)"))  # unit rows in the first and last
@example(parse_presentation("gens: a b c d\nrels: (a,b)^2 (c,d)^3"))  # -3/2 in column 0
# a generator named as the key of render_json's differential splice marker
@example(parse_presentation("gens: differential x y\nrels: (differential,x)"))
def test_render_matches_dense_oracle(pres):
    doc = build_report(pres)
    expected = oracle_dict(doc)
    assert render_json(doc) == json.dumps(expected, indent=2, ensure_ascii=False) + "\n"
    rows = expected["minimal_model"]["differential"]
    assert len(rows) == doc.model.dim2
    assert all(len(row) == comb(doc.q, 2) for row in rows)
    # --explain puts the dense rows right after the model dimensions
    lines = render_text(doc, explain=True).split("\n")
    start = lines.index(f"  dim V1 = {doc.q}  dim V2 = {doc.dim2}") + 1
    end = lines.index("verdicts:")
    assert lines[start:end] == [
        f"  d(v{i}) = [{' '.join(row)}]" for i, row in enumerate(rows, 1)
    ]
    # and adds nothing else but the verdict details
    rest = lines[:start] + lines[end:]
    assert [line for line in rest if not line.startswith("    ")] == \
        render_text(doc).split("\n")


def test_build_report_makes_no_fraction():
    # every step is integer: only a printed coordinate is a Fraction
    makers = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):   # Python 3.12 arithmetic
        makers.add(Fraction._from_coprime_ints.__func__.__code__)
    rng = random.Random(7)
    inputs = ([parse_presentation(text) for _, text in CORPUS]
              + [randgen.random_presentation(rng) for _ in range(300)])
    made = 0

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code in makers:
            made += 1
    sys.setprofile(count)
    try:
        for pres in inputs:
            build_report(pres)
    finally:
        sys.setprofile(None)
    assert made == 0
