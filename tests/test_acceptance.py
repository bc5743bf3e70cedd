"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion; each test also prints a summary line.  Randomized
criteria use fixed seeds, so the case sets never vary between runs.
"""

import random
from math import comb

from kahlercheck import magnus, nilpotent
from kahlercheck.fixtures import CORPUS
from kahlercheck.obstructions import (
    CITE_COMBINED,
    CITE_FREE_ALGEBRA,
    CITE_LOW_RELATOR,
    CITE_NONFIBERED_BOUND,
    CITE_RELATION_COUNT,
    CITE_ALBANESE,
    VerdictCode,
    evaluate,
)
from kahlercheck.gradedlie import RelatorClass, classify_single_relator
from kahlercheck.presentation import Presentation, Word, parse_presentation

import cases
import randgen
from oracles import dense_vector, densify_element, jointspan_dim2, wedge_dict


def not_kahler_theorems(report):
    return {v.theorem for v in report.verdicts if v.code is VerdictCode.NOT_KAHLER}


def test_criterion_01_free_groups():
    for n in range(1, 7):
        report = evaluate(cases.free_group(n))
        assert report.q == n
        assert report.dim2 == comb(n, 2)
        assert report.free_two_step
        assert report.overall is VerdictCode.NOT_KAHLER
        assert CITE_FREE_ALGEBRA in not_kahler_theorems(report)
    print("criterion 1: PASS - free groups n=1..6")


def test_criterion_02_surface_groups():
    for g in range(1, 5):
        report = evaluate(cases.surface_group(g))
        assert report.q == 2 * g
        assert report.dim2 == 2 * g * g - g - 1
        assert report.overall is not VerdictCode.NOT_KAHLER
        assert all(v.code is not VerdictCode.NOT_KAHLER for v in report.verdicts)
        bound_fired = any(
            v.theorem == CITE_NONFIBERED_BOUND for v in report.verdicts
        )
        assert bound_fired == (g >= 2)
    assert evaluate(cases.surface_group(2)).dim2 == 5
    print("criterion 2: PASS - surface groups g=1..4, genus-2 value 5")


def test_criterion_03_deep_relator():
    pres = cases.BRACKET_DEPTH3
    assert classify_single_relator(pres) is RelatorClass.IN_GAMMA3
    report = evaluate(pres)
    # the algebra is the free two-step one on two generators
    assert report.q == 2 and report.dim_relations == 0
    assert report.dim2 == comb(2, 2)
    assert report.overall is VerdictCode.NOT_KAHLER
    assert CITE_FREE_ALGEBRA in not_kahler_theorems(report)
    print("criterion 3: PASS - depth-3 relator yields a free two-step algebra")


def test_criterion_04_independent_relator_sets():
    for pres in (cases.TWO_RELATOR_RANK2, cases.THREE_RELATOR_RANK2):
        report = evaluate(pres)
        assert report.q == 2 and report.dim_relations == 0
        assert report.overall is VerdictCode.NOT_KAHLER
    report = evaluate(cases.TWO_RELATOR_RANK2)
    assert CITE_ALBANESE in not_kahler_theorems(report)
    print("criterion 4: PASS - independent relator sets, albanese route fires")


def test_criterion_05_two_relator_wrong_dimension():
    report = evaluate(cases.TWO_RELATOR_Q4)
    assert report.s == 2 and report.q == 4 and report.dim2 == 4
    assert CITE_LOW_RELATOR in not_kahler_theorems(report)
    assert report.overall is VerdictCode.NOT_KAHLER
    print("criterion 5: PASS - two-relator group with dim2 = 4 != 5")


def test_criterion_06_chain_links():
    report = evaluate(cases.chain_link_group(4))
    assert report.q == 4 and report.dim2 == 2
    assert any(v.theorem == CITE_RELATION_COUNT for v in report.verdicts)
    assert report.all_genera_excluded
    assert report.overall is VerdictCode.NOT_KAHLER

    report6 = evaluate(cases.chain_link_group(6))
    assert report6.overall is VerdictCode.NOT_NONFIBERED_KAHLER
    assert not report6.all_genera_excluded
    assert 2 not in report6.excluded_genera
    print("criterion 6: PASS - 4-chain excluded, 6-chain left open")


def test_criterion_07_combined_exclusion():
    report = evaluate(cases.CHAIN_PLUS_POWER)
    assert report.k == 1 and report.q == 4 and report.dim2 == 2
    assert report.s == 5
    assert any(v.theorem == CITE_RELATION_COUNT for v in report.verdicts)
    assert report.overall is VerdictCode.NOT_KAHLER
    assert CITE_COMBINED in not_kahler_theorems(report)
    print("criterion 7: PASS - five-relator group excluded by the combined route")


def test_criterion_08_rank_identity_on_random_presentations():
    rng = random.Random(1_2025)
    for _ in range(500):
        pres = randgen.random_presentation(rng)
        report = evaluate(pres)
        independent_dim2 = jointspan_dim2(pres)
        assert independent_dim2 == (
            comb(report.q, 2) - report.dim_kernel + report.dim_kernel_deg2
        )
        assert report.dim2 == independent_dim2
    print("criterion 8: PASS - rank identity on 500 random presentations")


def test_criterion_09_oracle_equivalence():
    rng = random.Random(2_2025)
    for _ in range(1000):
        n = rng.randint(1, 5)
        word = randgen.random_word(rng, n)
        series = magnus.expand(word, n)
        value = densify_element(nilpotent.evaluate(word, n), n)
        assert dense_vector(series.linear, n) == value.abelian
        assert series.wedge == wedge_dict([2 * w for w in value.commutator], n)
    for name, text in CORPUS:
        pres = parse_presentation(text)
        assert nilpotent.commutator_quotient_dim(pres) == evaluate(pres).dim2, name
    for _ in range(200):
        pres = randgen.random_presentation(rng)
        assert nilpotent.commutator_quotient_dim(pres) == evaluate(pres).dim2
    print("criterion 9: PASS - cross-evaluator factor 2 on 1000 words, "
          "joint-span dimension on fixtures plus 200 random presentations")


def test_criterion_10_presentation_move_invariance():
    rng = random.Random(3_2025)
    for _ in range(200):
        pres = randgen.random_presentation(rng)
        base_report = evaluate(pres)
        base = (base_report.q, base_report.dim2, base_report.overall)
        variants = []
        if pres.s:
            idx = rng.randrange(pres.s)
            inverted = list(pres.relators)
            inverted[idx] = inverted[idx].inverse()
            variants.append(Presentation(pres.generators, tuple(inverted)))
            conjugator = randgen.random_word(rng, pres.n, max_len=4)
            conjugated = list(pres.relators)
            conjugated[idx] = conjugated[idx].conjugated_by(conjugator)
            variants.append(Presentation(pres.generators, tuple(conjugated)))
            variants.append(Presentation(pres.generators,
                                         pres.relators + (pres.relators[idx],)))
        perm = list(range(pres.n))
        rng.shuffle(perm)
        permuted = tuple(
            Word(tuple((perm[g], e) for g, e in rel.letters))
            for rel in pres.relators
        )
        variants.append(Presentation(pres.generators, permuted))
        shuffled = list(pres.relators)
        rng.shuffle(shuffled)
        variants.append(Presentation(pres.generators, tuple(shuffled)))
        for variant in variants:
            report = evaluate(variant)
            assert (report.q, report.dim2, report.overall) == base
    print("criterion 10: PASS - move invariance on 200 random presentations")


def test_criterion_11_known_kahler_controls():
    controls = [cases.TRIVIAL]
    controls += [cases.cyclic_group(n) for n in (1, 2, 3, 5, 8)]
    controls += [cases.free_abelian_group(2 * g) for g in (1, 2, 3)]
    controls += [cases.surface_group(g) for g in (1, 2, 3, 4)]
    for pres in controls:
        report = evaluate(pres)
        assert all(v.code is not VerdictCode.NOT_KAHLER for v in report.verdicts)
        assert report.overall is not VerdictCode.NOT_KAHLER
    print("criterion 11: PASS - no false positive on known Kahler groups")
