from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kahlercheck import magnus
from kahlercheck.nilpotent import NilpotentElement, commutator_quotient_dim, evaluate
from kahlercheck.presentation import Word

import cases
from oracles import (
    element_inverse,
    element_mul,
    element_power,
    generator,
    identity,
    wedge_dict,
)
from strategies import presentations, words_with_rank


def elements(n):
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    return st.builds(
        lambda a, w: NilpotentElement(n, tuple(a), tuple(w)),
        st.tuples(*([coeff] * n)),
        st.tuples(*([coeff] * comb(n, 2))),
    )


# --- group law ------------------------------------------------------------------

def test_commutator_evaluates_to_wedge():
    # explicit four-step product of the generator images
    a, b = generator(0, 2), generator(1, 2)
    step = element_mul(element_mul(element_mul(a, b), element_inverse(a)),
                       element_inverse(b))
    assert step.abelian == (0, 0)
    assert step.commutator == (Fraction(1),)
    word = Word(((0, 1), (1, 1), (0, -1), (1, -1)))
    assert evaluate(word, 2) == step


def test_power_is_scalar_multiple():
    assert evaluate(Word(((0, 7),)), 3).abelian == (7, 0, 0)
    assert evaluate(Word(((0, 7),)), 3).commutator == (0, 0, 0)


def test_empty_word_is_identity():
    assert evaluate(Word(), 4) == identity(4)


def test_inverse_law():
    g = NilpotentElement(2, (Fraction(2), Fraction(-1)), (Fraction(3),))
    assert element_mul(g, element_inverse(g)) == identity(2)
    assert element_mul(element_inverse(g), g) == identity(2)


@given(st.integers(-5, 5))
def test_power_matches_repeated_product(m):
    g = NilpotentElement(2, (Fraction(1), Fraction(2)), (Fraction(1, 2),))
    acc = identity(2)
    step = g if m >= 0 else element_inverse(g)
    for _ in range(abs(m)):
        acc = element_mul(acc, step)
    assert element_power(g, m) == acc


@given(st.data())
def test_associativity(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(elements(n))
    b = data.draw(elements(n))
    c = data.draw(elements(n))
    assert element_mul(element_mul(a, b), c) == element_mul(a, element_mul(b, c))


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        element_mul(generator(0, 2), generator(0, 3))
    with pytest.raises(ValueError):
        evaluate(Word(((3, 1),)), 2)


@given(words_with_rank())
def test_evaluate_matches_literal_product(data):
    n, word = data
    acc = identity(n)
    for g, m in word.letters:
        acc = element_mul(acc, element_power(generator(g, n), m))
    value = evaluate(word, n)
    assert value == acc
    assert all(type(x) is Fraction for x in value.abelian + value.commutator)


# --- cross-evaluator identity -------------------------------------------------------

@given(words_with_rank())
def test_series_and_group_evaluations_agree(data):
    # antisymmetrized quadratic part is exactly twice the commutator part
    n, word = data
    exp = magnus.expand(word, n)
    val = evaluate(word, n)
    assert exp.linear == val.abelian
    assert exp.wedge == wedge_dict([2 * w for w in val.commutator], n)


# --- the joint-span dimension ---------------------------------------------------------

def test_dim_free_groups():
    for n in range(1, 6):
        assert commutator_quotient_dim(cases.free_group(n)) == comb(n, 2)


def test_dim_chain_link():
    assert commutator_quotient_dim(cases.chain_link_group(4)) == 2


def test_dim_chain_plus_power():
    assert commutator_quotient_dim(cases.CHAIN_PLUS_POWER) == 2


def test_dim_matches_pipeline_on_corpus():
    from kahlercheck.fixtures import CORPUS
    from kahlercheck.presentation import parse_presentation
    from kahlercheck.report import build_report

    for name, text in CORPUS:
        pres = parse_presentation(text)
        assert commutator_quotient_dim(pres) == build_report(pres).dim2, name


@given(presentations(max_gens=4, max_rels=4))
def test_dim_matches_pipeline_on_random(pres):
    from kahlercheck.report import build_report

    assert commutator_quotient_dim(pres) == build_report(pres).dim2
