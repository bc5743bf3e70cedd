from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kahlercheck import magnus
from kahlercheck.nilpotent import commutator_quotient_dim, evaluate
from kahlercheck.presentation import Presentation, Word, parse_presentation

import cases
from oracles import (
    NilpotentElement,
    dense_vector,
    densify_element,
    element_inverse,
    element_mul,
    element_power,
    generator,
    identity,
    jointspan_dim2,
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
    assert evaluate(word, 2) == ({}, {0: 2})
    assert densify_element(evaluate(word, 2), 2) == step


def test_power_is_scalar_multiple():
    assert evaluate(Word(((0, 7),)), 3) == ({0: 7}, {})
    # conjugating a power adds a wedge: (1, 2) has index 2 for n = 3
    assert evaluate(Word(((1, 2), (2, 3), (1, -2))), 3) == ({2: 3}, {2: 12})


def test_empty_word_is_identity():
    assert evaluate(Word(), 4) == ({}, {})
    assert densify_element(evaluate(Word(), 4), 4) == identity(4)


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
    # a raw Word from outside the parser: its largest index is checked
    for letters in (((3, 1),), ((0, 1), (2, -1))):
        with pytest.raises(ValueError, match="outside the ambient rank"):
            evaluate(Word(letters), 2)


@given(words_with_rank())
def test_evaluate_matches_literal_product(data):
    n, word = data
    acc = identity(n)
    for g, m in word.letters:
        acc = element_mul(acc, element_power(generator(g, n), m))
    v, w2 = evaluate(word, n)
    # integer-only and sparse: int keys and values, no zero entries
    assert all(type(x) is int for entries in (v, w2) for item in entries.items()
               for x in item)
    assert all(v.values()) and all(w2.values())
    assert all(0 <= g < n for g in v) and all(0 <= p < comb(n, 2) for p in w2)
    assert densify_element((v, w2), n) == acc


# --- cross-evaluator identity -------------------------------------------------------

@given(words_with_rank())
def test_series_and_group_evaluations_agree(data):
    # antisymmetrized quadratic part is exactly twice the commutator part
    n, word = data
    exp = magnus.expand(word, n)
    val = densify_element(evaluate(word, n), n)
    assert dense_vector(exp.linear, n) == val.abelian
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


@given(presentations(max_gens=4, max_rels=4))
@example(cases.free_group(3))                                  # no relators
@example(Presentation(("x", "y"), (Word(), Word(((0, 1),)))))  # an empty relator
@example(parse_presentation("gens: x\nrels: x^2 | x^3"))       # kernel (3, -2)
@example(parse_presentation(
    "gens: x y z\nrels: x^2 (y,z)^2 | x^3 (y,z)^3"))           # (3, -2) cancels w
@example(parse_presentation(
    "gens: x y z\nrels: (x,y) | (y,z) | (x y, z)"))             # kernel dimension 3
@example(parse_presentation(
    "gens: x y z t\nrels: x y^2 | (x,y) z | (x,z) t^-1"))      # v and w both matter
@example(parse_presentation(
    "gens: x y z\nrels: x z | (x,y) (y,z)^-1"))                 # sign of v ^ e_y
@example(cases.cyclic_group(4))                                # n = 1
def test_dim_matches_dense_jointspan(pres):
    assert commutator_quotient_dim(pres) == jointspan_dim2(pres)
