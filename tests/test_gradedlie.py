from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlercheck.gradedlie import (
    RelatorClass,
    abelianization_data,
    classify_single_relator,
    commutator_relations,
    graded_lie_algebra,
    is_free_two_step,
    minimal_model_stage,
    surface_genus,
)
from kahlercheck.linalg import RationalMatrix, rank
from kahlercheck.presentation import Presentation, Word, parse_presentation

import cases
from oracles import jointspan_dim2
from strategies import presentations


def pipeline(pres):
    ab = abelianization_data(pres)
    rel = commutator_relations(ab)
    return ab, rel, graded_lie_algebra(ab, rel)


# --- degree 1 ---------------------------------------------------------------

def test_degree1_free_group():
    ab = abelianization_data(cases.free_group(5))
    assert ab.rank == 0 and ab.q == 5 and ab.dim_kernel == 0


def test_degree1_independent_rows():
    ab = abelianization_data(cases.THREE_RELATOR_RANK2)
    assert ab.rank == 3 and ab.q == 2 and ab.dim_kernel == 0


def test_degree1_chain_plus_power():
    ab = abelianization_data(cases.CHAIN_PLUS_POWER)
    assert ab.rank == 1 and ab.q == 4 and ab.dim_kernel == 4
    assert rank(ab.exponent_matrix) == 1
    assert ab.quotient.pivots == (0,)
    # row space is spanned by (2, -2, 0, 2, 0)
    assert ab.quotient.coordinates((2, -2, 0, 2, 0)) == (0, 0, 0, 0)


# --- degree 2 ---------------------------------------------------------------

def test_degree2_surface_group():
    ab, rel, _ = pipeline(cases.surface_group(2))
    assert ab.dim_kernel == 1
    assert rel.dim_relations == 1 and rel.dim2 == 5
    # the relation is a1^b1 + a2^b2 in the wedge basis
    assert rel.relation_basis.entries == ((1, 0, 0, 0, 0, 1),)


def test_degree2_deep_commutator_vanishes():
    ab, rel, _ = pipeline(cases.BRACKET_DEPTH3)
    assert ab.dim_kernel == 1
    assert rel.dim_relations == 0 and rel.dim_kernel == 1
    assert all(x == 0 for row in rel.matrix.entries for x in row)


def test_degree2_chain_link():
    _, rel, _ = pipeline(cases.chain_link_group(4))
    assert rel.dim_relations == 4 and rel.dim2 == 2


# --- the graded algebra -------------------------------------------------------

def test_algebra_of_free_group():
    for n in (1, 2, 3, 4):
        _, _, grl = pipeline(cases.free_group(n))
        assert grl.dim1 == n and grl.dim2 == comb(n, 2)
        assert grl.bracket.entries == RationalMatrix.identity(comb(n, 2)).entries


def test_algebra_two_relator_q4():
    _, _, grl = pipeline(cases.TWO_RELATOR_Q4)
    assert grl.dim1 == 4 and grl.dim2 == 4


def test_algebra_small_rank_has_no_degree2():
    for text in ("gens: x\nrels:", "gens: x y\nrels: x y"):
        _, _, grl = pipeline(parse_presentation(text))
        assert grl.dim1 <= 1 and grl.dim2 == 0


def test_bracket_is_surjective_with_kernel_w():
    for pres in (cases.surface_group(2), cases.chain_link_group(4),
                 cases.TWO_RELATOR_Q4, cases.CHAIN_PLUS_POWER):
        _, rel, grl = pipeline(pres)
        bracket_t = grl.bracket.transpose()
        assert rank(bracket_t) == grl.dim2
        if rel.relation_basis.rows:
            image = bracket_t @ rel.relation_basis.transpose()
            assert all(x == 0 for row in image.entries for x in row)


def test_freeness_flag():
    for pres, expected in (
        (cases.TWO_RELATOR_RANK2, True),
        (cases.free_group(3), True),
        (cases.surface_group(2), False),
    ):
        _, rel, _ = pipeline(pres)
        assert is_free_two_step(rel) is expected


# --- one-relator classification -----------------------------------------------

def test_classify_power_relator():
    pres = parse_presentation("gens: x y\nrels: x^2")
    assert classify_single_relator(pres) is RelatorClass.NOT_IN_GAMMA2


def test_classify_surface_relator():
    assert classify_single_relator(cases.surface_group(2)) is \
        RelatorClass.IN_GAMMA2_NOT_GAMMA3


def test_classify_deep_relator():
    assert classify_single_relator(cases.BRACKET_DEPTH3) is RelatorClass.IN_GAMMA3


def test_classify_requires_single_relator():
    with pytest.raises(ValueError):
        classify_single_relator(cases.free_group(2))
    with pytest.raises(ValueError):
        classify_single_relator(cases.TWO_RELATOR_RANK2)


# --- surface recognition --------------------------------------------------------

def test_surface_match_genus_two():
    _, _, grl = pipeline(cases.surface_group(2))
    assert surface_genus(grl) == 2


def test_surface_match_genus_one():
    _, _, grl = pipeline(cases.surface_group(1))
    assert surface_genus(grl) == 1


def test_surface_match_rejects_two_relations():
    _, _, grl = pipeline(cases.TWO_RELATOR_Q4)
    assert surface_genus(grl) is None


def test_surface_match_rejects_free():
    _, _, grl = pipeline(cases.free_group(2))
    assert surface_genus(grl) is None


def test_surface_match_rejects_degenerate_form():
    # one relation of rank 2 in a rank-4 abelianization is not a surface
    pres = parse_presentation("gens: a b c d\nrels: (a,b)")
    _, _, grl = pipeline(pres)
    assert surface_genus(grl) is None


# --- dual model stage -------------------------------------------------------------

def test_model_stage_free_group():
    _, _, grl = pipeline(cases.free_group(3))
    stage = minimal_model_stage(grl)
    assert stage.dim_v1 == 3 and stage.dim_v2 == 3
    assert stage.differential.entries == RationalMatrix.identity(3).entries


def test_model_stage_surface():
    _, _, grl = pipeline(cases.surface_group(2))
    stage = minimal_model_stage(grl)
    assert stage.dim_v1 == 4 and stage.dim_v2 == 5


def test_model_stage_trivial_group():
    _, _, grl = pipeline(cases.TRIVIAL)
    stage = minimal_model_stage(grl)
    assert stage.dim_v1 == 0 and stage.dim_v2 == 0


def test_model_differential_annihilates_relations():
    for pres in (cases.surface_group(3), cases.chain_link_group(4),
                 cases.CHAIN_PLUS_POWER):
        _, rel, grl = pipeline(pres)
        stage = minimal_model_stage(grl)
        assert stage.differential.entries == grl.bracket.transpose().entries
        pairing = stage.differential @ rel.relation_basis.transpose()
        assert all(x == 0 for row in pairing.entries for x in row)
        assert rank(stage.differential) == stage.dim_v2


# --- closed forms and identities ---------------------------------------------------

def test_free_group_closed_form():
    for n in range(1, 7):
        _, rel, grl = pipeline(cases.free_group(n))
        assert (grl.dim1, grl.dim2) == (n, comb(n, 2))
        assert is_free_two_step(rel)


def test_surface_group_closed_form():
    for g in range(1, 5):
        _, _, grl = pipeline(cases.surface_group(g))
        assert (grl.dim1, grl.dim2) == (2 * g, 2 * g * g - g - 1)


@given(presentations())
def test_rank_identity(pres):
    ab, rel, grl = pipeline(pres)
    assert grl.dim2 == comb(ab.q, 2) - ab.dim_kernel + rel.dim_kernel
    assert 0 <= rel.dim_kernel <= ab.dim_kernel
    assert is_free_two_step(rel) == (grl.dim2 == comb(ab.q, 2))


@settings(max_examples=60)
@given(presentations(max_gens=4, max_rels=4))
def test_jointspan_equivalence(pres):
    _, rel, _ = pipeline(pres)
    assert rel.dim2 == jointspan_dim2(pres)


@settings(max_examples=60)
@given(presentations(max_gens=4, max_rels=4), st.data())
def test_presentation_move_invariance(pres, data):
    ab, rel, _ = pipeline(pres)
    base = (ab.q, rel.dim2)
    moved = []
    if pres.s:
        idx = data.draw(st.integers(0, pres.s - 1))
        inverted = list(pres.relators)
        inverted[idx] = inverted[idx].inverse()
        moved.append(Presentation(pres.generators, tuple(inverted)))
        g = Word(tuple(data.draw(st.lists(
            st.tuples(st.integers(0, pres.n - 1),
                      st.integers(-2, 2).filter(lambda e: e != 0)),
            max_size=4))))
        conjugated = list(pres.relators)
        conjugated[idx] = conjugated[idx].conjugated_by(g)
        moved.append(Presentation(pres.generators, tuple(conjugated)))
        moved.append(Presentation(pres.generators,
                                  pres.relators + (pres.relators[idx],)))
    perm = data.draw(st.permutations(range(pres.n)))
    permuted_rels = tuple(
        Word(tuple((perm[g], e) for g, e in r.letters)) for r in pres.relators
    )
    moved.append(Presentation(pres.generators, permuted_rels))
    for other in moved:
        ab2, rel2, _ = pipeline(other)
        assert (ab2.q, rel2.dim2) == base
