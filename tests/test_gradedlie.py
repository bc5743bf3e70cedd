from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kahlercheck import gradedlie, magnus, nilpotent
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
from kahlercheck.linalg import quotient_basis, rank
from kahlercheck.presentation import Presentation, Word, parse_presentation

import cases
from oracles import (
    coordinates,
    dense_commutator_matrix,
    densify,
    exponent_matrix,
    fraction_rows,
    gauss_jordan_rref,
    jointspan_dim2,
    left_kernel,
)
from strategies import identity_matrix, presentations


Q_ONE = "gens: x y z\nrels: x y | y z | (x,y)\n"   # q = 1, s = 3 > k = 2
K_IS_S = "gens: a b c d\nrels: a b\n"               # q = 3, k = s = 1


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
    assert rank(exponent_matrix(ab)) == 1
    assert ab.reduced.pivots == (0,)
    # row space is spanned by (2, -2, 0, 2, 0)
    assert coordinates(ab.reduced.quotient_rows(), (2, -2, 0, 2, 0)) == (0, 0, 0, 0)


@given(presentations())
@example(cases.free_abelian_group(4))   # M = 0: every combination is a kernel row
@example(cases.CHAIN_PLUS_POWER)
@example(cases.THREE_RELATOR_RANK2)     # empty kernel
@example(cases.TRIVIAL)
@example(parse_presentation("gens: x0 x1 x2\nrels: x0 x1^2 | x1 x2^2 | x0 x2^-4\n"))
def test_degree1_kernel_rows(pres):
    ab = abelianization_data(pres)
    assert ab.n == pres.n and ab.s == pres.s
    assert ab.dim_kernel == ab.s - ab.rank == len(left_kernel(ab))
    matrix = exponent_matrix(ab)
    assert ab.rank == rank(matrix)
    assert ab.reduced == quotient_basis(matrix, ab.n)


@given(presentations())
@example(cases.CHAIN_PLUS_POWER)
def test_pipeline_leaves_the_expansions_as_they_were(pres):
    # the eliminations keep the caller's rows, among them each series'
    # linear dict, as pivot rows: the pipeline must not write to them
    ab, _, _ = pipeline(pres)
    assert ab.series == tuple(magnus.expand(rel, pres.n) for rel in pres.relators)


# --- degree 2 ---------------------------------------------------------------

def test_wedge_first_indexes_the_pairs_in_lexicographic_order():
    for q in range(7):
        pairs = list(combinations(range(q), 2))
        for wedge_first in (gradedlie._wedge_first, nilpotent._wedge_first):
            first = wedge_first(q)
            assert [first[i] + j for i, j in pairs] == list(range(comb(q, 2)))


def test_degree2_surface_group():
    ab, rel, _ = pipeline(cases.surface_group(2))
    assert ab.dim_kernel == 1
    assert rel.dim_relations == 1 and rel.dim2 == 5
    # the relation is a1^b1 + a2^b2 in the wedge basis
    assert densify(rel.relations, 6).entries == ((1, 0, 0, 0, 0, 1),)
    assert rel.relations == (((0, 1), (5, 1)),)


def test_degree2_deep_commutator_vanishes():
    ab, rel, _ = pipeline(cases.BRACKET_DEPTH3)
    assert ab.dim_kernel == 1
    assert rel.dim_relations == 0 and rel.dim_kernel == 1
    assert rel.relations == ()   # every image is zero
    dense = dense_commutator_matrix(cases.BRACKET_DEPTH3)
    assert all(x == 0 for row in dense.entries for x in row)


def test_degree2_chain_link():
    _, rel, _ = pipeline(cases.chain_link_group(4))
    assert rel.dim_relations == 4 and rel.dim2 == 2


# --- the graded algebra -------------------------------------------------------

def test_algebra_of_free_group():
    for n in (1, 2, 3, 4):
        _, _, grl = pipeline(cases.free_group(n))
        assert grl.dim1 == n and grl.dim2 == comb(n, 2)
        bracket = densify(grl.reduced.quotient_rows(), comb(n, 2)).transpose()
        assert bracket.entries == identity_matrix(comb(n, 2)).entries


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
        bracket_t = densify(grl.reduced.quotient_rows(), comb(grl.dim1, 2))
        assert rank(bracket_t) == grl.dim2
        if rel.relations:
            image = bracket_t @ densify(rel.relations, comb(grl.dim1, 2)).transpose()
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
    assert stage.dim1 == 3 and stage.dim2 == 3
    assert densify(stage.reduced.quotient_rows(), 3).entries == identity_matrix(3).entries


def test_model_stage_surface():
    _, _, grl = pipeline(cases.surface_group(2))
    stage = minimal_model_stage(grl)
    assert stage.dim1 == 4 and stage.dim2 == 5


def test_model_stage_trivial_group():
    _, _, grl = pipeline(cases.TRIVIAL)
    stage = minimal_model_stage(grl)
    assert stage.dim1 == 0 and stage.dim2 == 0


def test_model_differential_annihilates_relations():
    for pres in (cases.surface_group(3), cases.chain_link_group(4),
                 cases.CHAIN_PLUS_POWER):
        _, rel, grl = pipeline(pres)
        assert minimal_model_stage(grl) is grl
        width = comb(grl.dim1, 2)
        differential = densify(grl.reduced.quotient_rows(), width)
        pairing = differential @ densify(rel.relations, width).transpose()
        assert all(x == 0 for row in pairing.entries for x in row)
        assert rank(differential) == grl.dim2


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


@given(presentations())
@example(cases.CHAIN_PLUS_POWER)   # quotient coordinates that are not a projection
@example(cases.chain_link_group(4))
@example(cases.surface_group(2))
@example(cases.BRACKET_DEPTH3)
@example(parse_presentation(Q_ONE))    # q = 1 and s > k: no wedge column
@example(parse_presentation(K_IS_S))   # q >= 2 and k = s: no combination
def test_commutator_matrix_matches_dense_reference(pres):
    # the sparse images span the row space of B^T, B = C (Q - Q^T) C^T dense
    rel = commutator_relations(abelianization_data(pres))
    dense = dense_commutator_matrix(pres)
    expected, pivots = gauss_jordan_rref(dense.transpose())
    assert rel.combinations == dense.cols and comb(rel.dim1, 2) == dense.rows
    assert rel.reduced.pivots == pivots
    assert (densify(fraction_rows(rel.reduced), dense.rows).entries
            == expected.entries[:len(pivots)])


@given(presentations())
@example(cases.surface_group(2))
@example(cases.chain_link_group(4))
@example(cases.free_abelian_group(3))   # W is the whole wedge square
@example(cases.free_group(1))           # empty wedge square
@example(parse_presentation(Q_ONE))
@example(parse_presentation(K_IS_S))
def test_degree2_quotient_matches_second_elimination(pres):
    _, rel, grl = pipeline(pres)
    width = comb(grl.dim1, 2)
    assert grl is rel   # the relation space's record is the algebra
    assert grl.reduced == quotient_basis(densify(grl.relations, width), width)


@pytest.mark.parametrize("pres, calls, q, combinations", [
    (parse_presentation(Q_ONE), 1, 1, 1),
    (parse_presentation(K_IS_S), 1, 3, 0),
    (cases.surface_group(2), 2, 4, 1),
])
def test_degree2_is_skipped_when_w_is_forced_to_zero(monkeypatch, pres, calls, q,
                                                     combinations):
    # W = 0 when the wedge square has no column or no combination cancels:
    # only degree 1 is eliminated
    counted, rref_rows = [], gradedlie.rref_rows

    def counting(rows, cols):
        counted.append(cols)
        return rref_rows(rows, cols)
    monkeypatch.setattr(gradedlie, "rref_rows", counting)
    _, rel, _ = pipeline(pres)
    assert len(counted) == calls
    assert (rel.dim1, rel.combinations) == (q, combinations)


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
        conjugated[idx] = g * conjugated[idx] * g.inverse()
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
