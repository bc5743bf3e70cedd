import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kahlercheck.linalg import (
    RationalMatrix,
    _eliminate,
    _integer_row,
    alternating_rank,
    nullspace,
    quotient_basis,
    rank,
    row_space_contains,
    rref,
    rref_rows,
    rref_tail,
    wedge_pairs,
)

from oracles import coordinates, densify, fraction_rows, gauss_jordan_rref, wedge_dict
from strategies import identity_matrix, rational_matrices, zero_matrix


def mat(rows, cols=None):
    return RationalMatrix.from_rows(rows, cols)


# --- matrix basics -------------------------------------------------------------

def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([])


def test_transpose_and_matmul():
    a = mat([[1, 2], [3, 4], [5, 6]])
    assert a.transpose().entries == ((1, 3, 5), (2, 4, 6))
    b = mat([[1, 0], [0, 2]])
    assert (a @ b).entries == ((1, 4), (3, 8), (5, 12))
    with pytest.raises(ValueError):
        b @ a


def test_empty_shapes():
    zero_rows = RationalMatrix.from_rows([], cols=3)
    assert zero_rows.rows == 0 and zero_rows.cols == 3
    assert zero_rows.transpose().rows == 3 and zero_rows.transpose().cols == 0
    assert rank(zero_rows) == 0


# --- rref ------------------------------------------------------------------------

def test_rref_identity():
    red = rref(identity_matrix(3))
    assert red.rank == 3 and red.pivots == (0, 1, 2)


def test_rref_zero_matrix():
    red = rref(zero_matrix(2, 4))
    assert red.rank == 0 and red.pivots == ()


def test_rref_exponent_rows():
    # exponent-sum rows of x^3 y^-4 z^2 y and y^2 z^2 are independent
    red = rref(mat([[3, -3, 2, 0], [0, 2, 2, 0]]))
    assert red.rank == 2


def test_rref_output_is_reduced():
    m = mat([[2, 4, 1], [1, 2, 3], [3, 6, 4]])
    red = rref(m)
    assert red.pivots == (0, 2)
    for i, p in enumerate(red.pivots):
        column = densify(red.rows, m.cols).column(p)
        assert column[i] == 1
        assert all(x == 0 for j, x in enumerate(column) if j != i)


def test_rref_exact_fractions():
    red = rref(mat([[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 2)]]))
    assert red.rank == 2


@st.composite
def elimination_matrices(draw):
    """Matrices with zero rows and columns, dependent rows, wide and tall
    shapes, non-integer entries and entries far past machine words."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(1, 7))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.integers(-4, 4).map(Fraction),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        st.integers(-(10 ** 40), 10 ** 40).map(Fraction),
        st.builds(Fraction, st.integers(-(10 ** 30), 10 ** 30),
                  st.integers(1, 10 ** 25)),
    )
    entries = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):   # a row that depends on the others
        coeffs = [draw(st.integers(-3, 3)) for _ in range(rows)]
        entries.append([sum((k * row[j] for k, row in zip(coeffs, entries)),
                            Fraction(0)) for j in range(cols)])
    return RationalMatrix.from_rows(entries, cols)


def assert_is_gauss_jordan(red, m):
    """The sparse rows, divided by their pivot entries, are the nonzero
    rows of the Fraction elimination; each is a primitive integer row
    led by its positive pivot entry."""
    expected, pivots = gauss_jordan_rref(m)
    assert red.pivots == pivots and red.rank == len(pivots) and red.cols == m.cols
    assert densify(fraction_rows(red), m.cols).entries == expected.entries[:red.rank]
    assert not any(any(row) for row in expected.entries[red.rank:])
    for p, row in zip(red.pivots, red.rows):
        assert [c for c, _ in row] == sorted({c for c, _ in row})
        assert all(type(x) is int and x != 0 for _, x in row)
        assert row[0][0] == p and row[0][1] > 0
        assert gcd(*[x for _, x in row]) == 1


@given(elimination_matrices())
@example(RationalMatrix.from_rows([], cols=3))
@example(zero_matrix(3, 2))
@example(mat([[0, 0, 0], [0, 2, 4], [0, 1, 2], [3, 0, 1]]))
@example(mat([[Fraction(1, 3), Fraction(-2, 7), 5, 10 ** 50]]))
@example(mat([[1], [2], [Fraction(-1, 2)], [0]]))
@example(mat([[1, 2, 0, 0, 0], [0, 1, 2, 0, 0], [0, 0, 1, 2, 0], [0, 0, 0, 1, 2]]))
def test_rref_matches_fraction_gauss_jordan(m):
    assert_is_gauss_jordan(rref(m), m)


@given(elimination_matrices())
def test_eliminate_keys_rows_by_their_leftmost_column(m):
    # forward elimination leaves echelon rows, on the RREF's pivots
    rows = [{c: x for c, x in enumerate(row) if x} for row in m.entries]
    reduced = _eliminate(_integer_row(row) for row in rows)
    assert all(row and min(row) == p for p, row in reduced.items())
    assert tuple(sorted(reduced)) == rref_rows(rows, m.cols).pivots


@given(elimination_matrices(), st.randoms(use_true_random=False))
def test_rref_rows_ignores_row_order(m, rnd):
    # the RREF of a row space is unique, whatever order the rows come in
    rows = [{c: x for c, x in enumerate(row) if x} for row in m.entries]
    rnd.shuffle(rows)
    assert rref_rows(rows, m.cols) == rref(m)


@given(elimination_matrices(), st.data())
def test_rref_tail_is_the_rref_right_of_a_column(m, data):
    # the columns shifted left by `shift`, so the first ones are negative
    shift = data.draw(st.integers(0, m.cols))
    rows = [_integer_row({c - shift: x for c, x in enumerate(row)}) for row in m.entries]
    full = rref(m)
    kept = [i for i, p in enumerate(full.pivots) if p >= shift]
    tail = rref_tail(rows, 0, m.cols - shift)
    assert tail.pivots == tuple(full.pivots[i] - shift for i in kept)
    assert tail.rows == tuple(tuple((c - shift, x) for c, x in full.rows[i]) for i in kept)
    assert tail.cols == m.cols - shift


# --- nullspace -------------------------------------------------------------------

def test_nullspace_identity_is_empty():
    assert nullspace(identity_matrix(4)).cols == 0


def test_nullspace_zero_matrix_is_full():
    basis = nullspace(zero_matrix(2, 3))
    assert basis.cols == 3
    assert basis.entries == identity_matrix(3).entries


def test_nullspace_single_row():
    m = mat([[2, -2, 2]])
    basis = nullspace(m)
    assert basis.cols == 2
    for c in range(basis.cols):
        v = basis.column(c)
        assert sum(mi * vi for mi, vi in zip(m.entries[0], v)) == 0


@given(rational_matrices())
def test_nullspace_properties(m):
    basis = nullspace(m)
    assert basis.cols == m.cols - rank(m)
    product = m @ basis
    assert all(x == 0 for row in product.entries for x in row)


@given(rational_matrices())
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


# --- quotient bases ---------------------------------------------------------------

def test_quotient_no_relations():
    qb = quotient_basis(RationalMatrix.from_rows([], cols=4), 4)
    assert qb.dim == 4
    assert qb.coords.entries == identity_matrix(4).entries


def test_quotient_basis_is_an_immutable_value():
    qb = quotient_basis(mat([[1, 2, 0], [0, 0, 1]]), 3)
    assert list(qb) == [((0, Fraction(-2)), (1, Fraction(1)))]
    same = quotient_basis(mat([[2, 4, 3], [0, 0, 5]]), 3)   # the same row space
    assert qb == same and hash(qb) == hash(same)
    assert qb != quotient_basis(mat([[1, 0, 0]]), 3)
    assert qb != qb.reduced
    assert repr(qb) == f"QuotientBasis(reduced={qb.reduced!r})"
    assert repr(qb.reduced).startswith("Rref(rows=")
    with pytest.raises(AttributeError):
        qb.reduced = same.reduced
    with pytest.raises(AttributeError):
        del qb.reduced
    assert copy.copy(qb) == qb and pickle.loads(pickle.dumps(qb)) == qb


def test_quotient_full_relations():
    qb = quotient_basis(identity_matrix(3), 3)
    assert qb.dim == 0


def test_quotient_single_relation():
    qb = quotient_basis(mat([[2, -2, 0, 2, 0]]), 5)
    assert qb.dim == 4
    assert qb.reduced.pivots == (0,)
    assert coordinates(qb, (2, -2, 0, 2, 0)) == (0, 0, 0, 0)
    # the class of e_1 equals e_2 - e_4 in the chosen basis
    assert coordinates(qb, (1, 0, 0, 0, 0)) == (1, 0, -1, 0)


@given(rational_matrices(), st.data())
def test_quotient_kills_exactly_the_row_space(m, extra):
    qb = quotient_basis(m, m.cols)
    assert qb.dim == m.cols - rank(m)
    coeffs = [extra.draw(st.integers(-3, 3)) for _ in range(m.rows)]
    combo = tuple(
        sum((coeffs[i] * m.entries[i][j] for i in range(m.rows)), Fraction(0))
        for j in range(m.cols)
    )
    assert all(x == 0 for x in coordinates(qb, combo))
    vec = [extra.draw(st.integers(-3, 3)) for _ in range(m.cols)]
    in_rows = row_space_contains(m, vec)
    assert all(x == 0 for x in coordinates(qb, vec)) == in_rows


@given(rational_matrices())
def test_quotient_rows_are_read_off_the_rref(m):
    qb = quotient_basis(m, m.cols)
    red = rref(m)
    free = [c for c in range(m.cols) if c not in red.pivots]
    assert len(list(qb)) == len(free) == qb.dim
    for f, row in zip(free, qb):
        columns = [c for c, _ in row]
        assert columns == sorted(set(columns))
        assert all(x != 0 for _, x in row)
        dense = [Fraction(0)] * m.cols
        dense[f] = Fraction(1)
        for i, p in enumerate(red.pivots):
            dense[p] = -dict(fraction_rows(red)[i]).get(f, 0)
        assert dict(row) == {c: x for c, x in enumerate(dense) if x}


# --- alternating forms --------------------------------------------------------------

def test_wedge_pairs_order():
    assert wedge_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert wedge_pairs(1) == ()
    assert wedge_pairs(0) == ()


def test_alternating_rank_zero_form():
    assert alternating_rank({}, 3) == 0
    assert alternating_rank({(0, 1): 0, (1, 2): 0}, 3) == 0


def test_alternating_rank_single_pair():
    assert alternating_rank({(0, 1): 1}, 4) == 2


def test_alternating_rank_two_pairs():
    # rank of the explicit 4x4 antisymmetric matrix for e0^e1 + e2^e3
    explicit = mat([
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ])
    assert rank(explicit) == 4
    assert alternating_rank({(0, 1): 1, (2, 3): 1}, 4) == 4


def test_alternating_rank_validates_pairs():
    for pair in ((0, 3), (1, 0), (1, 1), (-1, 2)):
        with pytest.raises(ValueError):
            alternating_rank({pair: 1}, 3)


@given(st.data())
def test_alternating_rank_congruence_invariant(data):
    q = data.draw(st.integers(2, 4))
    pairs = wedge_pairs(q)
    coeffs = [Fraction(data.draw(st.integers(-3, 3))) for _ in pairs]
    change = mat([
        [data.draw(st.integers(-3, 3)) for _ in range(q)] for _ in range(q)
    ])
    if rank(change) < q:
        return
    m = [[Fraction(0)] * q for _ in range(q)]
    for (i, j), c in zip(pairs, coeffs):
        m[i][j] = c
        m[j][i] = -c
    a = mat(m)
    transformed = change.transpose() @ a @ change
    new_coeffs = [transformed.entries[i][j] for i, j in pairs]
    assert (alternating_rank(wedge_dict(new_coeffs, q), q)
            == alternating_rank(wedge_dict(coeffs, q), q) == rank(a))


@given(st.data())
def test_alternating_rank_is_even(data):
    q = data.draw(st.integers(0, 5))
    coeffs = [data.draw(st.integers(-4, 4)) for _ in wedge_pairs(q)]
    assert alternating_rank(wedge_dict(coeffs, q), q) % 2 == 0
