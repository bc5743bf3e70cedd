from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kahlercheck import magnus, nilpotent
from kahlercheck.linalg import RationalMatrix, row_space_contains
from kahlercheck.magnus import Expansion, expand
from kahlercheck.presentation import Word

from oracles import (
    TruncatedSeries2,
    dense_expand,
    dense_vector,
    densify_element,
    generator_power,
    truncated_mul,
    wedge_dict,
    wedge_pairs,
)
from strategies import (
    commutator_words_with_rank,
    raw_letters,
    root_words_with_rank,
    words_with_rank,
)


def series(n, linear, quadratic):
    return TruncatedSeries2(
        n,
        tuple(Fraction(x) for x in linear),
        tuple(tuple(Fraction(x) for x in row) for row in quadratic),
    )


def assert_is_fold(exp, letters, n):
    """``exp`` is the truncated_mul fold of the letters, read sparse.

    Its integer linear part lists the nonzero exponent sums of the fold,
    its wedge image the nonzero q_ij - q_ji of the fold's quadratic part
    Q, and Q + Q^T is L L^T - diag(L).  Together these determine Q.
    """
    fold = dense_expand(letters, n)
    assert all(type(x) is int for x in (*exp.linear.values(), *exp.wedge.values()))
    assert all(exp.linear.values()) and all(0 <= g < n for g in exp.linear)
    assert dense_vector(exp.linear, n) == fold.linear
    assert exp.wedge == wedge_dict(fold.antisymmetrized(), n)
    lin, q = fold.linear, fold.quadratic
    for i in range(n):
        for j in range(n):
            assert q[i][j] + q[j][i] == lin[i] * lin[j] - (lin[i] if i == j else 0)


# --- truncated multiplication --------------------------------------------------

def test_pure_quadratic_product():
    x1 = generator_power(0, 1, 2)
    x2 = generator_power(1, 1, 2)
    prod = truncated_mul(x1, x2, 0, 0)
    assert prod == series(2, (0, 0), ((0, 1), (0, 0)))


def test_series_inverse_cancels():
    # (1+X)(1-X+X^2) = 1 up to degree 2
    inv = series(1, (-1,), ((1,),))
    assert truncated_mul(generator_power(0, 1, 1), inv).is_zero()


def test_group_like_product():
    prod = truncated_mul(generator_power(0, 1, 2), generator_power(1, 1, 2))
    assert prod == series(2, (1, 1), ((0, 1), (0, 0)))


def test_mixed_constant_terms():
    a = series(1, (2,), ((0,),))
    b = series(1, (3,), ((1,),))
    out = truncated_mul(a, b, 2, -1)
    assert out.linear == (Fraction(4),)
    # 2*b.quad - 1*a.quad + outer = 2*1 - 0 + 2*3
    assert out.quadratic == ((Fraction(8),),)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        truncated_mul(generator_power(0, 1, 1), generator_power(0, 1, 2))


# --- generator powers -----------------------------------------------------------

def test_generator_power_one():
    assert generator_power(1, 1, 3) == series(3, (0, 1, 0), ((0,) * 3,) * 3)


def test_generator_power_negative_one():
    # the degree-2 inverse of 1+X is 1-X+X^2; the truncated inverse is unique
    candidate = series(1, (-1,), ((1,),))
    assert truncated_mul(generator_power(0, 1, 1), candidate).is_zero()
    assert generator_power(0, -1, 1) == candidate


def test_generator_power_cube_matches_repeated_product():
    x = generator_power(0, 1, 1)
    cube = truncated_mul(truncated_mul(x, x), x)
    assert cube == generator_power(0, 3, 1)
    assert cube == series(1, (3,), ((3,),))


@given(st.integers(-8, 8))
def test_generator_power_matches_repeated_product(m):
    x = generator_power(0, 1, 2) if m >= 0 else generator_power(0, -1, 2)
    acc = TruncatedSeries2.zero(2)
    for _ in range(abs(m)):
        acc = truncated_mul(acc, x)
    assert acc == generator_power(0, m, 2)


def test_generator_power_index_range():
    with pytest.raises(ValueError):
        generator_power(2, 1, 2)


# --- word expansion -------------------------------------------------------------

def test_expand_commutator():
    # (a-1)(b-1) - (b-1)(a-1) in degree 2
    comm = Word(((0, 1), (1, 1), (0, -1), (1, -1)))
    assert dense_expand(comm.letters, 2) == series(2, (0, 0), ((0, 1), (-1, 0)))
    assert expand(comm, 2) == Expansion({}, {(0, 1): 2})
    assert_is_fold(expand(comm, 2), comm.letters, 2)


def test_expand_sample_word():
    # x1 x2^2 x1, expanded by hand and frozen
    word = Word(((0, 1), (1, 2), (0, 1)))
    direct = expand(word, 2)
    assert direct == Expansion({0: 2, 1: 2}, {})   # q_01 = q_10 = 2
    # the dense value from an explicit chain of truncated multiplications
    chain = truncated_mul(
        truncated_mul(generator_power(0, 1, 2), generator_power(1, 2, 2)),
        generator_power(0, 1, 2),
    )
    assert chain == series(2, (2, 2), ((1, 2), (2, 1)))
    assert_is_fold(direct, word.letters, 2)
    # linear part agrees with the nilpotent evaluator
    assert dense_vector(direct.linear, 2) == densify_element(
        nilpotent.evaluate(word, 2), 2).abelian


def test_expand_empty_word():
    assert expand(Word(), 3) == Expansion({}, {})


def test_expand_checks_rank():
    # a raw Word from outside the parser: its largest index is checked, also
    # when it is a power, or a conjugate whose only such index is in u
    for letters in (((2, 1),), ((0, 1), (5, -1)), ((0, 1), (5, -1)) * 3,
                    ((7, 1), *((0, 1), (1, 1)) * 3, (7, -1))):
        with pytest.raises(ValueError, match="outside the ambient rank"):
            expand(Word(letters), 2)


@given(words_with_rank())
def test_expand_is_integer_fold_of_generator_powers(data):
    n, word = data
    assert_is_fold(expand(word, n), word.letters, n)


@given(root_words_with_rank())
def test_expand_is_integer_fold_on_powers_and_conjugates(data):
    n, word = data
    assert_is_fold(expand(word, n), word.letters, n)


def test_expand_folds_only_the_root(monkeypatch):
    # u c^m u^-1 folds the letters of u and c once, not m copies of c
    visited = []
    fold = magnus._fold
    monkeypatch.setattr(magnus, "_fold",
                        lambda letters, n: visited.append(len(letters)) or fold(letters, n))
    x, y, z = (Word.generator(i) for i in range(3))
    assert expand((x * y) ** 500000, 2) == Expansion({0: 500000, 1: 500000}, {(0, 1): 500000})
    assert sum(visited) == 2
    visited.clear()
    assert expand(x * (y * z) ** 1000 * x.inverse(), 3) == Expansion(
        {1: 1000, 2: 1000}, {(0, 1): 2000, (0, 2): 2000, (1, 2): 1000})
    assert sum(visited) == 3


@given(words_with_rank(), st.data())
def test_expand_is_multiplicative(data, extra):
    n, u = data
    v = Word(tuple(extra.draw(raw_letters(n))))
    assert dense_expand((u * v).letters, n) == truncated_mul(
        dense_expand(u.letters, n), dense_expand(v.letters, n))
    # read sparse: linear parts add, wedge images add plus L_u ^ L_v
    eu, ev, euv = expand(u, n), expand(v, n), expand(u * v, n)
    lu, lv = dense_vector(eu.linear, n), dense_vector(ev.linear, n)
    assert dense_vector(euv.linear, n) == tuple(a + b for a, b in zip(lu, lv))
    expected = [eu.wedge.get((i, j), 0) + ev.wedge.get((i, j), 0)
                + lu[i] * lv[j] - lu[j] * lv[i]
                for i, j in wedge_pairs(n)]
    assert euv.wedge == wedge_dict(expected, n)


@given(words_with_rank())
def test_expand_inverse_negates_linear(data):
    n, word = data
    assert dense_vector(expand(word.inverse(), n).linear, n) == tuple(
        -x for x in dense_vector(expand(word, n).linear, n))


@given(words_with_rank())
def test_free_reduction_soundness(data):
    # evaluating the raw, unnormalized letter sequence gives the same series
    n, word = data
    doubled = word.letters + tuple((g, -e) for g, e in reversed(word.letters))
    raw = doubled + word.letters
    assert dense_expand(raw, n) == dense_expand(word.letters, n)
    assert_is_fold(expand(Word(raw), n), raw, n)


@given(commutator_words_with_rank())
def test_commutator_words_have_antisymmetric_quadratic(data):
    n, word = data
    exp = expand(word, n)
    assert not exp.linear
    q = dense_expand(word.letters, n).quadratic
    for i in range(n):
        for j in range(n):
            assert q[i][j] == -q[j][i]
    assert_is_fold(exp, word.letters, n)


@given(words_with_rank(), st.data())
def test_conjugation_moves_quadratic_within_linear_span(data, extra):
    n, word = data
    g = Word(tuple(extra.draw(raw_letters(n, 6))))
    base = expand(word, n)
    conj = expand(word.conjugated_by(g), n)
    assert conj.linear == base.linear
    # antisym difference must lie in the span of (linear word) wedge e_j
    lin = dense_vector(base.linear, n)
    span_rows = []
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        span_rows.append(tuple(
            lin[a] * unit[b] - lin[b] * unit[a]
            for a in range(n) for b in range(a + 1, n)
        ))
    diff = tuple(conj.wedge.get(p, 0) - base.wedge.get(p, 0) for p in wedge_pairs(n))
    pairs = n * (n - 1) // 2
    assert row_space_contains(RationalMatrix.from_rows(span_rows, pairs), diff)
