from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kahlercheck import nilpotent
from kahlercheck.linalg import RationalMatrix, rank
from kahlercheck.magnus import TruncatedSeries2, expand, generator_power, truncated_mul
from kahlercheck.presentation import Word

from strategies import commutator_words_with_rank, raw_letters, words_with_rank


def series(n, linear, quadratic):
    return TruncatedSeries2(
        n,
        tuple(Fraction(x) for x in linear),
        tuple(tuple(Fraction(x) for x in row) for row in quadratic),
    )


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
    assert expand(comm, 2) == series(2, (0, 0), ((0, 1), (-1, 0)))


def test_expand_sample_word():
    # x1 x2^2 x1, expanded by hand and frozen
    word = Word(((0, 1), (1, 2), (0, 1)))
    direct = expand(word, 2)
    assert direct == series(2, (2, 2), ((1, 2), (2, 1)))
    # same value from an explicit chain of truncated multiplications
    chain = truncated_mul(
        truncated_mul(generator_power(0, 1, 2), generator_power(1, 2, 2)),
        generator_power(0, 1, 2),
    )
    assert direct == chain
    # linear part agrees with the nilpotent evaluator
    assert direct.linear == nilpotent.evaluate(word, 2).abelian


def test_expand_empty_word():
    assert expand(Word(), 3) == TruncatedSeries2.zero(3)


def test_expand_checks_rank():
    with pytest.raises(ValueError):
        expand(Word(((2, 1),)), 2)


@given(words_with_rank())
def test_expand_is_integer_fold_of_generator_powers(data):
    n, word = data
    exp = expand(word, n)
    coefficients = exp.linear + tuple(x for row in exp.quadratic for x in row)
    assert all(type(x) is int for x in coefficients)
    acc = TruncatedSeries2.zero(n)
    for g, e in word.letters:
        acc = truncated_mul(acc, generator_power(g, e, n))
    assert exp == acc


@given(words_with_rank(), st.data())
def test_expand_is_multiplicative(data, extra):
    n, u = data
    v = Word(tuple(extra.draw(raw_letters(n))))
    assert expand(u * v, n) == truncated_mul(expand(u, n), expand(v, n))


@given(words_with_rank())
def test_expand_inverse_negates_linear(data):
    n, word = data
    assert expand(word.inverse(), n).linear == tuple(-x for x in expand(word, n).linear)


@given(words_with_rank())
def test_free_reduction_soundness(data):
    # evaluating the raw, unnormalized letter sequence gives the same series
    n, word = data
    doubled = word.letters + tuple((g, -e) for g, e in reversed(word.letters))
    raw = doubled + word.letters
    acc = TruncatedSeries2.zero(n)
    for g, e in raw:
        acc = truncated_mul(acc, generator_power(g, e, n))
    assert acc == expand(Word(raw), n)


@given(commutator_words_with_rank())
def test_commutator_words_have_antisymmetric_quadratic(data):
    n, word = data
    exp = expand(word, n)
    assert not any(exp.linear)
    q = exp.quadratic
    for i in range(n):
        for j in range(n):
            assert q[i][j] == -q[j][i]


@given(words_with_rank(), st.data())
def test_conjugation_moves_quadratic_within_linear_span(data, extra):
    n, word = data
    g = Word(tuple(extra.draw(raw_letters(n, 6))))
    base = expand(word, n)
    conj = expand(word.conjugated_by(g), n)
    assert conj.linear == base.linear
    # antisym difference must lie in the span of (linear word) wedge e_j
    lin = base.linear
    span_rows = []
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        span_rows.append(tuple(
            lin[a] * unit[b] - lin[b] * unit[a]
            for a in range(n) for b in range(a + 1, n)
        ))
    diff = tuple(c - b for c, b in zip(conj.antisymmetrized(), base.antisymmetrized()))
    pairs = n * (n - 1) // 2
    span = RationalMatrix.from_rows(span_rows, pairs)
    assert rank(span.stacked(RationalMatrix.from_rows([diff], pairs))) == rank(span)
