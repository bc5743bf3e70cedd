"""Hypothesis strategies for words, presentations and small matrices."""

from fractions import Fraction

from hypothesis import strategies as st

from kahlercheck.linalg import RationalMatrix
from kahlercheck.presentation import Presentation, Word


def raw_letters(n: int, max_len: int = 12):
    return st.lists(
        st.tuples(st.integers(0, n - 1),
                  st.integers(-3, 3).filter(lambda e: e != 0)),
        max_size=max_len,
    )


@st.composite
def words_with_rank(draw, max_gens: int = 5, max_len: int = 12):
    n = draw(st.integers(1, max_gens))
    return n, Word(tuple(draw(raw_letters(n, max_len))))


@st.composite
def root_words_with_rank(draw, max_gens: int = 5):
    """A conjugate u c^m u^-1 of a power, m in -9..-1 or 1..9, u possibly empty."""
    n = draw(st.integers(1, max_gens))
    u = Word(tuple(draw(raw_letters(n, 4))))
    c = Word(tuple(draw(raw_letters(n, 6))))
    m = draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))
    return n, u * c ** m * u.inverse()


@st.composite
def commutator_words_with_rank(draw, max_gens: int = 5):
    n = draw(st.integers(1, max_gens))
    word = Word()
    for _ in range(draw(st.integers(1, 3))):
        u = Word(tuple(draw(raw_letters(n, 3))))
        v = Word(tuple(draw(raw_letters(n, 3))))
        word = word * u * v * u.inverse() * v.inverse()
    return n, word


@st.composite
def relator_texts(draw, n: int, depth: int = 2):
    """Relator text over x0 .. x{n-1} with powers, groups and commutators,
    and the letters it denotes, concatenated without any reduction."""
    kind = draw(st.sampled_from(("letter", "group", "commutator") if depth else ("letter",)))
    if kind == "letter":
        gen, exp = draw(st.integers(0, n - 1)), draw(st.integers(-3, 3))
        return f"x{gen}^{exp}", [(gen, exp)]
    parts = [draw(relator_texts(n, depth - 1)) for _ in range(draw(st.integers(1, 3)))]
    text, letters = " ".join(t for t, _ in parts), [a for _, ls in parts for a in ls]
    if kind == "group":
        m = draw(st.integers(-3, 3))
        copies = letters if m >= 0 else [(g, -e) for g, e in reversed(letters)]
        return f"({text})^{m}", copies * abs(m)
    other, second = draw(relator_texts(n, depth - 1))
    return (f"({text}, {other})", letters + second
            + [(g, -e) for g, e in reversed(letters)]
            + [(g, -e) for g, e in reversed(second)])


@st.composite
def presentations(draw, max_gens: int = 5, max_rels: int = 6):
    n = draw(st.integers(1, max_gens))
    s = draw(st.integers(0, max_rels))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    relators = []
    for _ in range(s):
        if draw(st.booleans()):
            relators.append(Word(tuple(draw(raw_letters(n)))))
        else:
            u = Word(tuple(draw(raw_letters(n, 3))))
            v = Word(tuple(draw(raw_letters(n, 3))))
            relators.append(u * v * u.inverse() * v.inverse())
    return Presentation(names, tuple(relators))


@st.composite
def rational_matrices(draw, max_dim: int = 5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    numer = st.integers(-6, 6)
    denom = st.integers(1, 4)
    entries = [
        [Fraction(draw(numer), draw(denom)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return RationalMatrix.from_rows(entries, cols)


def identity_matrix(n: int) -> RationalMatrix:
    return RationalMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], n)


def zero_matrix(rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix.from_rows([[0] * cols for _ in range(rows)], cols)
