import pytest
from hypothesis import given
from hypothesis import strategies as st

from kahlercheck.presentation import (
    MAX_NESTING,
    ParseError,
    Presentation,
    Word,
    format_presentation,
    parse_presentation,
)

from strategies import presentations, raw_letters, words_with_rank


# --- words -------------------------------------------------------------------

def test_word_normalizes_adjacent_letters():
    assert Word(((0, 1), (0, 1))).letters == ((0, 2),)
    assert Word(((0, 1), (1, 1), (1, -1), (0, 1))).letters == ((0, 2),)
    assert Word(((0, 3), (0, -3))).letters == ()


def test_word_rejects_bad_generator_index():
    with pytest.raises(ValueError):
        Word(((-1, 2),))


def test_invert_empty_word():
    assert Word().inverse() == Word()


def test_invert_reverses_and_negates():
    # x y^-2 inverts to y^2 x^-1
    assert Word(((0, 1), (1, -2))).inverse() == Word(((1, 2), (0, -1)))


def test_invert_commutator():
    x, y = Word.generator(0), Word.generator(1)
    comm = x * y * x.inverse() * y.inverse()
    assert comm.inverse() == y * x * y.inverse() * x.inverse()


def test_conjugate_by_empty_is_identity():
    w = Word(((0, 2), (1, -1)))
    assert w.conjugated_by(Word()) == w


def test_conjugate_single_letter():
    x, y = Word.generator(0), Word.generator(1)
    assert x.conjugated_by(y) == y * x * y.inverse()


def test_conjugate_merges_letters():
    # (x y) conjugated by x is x^2 y x^-1
    x, y = Word.generator(0), Word.generator(1)
    assert (x * y).conjugated_by(x) == Word(((0, 2), (1, 1), (0, -1)))


def test_word_power():
    x, y = Word.generator(0), Word.generator(1)
    assert (x * y) ** 0 == Word()
    assert (x * y) ** 2 == Word(((0, 1), (1, 1), (0, 1), (1, 1)))
    assert (x * y) ** -1 == y.inverse() * x.inverse()
    assert x ** 40 == Word(((0, 40),))


@given(words_with_rank())
def test_normalization_idempotent(data):
    _, word = data
    assert Word(word.letters) == word


@given(words_with_rank())
def test_inverse_is_involution(data):
    _, word = data
    assert word.inverse().inverse() == word


@given(words_with_rank())
def test_word_times_inverse_is_empty(data):
    _, word = data
    assert word * word.inverse() == Word()


# --- presentations -----------------------------------------------------------

def test_presentation_validates_names():
    with pytest.raises(ValueError):
        Presentation(("x", "x"))
    with pytest.raises(ValueError):
        Presentation(("1x",))
    with pytest.raises(ValueError):
        Presentation((("x"),), (Word(((1, 1),)),))


# --- parsing -----------------------------------------------------------------

def test_parse_commutator_relator():
    pres = parse_presentation("gens: x y\nrels: (x,y)")
    assert pres.n == 2 and pres.s == 1
    assert pres.relators[0].letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_free_presentation():
    pres = parse_presentation("gens: a b\nrels:")
    assert pres.generators == ("a", "b")
    assert pres.s == 0


def test_parse_five_generator_example():
    text = ("gens: x1 x2 x3 x4 x5\n"
            "rels: x1^2 x2^-2 x4^2 | (x1,x2) | (x2,x3) | (x3,x4) | (x4,x5)")
    pres = parse_presentation(text)
    assert pres.n == 5 and pres.s == 5
    assert pres.relators[0].letters == ((0, 2), (1, -2), (3, 2))
    assert pres.relators[1].letters == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert pres.relators[4].letters == ((3, 1), (4, 1), (3, -1), (4, -1))


def test_parse_trivial_presentation():
    pres = parse_presentation("gens:\nrels:")
    assert pres.n == 0 and pres.s == 0


def test_parse_power_and_grouping():
    pres = parse_presentation("gens: x y\nrels: (x y)^2 | x^0 | (x,y)^-1")
    assert pres.relators[0].letters == ((0, 1), (1, 1), (0, 1), (1, 1))
    assert pres.relators[1] == Word()
    assert pres.relators[2].letters == ((1, 1), (0, 1), (1, -1), (0, -1))


def test_parse_nested_commutator():
    pres = parse_presentation("gens: x y\nrels: ((x,y),y)")
    inner = Word(((0, 1), (1, 1), (0, -1), (1, -1)))
    y = Word.generator(1)
    assert pres.relators[0] == inner * y * inner.inverse() * y.inverse()


def test_parse_newline_separated_relators():
    pres = parse_presentation("gens: x y\nrels: x^2\n (x,y)\n\n y^3")
    assert pres.s == 3


def test_parse_comments_and_crlf():
    text = "# leading comment\r\ngens: x y # the generators\r\nrels: (x,y) # torus\r\n"
    pres = parse_presentation(text)
    assert pres.n == 2 and pres.s == 1


def test_parse_explicit_plus_exponent():
    pres = parse_presentation("gens: x\nrels: x^+3")
    assert pres.relators[0].letters == ((0, 3),)


def test_parse_unknown_generator_reports_location():
    with pytest.raises(ParseError) as excinfo:
        parse_presentation("gens: x\nrels: x z")
    assert excinfo.value.line == 2 and excinfo.value.column == 9
    assert "unknown generator" in str(excinfo.value)


def test_parse_duplicate_generator():
    with pytest.raises(ParseError) as excinfo:
        parse_presentation("gens: x y x\nrels:")
    assert excinfo.value.line == 1 and excinfo.value.column == 11


def test_parse_nesting_limit():
    def nest(depth):
        return "gens: x\nrels: " + "(" * depth + "x" + ")" * depth
    assert parse_presentation(nest(MAX_NESTING)).relators[0].letters == ((0, 1),)
    with pytest.raises(ParseError, match="nested deeper") as excinfo:
        parse_presentation(nest(MAX_NESTING + 1))
    assert excinfo.value.line == 2
    assert excinfo.value.column == len("rels: ") + MAX_NESTING + 1


def test_parse_relators_without_generators():
    with pytest.raises(ParseError, match="no generators"):
        parse_presentation("gens:\nrels: ()")


def test_parse_missing_sections():
    with pytest.raises(ParseError, match="gens"):
        parse_presentation("# nothing here\n")
    with pytest.raises(ParseError, match="rels"):
        parse_presentation("gens: x\n# no rels line")


@pytest.mark.parametrize("bad", [
    "gens: x\nrels: x^",
    "gens: x\nrels: x^y",
    "gens: x\nrels: (x",
    "gens: x\nrels: x)",
    "gens: x\nrels: | x",
    "gens: x\nrels: x | | x",
    "gens: x\nrels: x |",
    "gens: x\nrels: x $",
    "gens: x,y\nrels:",
    "gens: x\nrels: 3",
])
def test_parse_malformed_inputs(bad):
    with pytest.raises(ParseError) as excinfo:
        parse_presentation(bad)
    assert excinfo.value.line >= 1 and excinfo.value.column >= 1


def test_format_example():
    pres = parse_presentation("gens: x y\nrels: (x,y) | x^0 | y^-2 x")
    assert format_presentation(pres) == (
        "gens: x y\nrels: x y x^-1 y^-1 | () | y^-2 x\n"
    )


@given(presentations())
def test_round_trip(pres):
    assert parse_presentation(format_presentation(pres)) == pres


def test_round_trip_trivial():
    for pres in (Presentation(), Presentation(("x",), (Word(),))):
        assert parse_presentation(format_presentation(pres)) == pres
