import copy
import itertools
import json
import pickle
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kahlercheck import presentation
from kahlercheck.presentation import (
    MAX_NESTING,
    ParseError,
    Presentation,
    Word,
    format_presentation,
    format_word,
    parse_presentation,
)

from oracles import format_letters, power_length, reference_parse
from strategies import (
    commutator_words_with_rank,
    presentations,
    raw_letters,
    relator_texts,
    root_words_with_rank,
    words_with_rank,
)

PARSE_CASES = json.loads(
    (Path(__file__).parent / "data" / "parse_errors.json").read_text(encoding="utf-8")
)["cases"]


# --- words -------------------------------------------------------------------

def test_word_normalizes_adjacent_letters():
    assert Word(((0, 1), (0, 1))).letters == ((0, 2),)
    assert Word(((0, 1), (1, 1), (1, -1), (0, 1))).letters == ((0, 2),)
    assert Word(((0, 3), (0, -3))).letters == ()
    # a zero exponent is dropped, and the letters either side of it merge
    assert Word(((0, 1), (1, 0), (0, 1))).letters == ((0, 2),)
    assert Word(((0, 0),)).letters == ()


@given(st.one_of(words_with_rank(), root_words_with_rank(), commutator_words_with_rank()))
def test_max_generator_is_the_largest_index_of_any_letter(data):
    # read on u and c of the root alone, it is the largest over every letter
    _, word = data
    assert word.max_generator() == max(word.letters, default=(-1, 0))[0]


def test_word_rejects_bad_generator_index():
    with pytest.raises(ValueError):
        Word(((-1, 2),))
    for bad in (True, False, 1.0):
        with pytest.raises(ValueError, match="generator index"):
            Word(((bad, 2),))


@pytest.mark.parametrize("exp", [Fraction(1, 2), 0.5, Fraction(2), 2.0, True, 0.0])
def test_word_rejects_non_int_exponent(exp):
    with pytest.raises(ValueError, match="exponent must be an int"):
        Word(((0, exp),))
    with pytest.raises(ValueError, match="exponent must be an int"):
        Word(((0, 1), (1, exp), (1, -1)))   # also where it would cancel


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
    assert Word() * w * Word().inverse() == w


def test_conjugate_single_letter():
    x, y = Word.generator(0), Word.generator(1)
    assert y * x * y.inverse() == Word(((1, 1), (0, 1), (1, -1)))


def test_conjugate_merges_letters():
    # (x y) conjugated by x is x^2 y x^-1
    x, y = Word.generator(0), Word.generator(1)
    assert x * (x * y) * x.inverse() == Word(((0, 2), (1, 1), (0, -1)))


def test_word_power():
    x, y = Word.generator(0), Word.generator(1)
    assert (x * y) ** 0 == Word()
    assert (x * y) ** 2 == Word(((0, 1), (1, 1), (0, 1), (1, 1)))
    assert (x * y) ** -1 == y.inverse() * x.inverse()
    assert x ** 40 == Word(((0, 40),))


@given(words_with_rank(), st.integers(-6, 6))
def test_word_power_is_repeated_product(data, m):
    _, word = data
    expected = Word()
    for _ in range(abs(m)):
        expected = expected * (word if m > 0 else word.inverse())
    assert word ** m == expected


def test_word_power_of_huge_exponent():
    big = 10 ** 400
    x, y = Word.generator(0), Word.generator(1)
    assert x ** big == Word(((0, big),))
    assert (y * x * y.inverse()) ** -big == Word(((1, 1), (0, -big), (1, -1)))


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


# Every word the parser builds is normalized, so a join reduces only at the
# junction and a power of u c u^-1 only where copies of c meet.  Each
# shortcut must agree with normalizing the plain concatenation.

@given(words_with_rank(), st.data())
def test_join_reduces_only_at_the_junction(data, extra):
    n, a = data
    # b starts by undoing a suffix of a, so the junction cancels repeatedly
    cut = extra.draw(st.integers(0, len(a.letters)))
    b = Word(a.inverse().letters[:len(a.letters) - cut]
             + tuple(extra.draw(raw_letters(n))))
    joined = list(a.letters)
    presentation._join(joined, b.letters)
    assert tuple(joined) == Word(a.letters + b.letters).letters
    assert a * b == Word(a.letters + b.letters)


def test_join_cancels_through_the_junction():
    # x y^2 x^-1 . x y^-2 x^3 y = x^4 y: two cancellations, then a merge
    joined = [(0, 1), (1, 2), (0, -1)]
    presentation._join(joined, ((0, 1), (1, -2), (0, 3), (1, 1)))
    assert joined == [(0, 4), (1, 1)]


@given(words_with_rank(), st.integers(-6, 6))
@example((2, Word(((0, 1), (1, 1), (0, 1)))), 3)            # x y x: copies merge
@example((2, Word(((0, 1), (1, 1), (0, -1)))), -3)          # x y x^-1 = u c u^-1
@example((3, Word(((2, 1), (0, 1), (1, 1), (0, 2), (2, -1)))), 2)  # z (x y x^2) z^-1
def test_power_is_the_normalized_repeated_word(data, m):
    _, word = data
    copies = word.letters if m >= 0 else word.inverse().letters
    assert presentation._power(word.letters, m) == Word(copies * abs(m)).letters
    conj = Word(((0, 1),) + word.letters + ((0, -1),))
    copies = conj.letters if m >= 0 else conj.inverse().letters
    assert presentation._power(conj.letters, m) == Word(copies * abs(m)).letters


def brute_force_root(letters):
    """(k, p, m) with u = letters[:k] as long as it can be and c = letters[k:k + p]
    as short as it can be, found by trying every length."""
    n = len(letters)
    k = 0
    while 2 * k + 1 < n and letters[n - 1 - k] == (letters[k][0], -letters[k][1]):
        k += 1
    core = letters[k:n - k]
    p = next(p for p in range(1, len(core) + 1)
             if len(core) % p == 0 and core[:p] * (len(core) // p) == core)
    return k, p, len(core) // p


def test_root_is_the_smallest_period_on_every_short_word():
    # every normalized word of up to 8 letters on 2 generators, exponents +-1 and +-2:
    # the generators alternate, so a word is its first generator and its exponents
    for length in range(9):
        for g0 in (0, 1):
            for exps in itertools.product((-2, -1, 1, 2), repeat=length):
                letters = tuple(((g0 + i) % 2, e) for i, e in enumerate(exps))
                split = presentation._root(letters)
                assert split == (brute_force_root(letters) if length >= 4 else (0, length, 1))
                k, p, m = split
                assert letters == letters[:k] + letters[k:k + p] * m + Word(letters[:k]).inverse().letters


@given(root_words_with_rank())
def test_root_is_the_smallest_period_on_powers_and_conjugates(data):
    _, word = data
    letters = word.letters
    assert presentation._root(letters) == (
        brute_force_root(letters) if len(letters) >= 4 else (0, len(letters), 1))


def test_root_certificate_rejects_a_wrong_split(monkeypatch):
    x, y, z = (Word.generator(i) for i in range(3))
    letters = (x * (y * z) ** 3 * x.inverse()).letters
    assert presentation._root(letters) == (1, 2, 3)
    for block in (presentation._BLOCK, 1, 2, 5):   # the period compared a block at a time
        monkeypatch.setattr(presentation, "_BLOCK", block)
        assert presentation._certified(letters, 1, 2, 3)
        # (1, 2, 2) and (1, 2, 4): a wrong m; (1, 3, 2) and (1, 1, 6): the core
        # y z y z y z has the right length but not period 3 or 1
        for split in ((0, 2, 3), (2, 2, 3), (1, 2, 2), (1, 2, 4), (1, 3, 2), (1, 1, 6),
                      (0, 4, 2), (1, -2, -3), (4, 0, 1)):
            assert not presentation._certified(letters, *split)
        # a core of period 2 whose length is not a multiple of 2
        assert not presentation._certified((x * (y * z) ** 3 * y * x.inverse()).letters, 1, 2, 3)
        # its core fits, not its u^-1
        assert not presentation._certified(((x * y) ** 2).letters, 1, 2, 1)
        # a mismatch in the last letter of the core only
        assert not presentation._certified((x * (y * z) ** 2 * y * z ** 2 * x.inverse()).letters,
                                           1, 2, 3)
    monkeypatch.undo()
    # a wrong candidate from the gcd, by period or by length, falls back on
    # the search, which still finds the smallest period
    for wrong in (lambda a, b: b, lambda a, b: 4):
        monkeypatch.setattr(presentation, "gcd", wrong)
        assert presentation._root(letters) == (1, 2, 3)
    monkeypatch.undo()
    # y occurs twice in each y z y z^-1: the candidate m = 6 fails and the
    # search finds m = 3
    letters = (x * (y * z * y * z.inverse()) ** 3 * x.inverse()).letters
    assert not presentation._certified(letters, 1, 2, 6)
    assert presentation._root(letters) == (1, 4, 3)
    # a coding that gives two letters one character finds a wrong period
    monkeypatch.setattr(presentation, "chr", lambda i: "a", raising=False)
    with pytest.raises(ValueError, match=r"\(1, 1, 12\) is not a root split"):
        presentation._root(letters)


def test_root_of_a_prime_candidate_is_not_searched(monkeypatch):
    # a b a c: a occurs twice in 4 letters, so the candidate m is the prime
    # 2; the split for 2 fails, and the true m, which divides 2, is 1
    certified, calls = presentation._certified, []

    def counting(*args):
        calls.append(args[1:])
        return certified(*args)
    monkeypatch.setattr(presentation, "_certified", counting)
    monkeypatch.setattr(presentation, "chr", None, raising=False)   # no coded search
    letters = parse_presentation("gens: a b c\nrels: a b a c\n").relators[0].letters
    assert presentation._root(letters) == (0, 4, 1)
    assert calls == [(0, 2, 2)]


def test_every_relator_letter_has_a_character():
    # ``_root`` codes each distinct letter of a core as one character
    assert presentation.MAX_LETTERS < 0x110000


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), relator_texts(n))))
def test_parsed_relator_is_the_constructed_word(case):
    n, (text, letters) = case
    gens = " ".join(f"x{i}" for i in range(n))
    relator, = parse_presentation(f"gens: {gens}\nrels: {text}\n").relators
    built = Word(letters)
    assert relator == built and hash(relator) == hash(built)
    assert relator.letters == built.letters


def test_word_is_an_immutable_value():
    w = Word(((0, 1), (0, -1)))
    assert w == Word() and hash(w) == hash(Word())
    assert Word(((0, 1), (0, 1))) == Word(((0, 2),))
    assert hash(Word(((0, 1), (0, 1)))) == hash(Word(((0, 2),)))
    assert Word(((0, 1),)) != Word(((0, 2),))
    assert Word(((0, 1),)) != ((0, 1),)
    assert Word(((0, 1),)) != SimpleNamespace(letters=((0, 1),))
    assert repr(Word(((0, 1), (1, -2)))) == "Word(letters=((0, 1), (1, -2)))"
    with pytest.raises(AttributeError):
        w.letters = ((1, 1),)
    with pytest.raises(AttributeError):
        w.extra = 1
    with pytest.raises(AttributeError):
        del w.letters
    assert w.letters == ()
    x = Word(((0, 3),))
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x

    # the split root() keeps is not a field: a word whose split is known
    # is equal, hash and repr alike, to a fresh word, and copies equal
    y = Word(((2, 1), *((0, 1), (1, 1)) * 3, (2, -1)))
    assert y.root() == (((2, 1),), ((0, 1), (1, 1)), 3) and y.root() is y.root()
    fresh = Word(y.letters)
    assert y == fresh and hash(y) == hash(fresh) and repr(y) == repr(fresh)
    assert repr(y) == f"Word(letters={y.letters!r})"
    for twin in (copy.copy(y), pickle.loads(pickle.dumps(y))):
        assert twin == y and twin.root() == y.root()
    with pytest.raises(AttributeError):
        y._split = None


# --- presentations -----------------------------------------------------------

def test_presentation_validates_names():
    with pytest.raises(ValueError):
        Presentation(("x", "x"))
    with pytest.raises(ValueError):
        Presentation(("1x",))
    with pytest.raises(ValueError):
        Presentation((("x"),), (Word(((1, 1),)),))
    # the only index out of range is in u of the root u c^m u^-1
    with pytest.raises(ValueError, match="relator uses generator index 5, "
                                         "but only 2 generators are declared"):
        Presentation(("x", "y"), (Word(((5, 1), *((0, 1), (1, 1)) * 3, (5, -1))),))


def test_presentation_is_an_immutable_value():
    pres = Presentation(["x", "y"], [Word(((0, 1), (0, -1))), Word(((1, 2),))])
    assert pres.generators == ("x", "y")
    assert pres.relators == (Word(), Word(((1, 2),)))
    same = Presentation(("x", "y"), (Word(), Word(((1, 1), (1, 1)))))
    assert pres == same and hash(pres) == hash(same)
    assert pres != Presentation(("x", "y"), (Word(),))
    assert pres != (("x", "y"), (Word(), Word(((1, 2),))))
    assert repr(Presentation(("x",), (Word(((0, 1),)),))) == (
        "Presentation(generators=('x',), relators=(Word(letters=((0, 1),)),))")
    for name in ("generators", "relators", "extra"):
        with pytest.raises(AttributeError):
            setattr(pres, name, ())
    with pytest.raises(AttributeError):
        del pres.relators
    assert pres == same
    assert copy.copy(pres) == pres and pickle.loads(pickle.dumps(pres)) == pres


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


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d",
                                 "\x1e", "\x85", "\u2028", "\u2029"])
def test_parse_line_ends(sep):
    # lines end wherever str.splitlines ends them, as the module documents
    pres = parse_presentation(f"gens: x y{sep}rels: x{sep}y{sep}")
    assert pres.relators == (Word.generator(0), Word.generator(1))


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


@given(words_with_rank(), st.integers(-6, 6), st.integers(-2, 2))
@example((2, Word(((0, 1), (1, 1), (0, 1)))), -3, 0)       # x y x: copies merge
@example((2, Word(((0, 1), (1, 1), (0, 1)))), 4, -1)
@example((3, Word(((2, 1), (0, 1), (1, 1), (0, 2), (2, -1)))), -2, 1)  # z (x y x^2) z^-1
def test_builders_refuse_exactly_past_the_limit(data, m, slack):
    # for a limit around the true length, each builder builds the word the
    # unbounded normalization gives, or refuses exactly when it is longer
    _, word = data
    conj = Word(((0, 1),) + word.letters + ((0, -1),))
    for a in (word.letters, conj.letters):
        power = Word((a if m >= 0 else Word(a).inverse().letters) * abs(m)).letters
        assert power_length(a, m) == len(power)
        limit = max(1, len(power) + slack)
        assert presentation._power(a, m, limit) == (power if len(power) <= limit else None)
        # a a^m cancels all of a when m < 0, and merges at the junction
        # when the copies of its core do
        product = Word(a + power).letters
        limit = max(1, len(product) + slack)
        joined = list(a)
        assert presentation._join(joined, power, limit) == (len(product) <= limit)
        if len(product) <= limit:
            assert tuple(joined) == product


def test_power_refuses_a_huge_exponent_unbuilt():
    limit = presentation.MAX_LETTERS
    assert presentation._power(((0, 1),), 10 ** 50, limit) == ((0, 10 ** 50),)
    assert power_length(((0, 1), (1, 1)), -(10 ** 50)) == 2 * 10 ** 50
    assert presentation._power(((0, 1), (1, 1)), -(10 ** 50), limit) is None
    # x y x merges at each junction of its powers: x y x^2 y x
    xyx = ((0, 1), (1, 1), (0, 1))
    assert presentation._power(xyx, 2, 5) == ((0, 1), (1, 1), (0, 2), (1, 1), (0, 1))
    assert presentation._power(xyx, 2, 4) is None


def test_parse_letter_limit(monkeypatch):
    monkeypatch.setattr(presentation, "MAX_LETTERS", 10)

    def rel(text):
        return "gens: x y\nrels: " + text
    assert len(parse_presentation(rel("(x y)^5")).relators[0].letters) == 10
    assert len(parse_presentation(rel("(x y)^5 y^-1")).relators[0].letters) == 9
    # the power, the product and the commutator are each located
    for text, column in (("(x y)^6", 12), ("(x y)^5 x", 15), ("((x y)^3, x)", 7)):
        with pytest.raises(ParseError, match="longer than 10 letters") as excinfo:
            parse_presentation(rel(text))
        assert (excinfo.value.line, excinfo.value.column) == (2, column), text


def test_parse_long_token_relator():
    # 20,000 factors, each appended to the running reduction once
    tokens = parse_presentation("gens: x y\nrels: " + "x y " * 10_000 + "\n")
    power = parse_presentation("gens: x y\nrels: (x y)^10000\n")
    assert tokens == power
    assert len(tokens.relators[0].letters) == 20_000


def test_parse_exponent_past_int_digit_limit():
    # 5000 digits exceed the interpreter's default int() string limit
    with pytest.raises(ParseError, match="exponent of 5000 digits") as excinfo:
        parse_presentation("gens: x y\nrels: y x^-" + "9" * 5000 + "\n")
    assert (excinfo.value.line, excinfo.value.column) == (2, 12)


def test_parse_non_ascii_is_located():
    # names and exponents are ASCII; other characters are located errors
    for rels, column, char in (("x é", 9, "é"), ("x^²", 9, "²"), ("x^٣", 9, "٣"),
                               ("é x", 7, "é"), ("x x3é", 11, "é"), ("x^3٣", 10, "٣")):
        with pytest.raises(ParseError) as excinfo:
            parse_presentation("gens: x x3\nrels: " + rels + "\n")
        assert str(excinfo.value) == \
            f"line 2, column {column}: unexpected character {char!r}", rels
    # Unicode whitespace still separates tokens
    pres = parse_presentation("gens: x y\nrels: x\u00a0y\u2003x\n")
    assert pres.relators[0].letters == ((0, 1), (1, 1), (0, 1))


def test_format_exponent_past_int_digit_limit():
    # two 4300-digit powers merge into a 4301-digit exponent
    power = "x^" + "9" * 4300
    pres = parse_presentation(f"gens: x\nrels: {power} {power}\n")
    assert format_presentation(pres) == \
        "gens: x\nrels: x^1" + "9" * 4299 + "8\n"
    # in the core of a power, whose text is repeated
    word = Word(((0, 1), (1, -10 ** 4400)) * 3)
    assert format_word(word, ("x", "y")) == format_letters(word, ("x", "y"))


@given(st.one_of(words_with_rank(), root_words_with_rank()))
@example((3, Word(((2, 5), *((0, 1), (1, 1)) * 4, (2, -5)))))
def test_format_word_is_the_letter_by_letter_text(data):
    n, word = data
    names = tuple(f"x{i}" for i in range(n))
    assert format_word(word, names) == format_letters(word, names)


def test_format_round_trip_at_the_exponent_digit_limit():
    # parse(format(p)) == p holds for exponents the parser reads
    pres = parse_presentation("gens: x y\nrels: y x^-" + "9" * 4300 + "\n")
    assert parse_presentation(format_presentation(pres)) == pres
    # one digit more, from two merged powers, formats but does not parse back
    power = "x^" + "9" * 4300
    merged = format_presentation(parse_presentation(f"gens: x\nrels: {power} {power}\n"))
    with pytest.raises(ParseError) as excinfo:
        parse_presentation(merged)
    assert str(excinfo.value) == "line 2, column 9: exponent of 4301 digits is too long"


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


def test_parse_matches_frozen_messages():
    # Each case holds the exact str(ParseError), or the canonical text of the
    # parse; they cover every ParseError site, plus seeded randgen
    # presentations with one character deleted or duplicated.
    for case in PARSE_CASES:
        try:
            pres = parse_presentation(case["text"])
        except ParseError as exc:
            assert str(exc) == case["error"], case["text"][:80]
        else:
            assert case["error"] is None, case["text"][:80]
            assert format_presentation(pres) == case["parsed"], case["text"][:80]


# Characters an edited input may take at the edited place.
EDIT_CHARS = "()^,|-+#é\t\n x"


@st.composite
def parser_inputs(draw):
    """Presentation text, well formed or with one character deleted,
    duplicated or replaced after its ``rels:``."""
    if draw(st.booleans()):
        text = format_presentation(draw(presentations()))
    else:
        n = draw(st.integers(1, 4))
        rels = draw(st.lists(relator_texts(n), min_size=1, max_size=3))
        sep = draw(st.sampled_from([" | ", "\n"]))
        text = ("gens: " + " ".join(f"x{i}" for i in range(n)) + "\nrels: "
                + sep.join(t for t, _ in rels) + "\n")
    edit = draw(st.sampled_from(("none", "delete", "duplicate", "replace")))
    if edit == "none":
        return text
    i = draw(st.integers(text.index("rels:") + len("rels:"), len(text) - 1))
    if edit == "delete":
        return text[:i] + text[i + 1:]
    if edit == "duplicate":
        return text[:i] + text[i] + text[i:]
    return text[:i] + draw(st.sampled_from(EDIT_CHARS)) + text[i + 1:]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=500)
@given(parser_inputs())
def test_parse_matches_the_recursive_descent_reference(text):
    # the one-pass parser gives the old parser's presentation or its message
    assert _parse_outcome(parse_presentation, text) == \
        _parse_outcome(reference_parse, text)


@pytest.mark.parametrize("limit", [presentation.MAX_LETTERS, 6])
def test_parse_matches_the_reference_under_every_single_edit(monkeypatch, limit):
    # both header lines, the generator names, nested groups, commutators,
    # powers and both relator separators, with each character deleted,
    # duplicated and replaced in turn (a 'y' replaced by 'x' on the gens
    # line is a duplicate name); at a letter limit of 6, the length checks
    # fire at their factors, powers and groups
    monkeypatch.setattr(presentation, "MAX_LETTERS", limit)
    text = "gens: x y\nrels: ((x, y^-2)^3, (y x)^-1) x^+2 | (x,(y,x))\n  y^0 (x)\n"
    for i in range(len(text)):
        edits = [text[:i] + text[i + 1:], text[:i] + text[i] + text[i:]]
        edits += [text[:i] + c + text[i + 1:] for c in EDIT_CHARS]
        for edited in edits:
            assert _parse_outcome(parse_presentation, edited) == \
                _parse_outcome(reference_parse, edited), edited


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
