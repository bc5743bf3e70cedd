"""Free-group words and finite group presentations.

File format (one presentation per file, UTF-8; lines end as in
``str.splitlines``: at LF, CRLF, a lone CR, VT, FF, FS, GS, RS, NEL,
U+2028 or U+2029):

    gens: a b c          # generator names: [A-Za-z][A-Za-z0-9_]*
    rels: a b a^-1 b^-1 | (a, c)
          (b c, a)^2

The ``gens:`` line lists generator names; it may list none (the trivial
group needs no generators).  The ``rels:`` line is followed by relators
separated by ``|`` or by newlines.  A relator is a whitespace-separated
product of factors.  Each factor is an atom with an optional integer
power ``^k``.  An atom is a generator name, a parenthesized word
``( w )``, or a commutator ``( u , v )`` which expands to
``u v u^-1 v^-1``.  ``(w)^0`` and ``()`` denote the empty word.
``#`` starts a comment running to the end of the line.  Names and
exponents are ASCII; any other character in a relator that is not
whitespace is an error at its line and column.

A relator may expand to at most ``MAX_LETTERS`` letters (maximal powers
of one generator) after free reduction.  The two word builders enforce
that bound themselves: ``_join`` and ``_power`` each count the letters
of what they would build, and refuse before building past it.

Every word the parser builds, down to each factor, is kept normalized:
no two adjacent letters share a generator and no exponent is zero.  So
joining two words can merge or cancel letters only at the junction
(``_join``), and a relator is never normalized a second time.  ``Word``
reduces the letters it is given with the same ``_join``, one at a time.

A word is read after parsing through its root split u c^m u^-1, with c
not a proper power (``Word.root``): the letters of u and c, and m.  They
hold every generator of the word, so ``Word.max_generator``, the range
check of ``Presentation`` and of both evaluators, reads only them.

The ``gens:`` line is read straight into the relators' name table,
``atoms`` (name to its one-letter word): each whitespace-separated name
is entered there once, so a duplicate is found by one lookup, and the
generator tuple is the table's keys in order.  One reader (``_header``)
finds both the ``gens:`` and the ``rels:`` line.

Each line of relators is split into token texts by one ``findall``, and
each relator is read in one pass over its tokens (``_relator``), the
open groups waiting on an explicit stack.  No token carries its column:
an error names its token's index in the line, and only then is that
line tokenized again to locate it.
"""

from __future__ import annotations

import itertools
import re
from decimal import Decimal
from math import gcd, isqrt
from typing import Iterable, Sequence

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Deepest parenthesis nesting accepted in a relator.  The parser does
# not recurse: each open group is one entry on its stack, and this bounds
# that stack.  It is part of the file format: a relator nested deeper is
# an error at its first '(' too deep, whatever the memory.
MAX_NESTING = 100

# Longest accepted relator, in letters of its normalized word.  Nested
# commutators double the length per level and powers multiply it, so
# the bound keeps parsing and expansion within time and memory.
MAX_LETTERS = 1_000_000

_BLOCK = 4096   # letters compared at a time when a period is checked


class ParseError(ValueError):
    """Syntax or semantic error in presentation text, with location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# Normalized words as letter sequences, shared by ``Word`` and the parser.
_Letters = Sequence[tuple[int, int]]


def _inverse(a: _Letters) -> list[tuple[int, int]]:
    return [(g, -e) for g, e in reversed(a)]


def _join(out: list[tuple[int, int]], b: _Letters, limit: int | None = None) -> bool:
    """Append the normalized word b to the normalized word out, in place.

    Only the letters at the junction can cancel, pairwise, until one pair
    merges into a nonzero power or a side runs out; the rest of b is then
    copied in bulk, so a join costs the cancelled letters, not len(b).
    Returns False, with the rest of b not copied, when the product has
    more than ``limit`` letters.
    """
    j = 0
    while out and j < len(b) and out[-1][0] == b[j][0]:
        gen, exp = b[j]
        j += 1
        merged = out[-1][1] + exp
        if merged:
            out[-1] = (gen, merged)
            break
        out.pop()
    if limit is not None and len(out) + len(b) - j > limit:
        return False
    out.extend(b[j:] if j else b)
    return True


def _conjugator_length(a: _Letters) -> int:
    """Length k of u in a = u c u^-1 with c cyclically reduced (a nonempty)."""
    k, last = 0, len(a) - 1
    while a[k][0] == a[last - k][0] and a[k][1] == -a[last - k][1]:
        k += 1
    return k


def _root(letters: _Letters) -> tuple[int, int, int]:
    """Split a normalized word as u c^m u^-1, with c not a proper power.

    Returns (k, p, m): u is letters[:k] and c is letters[k:k + p].  The
    core between u and u^-1 is m copies of c, so m divides g, the gcd of
    its length and the number of times its first letter occurs in it.
    By the Fine-Wilf periodicity lemma every count of copies the core
    splits into divides the largest, so g is m when it is such a count
    (``_certified``), as when g is 1, and m is 1 when g is a prime that
    is not.  Otherwise each distinct letter of the core is coded as one
    character (at most ``MAX_LETTERS``, fewer than 0x110000), and p is
    the first place the coded core occurs again in itself doubled, a
    C-level, linear search; a wrong split it finds raises instead of
    reaching an evaluator.  A word of fewer than 4
    letters is (0, len, 1).
    """
    n = len(letters)
    if n < 4:
        return 0, n, 1
    k = _conjugator_length(letters)
    core = letters[k:n - k]
    m = gcd(core.count(core[0]), len(core))   # g, the candidate
    p = len(core) // m
    del core   # not held while a split is certified
    if m == 1 or _certified(letters, k, p, m):
        return k, p, m
    if all(m % d for d in range(2, isqrt(m) + 1)):   # g is prime: the true m is 1
        return k, n - 2 * k, 1
    codes = {letter: chr(i) for i, letter in enumerate(dict.fromkeys(letters[k:n - k]))}
    s = "".join(map(codes.__getitem__, letters[k:n - k]))
    del codes
    p = (s + s).find(s, 1)
    m = len(s) // p
    if not _certified(letters, k, p, m):
        raise ValueError(f"({k}, {p}, {m}) is not a root split of the word")
    return k, p, m


def _certified(letters: _Letters, k: int, p: int, m: int) -> bool:
    """Whether letters is u c^m u^-1 with u = letters[:k] and c = letters[k:k + p].

    The core between u and u^-1 has m * p letters and period p, so it is
    m copies of its first p letters.  No copy is built: the period is
    checked ``_BLOCK`` letters at a time.  An explicit check, so it holds
    under ``python -O`` as well.
    """
    end = len(letters) - k
    if m < 1 or p * m != end - k or letters[end:] != tuple(_inverse(letters[:k])):
        return False
    for i in range(k + p, end, _BLOCK):
        if letters[i:min(i + _BLOCK, end)] != letters[i - p:min(i + _BLOCK, end) - p]:
            return False
    return True


def _power(a: _Letters, m: int,
           limit: int | None = None) -> tuple[tuple[int, int], ...] | None:
    """a ** m for normalized a, built as u c^m u^-1 without repeated products,
    or None, with nothing built, when it has more than ``limit`` letters
    (a positive bound: a power of one letter is one letter or none).

    The copies of c meet only at their junctions, and merge there just
    when c starts and ends on the same generator: c = (g, e) mid (g, f)
    gives (g, e) mid [(g, e + f) mid]^(m - 1) (g, f), where e + f is not
    0 since c is cyclically reduced.  Otherwise u, the copies of c and
    u^-1 are already normalized side by side and are concatenated as
    they are.
    """
    if not m or not a:
        return ()
    if len(a) == 1:
        (gen, exp), = a
        return ((gen, exp * m),)
    n, reps = len(a), abs(m)
    k = _conjugator_length(a)
    merges = a[k][0] == a[n - 1 - k][0]   # also for a core of one letter
    if limit is not None and 2 * k + reps * (n - 2 * k) - (reps - 1) * merges > limit:
        return None
    core = a[k:n - k] if m > 0 else _inverse(a[k:n - k])
    if len(core) == 1:
        (gen, exp), = core
        powered = [(gen, exp * reps)]
    elif merges:
        (gen, e), mid, (_, f) = core[0], core[1:-1], core[-1]
        powered = [core[0], *mid, *([(gen, e + f), *mid] * (reps - 1)), core[-1]]
    else:
        powered = list(core) * reps
    return (*a[:k], *powered, *a[n - k:])


class Record:
    """Base of the immutable slotted records: fields are the ``__slots__``
    whose names do not start with ``_``.

    A subclass sets its fields once in ``__init__`` through
    ``object.__setattr__`` and takes them positionally in slot order.
    Assignment and deletion raise ``AttributeError``; equality (between
    records of one type), hash, ``repr``, copy and pickle follow the
    fields.  A slot named ``_...`` is not a field: it holds a value
    derived from the fields, which none of these read.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Word(Record):
    """A normalized free-group word: tuple of (generator index, exponent).

    Any sequence of pairs is accepted and normalized on construction
    (each nonzero letter joined to the word with ``_join``), so two words
    are equal iff they are freely equal as products of generator powers.
    Words are immutable.  The slot ``_split`` keeps the word's root split
    once ``root`` has found it; it is not a field.
    """

    __slots__ = ("letters", "_split")

    def __init__(self, letters: Iterable[tuple[int, int]] = ()) -> None:
        reduced: list[tuple[int, int]] = []
        for gen, exp in letters:   # bool is an int subclass, but not a number here
            if type(gen) is not int or gen < 0:
                raise ValueError(f"generator index must be a non-negative int, got {gen!r}")
            if type(exp) is not int:
                raise ValueError(f"exponent must be an int, got {exp!r}")
            if exp:
                _join(reduced, ((gen, exp),))
        object.__setattr__(self, "letters", tuple(reduced))
        object.__setattr__(self, "_split", None)

    @classmethod
    def _normalized(cls, letters: tuple[tuple[int, int], ...]) -> "Word":
        """A word on letters that are already normalized, taken as they are."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        object.__setattr__(word, "_split", None)
        return word

    def root(self) -> tuple[_Letters, _Letters, int]:
        """The certified split of the word as u c^m u^-1 (``_root``): the
        letters of u and of c, and m; found on the first call and kept for
        the next.  u^-1 is the word's last len(u) letters."""
        split = self._split
        if split is None:
            letters = self.letters
            k, p, m = _root(letters)
            split = letters[:k], letters[k:k + p], m
            object.__setattr__(self, "_split", split)
        return split

    @staticmethod
    def generator(index: int, exponent: int = 1) -> "Word":
        return Word(((index, exponent),))

    def __mul__(self, other: "Word") -> "Word":
        letters = list(self.letters)
        _join(letters, other.letters)
        return Word._normalized(tuple(letters))

    def inverse(self) -> "Word":
        return Word._normalized(tuple(_inverse(self.letters)))

    def __pow__(self, m: int) -> "Word":
        """self ** m, built as u c^m u^-1 (see ``_power``)."""
        return Word._normalized(_power(self.letters, m))

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word: u and c
        of its root hold every generator, so only they are read."""
        u, c, _ = self.root()
        return max(itertools.chain(u, c), default=(-1, 0))[0]

    def __bool__(self) -> bool:
        return bool(self.letters)


class Presentation(Record):
    """A finite presentation: generator names plus relator words; immutable."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Iterable[str] = (),
                 relators: Iterable[Word] = ()) -> None:
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "relators", tuple(relators))
        seen = set()
        for name in self.generators:
            if not NAME_RE.fullmatch(name):
                raise ValueError(f"invalid generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
        for rel in self.relators:
            top = rel.max_generator()
            if top >= self.n:
                raise ValueError(f"relator uses generator index {top}, "
                                 f"but only {self.n} generators are declared")

    @classmethod
    def _parsed(cls, generators: tuple[str, ...],
                relators: tuple[Word, ...]) -> "Presentation":
        """A presentation whose names are valid and distinct and whose
        relators use only their indices, taken as it is."""
        pres = object.__new__(cls)
        object.__setattr__(pres, "generators", generators)
        object.__setattr__(pres, "relators", relators)
        return pres

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def s(self) -> int:
        return len(self.relators)


def format_word(word: Word, names: tuple[str, ...]) -> str:
    """The word's letters in the input format: split as u c^m u^-1
    (``Word.root``), u, c and u^-1 are formatted once and c's text repeated."""
    if not word:
        return "()"
    u, c, m = word.root()
    text = " ".join([_letters_text(c, names)] * m)
    if u:
        u_inverse = word.letters[-len(u):]
        text = f"{_letters_text(u, names)} {text} {_letters_text(u_inverse, names)}"
    return text


def _letters_text(letters: _Letters, names: tuple[str, ...]) -> str:
    return " ".join(names[g] if e == 1 else f"{names[g]}^{_digits(e)}" for g, e in letters)


def _digits(n: int) -> str:
    """str(n), in full even past the interpreter's int-to-str digit limit.

    The parser reads exponents up to that limit, and merging adjacent
    powers can add a digit.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_presentation(pres: Presentation) -> str:
    """Render in the input format; parse(format(p)) == p for normalized p
    whose exponents are within the parser's digit limit (4300 by default).
    A merged power past it, as in x^N x^N with N of 4300 digits, prints in
    full and does not parse back."""
    gens = "gens:"
    if pres.generators:
        gens += " " + " ".join(pres.generators)
    rels = "rels:"
    if pres.relators:
        rels += " " + " | ".join(format_word(r, pres.generators) for r in pres.relators)
    return gens + "\n" + rels + "\n"


# --- parsing ---------------------------------------------------------------

# One token per match, as ``findall`` lists the texts: a name, the digits
# of an exponent, a sign, a punctuation character ("^", "(", ")", ",",
# "|"), or any other non-space character, which is an error.  Names and
# digits are ASCII only.
_TOKEN_RE = re.compile(rf"{NAME_RE.pattern}|[0-9]+|[-+]|[\^(),|]|\S")

# The texts of the one-character tokens that are not errors.
_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                   "0123456789-+^(),|")

# A whitespace-separated run of the ``gens:`` line: one generator name.
_RUN_RE = re.compile(r"\S+")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


class _TokenError(Exception):
    """A parse error at one token of a line: ``(message, index, past)``.

    ``index`` counts the line's tokens from 0; the error is located at that
    token, or just past it when ``past`` is true.  ``parse_presentation``
    turns it into a ``ParseError`` with a line and column (``_located``).
    """


def _too_long(index: int) -> _TokenError:
    return _TokenError(f"relator longer than {MAX_LETTERS} letters", index, False)


def _relator(toks: list[str], a: int, b: int, atoms: dict[str, _Letters]) -> Word:
    """The relator written by the tokens ``toks[a:b]`` (a < b), in one pass.

    ``atoms`` maps each generator name to its one-letter word, made once
    per presentation, so the letters read as names share their tuples.

    Each factor is joined to the word it belongs to as soon as it is
    complete, so every word is reduced as it is read.  An open ``(`` waits
    on ``stack`` as (the letters outside it, the word before its ``,`` or
    None, the index of the ``(``).  A power the builder refuses past the
    letter limit is located at its ``^``, a product at its factor's first
    token, and each step of a commutator's product at its ``(``.
    """
    limit = MAX_LETTERS
    letters: list[tuple[int, int]] = []
    stack: list[tuple[list[tuple[int, int]], list[tuple[int, int]] | None, int]] = []
    i = a
    while i < b:
        t = toks[i]
        factor_at = i
        if t in atoms:
            atom = atoms[t]
        elif t == "(":
            if len(stack) == MAX_NESTING:
                raise _TokenError(f"parentheses nested deeper than {MAX_NESTING}", i, False)
            stack.append((letters, None, i))
            letters = []
            i += 1
            continue
        elif t == "," and stack and stack[-1][1] is None:
            outer, _, opened = stack[-1]
            stack[-1] = (outer, letters, opened)
            letters = []
            i += 1
            continue
        elif t == ")" and stack:
            outer, first, factor_at = stack.pop()
            if first is None:
                atom = letters
            else:   # the commutator (first, letters), each product step checked
                atom = first
                for factor in (letters, _inverse(first), _inverse(letters)):
                    if not _join(atom, factor, limit):
                        raise _too_long(factor_at)
            letters = outer
        elif t[0].isalpha():
            raise _TokenError(f"unknown generator {t!r}", i, False)
        else:
            raise _TokenError(f"expected a generator or '(', found {t!r}", i, False)
        i += 1
        if i < b and toks[i] == "^":
            caret = i
            i += 1
            negative = False
            if i < b and (toks[i] == "-" or toks[i] == "+"):
                negative = toks[i] == "-"
                i += 1
            if i == b:
                raise _TokenError("unexpected end of relator (expected int)", b - 1, True)
            digits = toks[i]
            if not digits[0].isdigit():
                raise _TokenError(f"expected int, found {digits!r}", i, False)
            try:
                m = int(digits)
            except ValueError:   # longer than the interpreter reads as an int
                raise _TokenError(f"exponent of {len(digits)} digits is too long",
                                  i, False) from None
            if negative:
                m = -m
            i += 1
            atom = _power(atom, m, limit)
            if atom is None:
                raise _too_long(caret)
        if not _join(letters, atom, limit):
            raise _too_long(factor_at)
    if stack:
        expected = "',' or ')'" if stack[-1][1] is None else ")"
        raise _TokenError(f"unexpected end of relator (expected {expected})", b - 1, True)
    return Word._normalized(tuple(letters))


def _header(lines: list[str], start: int, key: str) -> tuple[int, str, int]:
    """The first line from ``start`` that is not blank or only a comment,
    which must begin with ``key``: its index, its text without the
    comment, and the offset just past ``key``."""
    for i in range(start, len(lines)):
        body = _strip_comment(lines[i])
        head = body.lstrip()
        if head:
            offset = len(body) - len(head)
            if not head.startswith(key):
                raise ParseError(f"expected '{key}' line", i + 1, offset + 1)
            return i, body, offset + len(key)
    raise ParseError(f"missing '{key}' line", max(1, len(lines)), 1)


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; raises ParseError with a 1-based location."""
    lines = text.splitlines()
    gi, body, pos = _header(lines, 0, "gens:")
    atoms: dict[str, _Letters] = {}
    for run in _RUN_RE.finditer(body, pos):
        name = run.group()
        if not NAME_RE.fullmatch(name):
            raise ParseError("invalid generator name", gi + 1, run.start() + 1)
        if name in atoms:
            raise ParseError(f"duplicate generator {name!r}", gi + 1, run.start() + 1)
        atoms[name] = ((len(atoms), 1),)
    generators = tuple(atoms)

    ri, _, start = _header(lines, gi + 1, "rels:")
    relators: list[Word] = []
    pipe_pending: tuple[int, int, int] | None = None   # (line index, start, token index)
    for idx in range(ri, len(lines)):
        toks = _TOKEN_RE.findall(_strip_comment(lines[idx]), start)
        try:
            a = 0
            for i, t in enumerate(toks):
                if t == "|":
                    if a == i:
                        raise _TokenError("expected a relator before '|'", i, False)
                    relators.append(_relator(toks, a, i, atoms))
                    a = i + 1
                    pipe_pending = (idx, start, i)
                elif len(t) == 1 and t not in _CHARS:
                    raise _TokenError(f"unexpected character {t!r}", i, False)
            if a < len(toks):
                relators.append(_relator(toks, a, len(toks), atoms))
                pipe_pending = None
        except _TokenError as exc:
            raise _located(lines, idx, start, *exc.args) from None
        start = 0
    if pipe_pending is not None:
        idx, start, i = pipe_pending
        raise _located(lines, idx, start, "expected a relator after '|'", i, False)

    if relators and not generators:
        raise ParseError("relators given but no generators declared", gi + 1, 1)
    return Presentation._parsed(generators, tuple(relators))


def _located(lines: list[str], idx: int, start: int,
             message: str, index: int, past: bool) -> ParseError:
    """The error at token ``index`` of line ``idx`` (tokenized from
    ``start``), or just past it, as a ParseError: the line is tokenized
    again to find the token's column."""
    tokens = _TOKEN_RE.finditer(_strip_comment(lines[idx]), start)
    match = next(itertools.islice(tokens, index, None))
    return ParseError(message, idx + 1, (match.end() if past else match.start()) + 1)
