"""Free-group words and finite group presentations.

File format (one presentation per file, UTF-8, LF or CRLF line ends):

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
``#`` starts a comment running to the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Deepest parenthesis nesting accepted in a relator.  The word parser
# recurses three frames per level, so this keeps far below Python's
# default recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or semantic error in presentation text, with location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _normalize(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Merge adjacent letters on the same generator, dropping zero exponents."""
    out: list[tuple[int, int]] = []
    for gen, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            if merged == 0:
                out.pop()
            else:
                out[-1] = (out[-1][0], merged)
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A normalized free-group word: tuple of (generator index, exponent).

    Any sequence of pairs is accepted and normalized on construction, so
    two words are equal iff they are freely equal as products of
    generator powers.
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        norm = _normalize(self.letters)
        for gen, _ in norm:
            if not isinstance(gen, int) or gen < 0:
                raise ValueError(f"generator index must be a non-negative int, got {gen!r}")
        object.__setattr__(self, "letters", norm)

    @staticmethod
    def generator(index: int, exponent: int = 1) -> "Word":
        return Word(((index, exponent),))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, m: int) -> "Word":
        if m == 0:
            return Word()
        base = self if m > 0 else self.inverse()
        m = abs(m)
        half = base ** (m // 2)
        return half * half * base if m % 2 else half * half

    def conjugated_by(self, g: "Word") -> "Word":
        """Return g * self * g^-1."""
        return g * self * g.inverse()

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((g for g, _ in self.letters), default=-1)

    def __bool__(self) -> bool:
        return bool(self.letters)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names plus relator words."""

    generators: tuple[str, ...] = ()
    relators: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        seen = set()
        for name in self.generators:
            if not NAME_RE.fullmatch(name):
                raise ValueError(f"invalid generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
        for rel in self.relators:
            if rel.max_generator() >= self.n:
                raise ValueError(
                    f"relator uses generator index {rel.max_generator()}, "
                    f"but only {self.n} generators are declared"
                )

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def s(self) -> int:
        return len(self.relators)


def format_word(word: Word, names: tuple[str, ...]) -> str:
    if not word.letters:
        return "()"
    return " ".join(
        names[g] if e == 1 else f"{names[g]}^{e}" for g, e in word.letters
    )


def format_presentation(pres: Presentation) -> str:
    """Render in the input format; parse(format(p)) == p for normalized p."""
    gens = "gens:"
    if pres.generators:
        gens += " " + " ".join(pres.generators)
    rels = "rels:"
    if pres.relators:
        rels += " " + " | ".join(format_word(r, pres.generators) for r in pres.relators)
    return gens + "\n" + rels + "\n"


# --- parsing ---------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "int" | "sign" | "^" | "(" | ")" | "," | "|" | "nl"
    text: str
    line: int
    col: int


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _lex_region(lines: list[str], first_line: int, first_col: int) -> Iterator[_Token]:
    """Tokenize relator text from (first_line, first_col) to end of input.

    Line and column numbers are 1-based.
    """
    for idx in range(first_line - 1, len(lines)):
        raw = _strip_comment(lines[idx])
        pos = first_col - 1 if idx == first_line - 1 else 0
        while pos < len(raw):
            ch = raw[pos]
            if ch.isspace():
                pos += 1
                continue
            col = pos + 1
            if ch.isalpha():
                m = NAME_RE.match(raw, pos)
                assert m is not None
                yield _Token("name", m.group(), idx + 1, col)
                pos = m.end()
            elif ch.isdigit():
                m = re.compile(r"\d+").match(raw, pos)
                assert m is not None
                yield _Token("int", m.group(), idx + 1, col)
                pos = m.end()
            elif ch in "+-":
                yield _Token("sign", ch, idx + 1, col)
                pos += 1
            elif ch in "^(),|":
                yield _Token(ch, ch, idx + 1, col)
                pos += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", idx + 1, col)
        yield _Token("nl", "", idx + 1, len(raw) + 1)


class _WordParser:
    """Recursive-descent parser for one relator's token list."""

    def __init__(self, tokens: list[_Token], gen_index: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.gen_index = gen_index
        self.depth = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, kind: str | None = None, describe: str | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1]
            raise ParseError(
                f"unexpected end of relator (expected {describe or kind or 'more input'})",
                last.line, last.col + len(last.text),
            )
        if kind is not None and tok.kind != kind:
            raise ParseError(
                f"expected {describe or kind}, found {tok.text!r}", tok.line, tok.col
            )
        self.pos += 1
        return tok

    def parse_relator(self) -> Word:
        word = self.parse_word(closers=())
        if self._peek() is not None:
            tok = self._peek()
            assert tok is not None
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return word

    def parse_word(self, closers: tuple[str, ...]) -> Word:
        word = Word()
        while True:
            tok = self._peek()
            if tok is None or tok.kind in closers:
                return word
            word = word * self.parse_factor()

    def parse_factor(self) -> Word:
        atom = self.parse_atom()
        tok = self._peek()
        if tok is not None and tok.kind == "^":
            self._next()
            sign = 1
            tok = self._peek()
            if tok is not None and tok.kind == "sign":
                self._next()
                sign = -1 if tok.text == "-" else 1
            digits = self._next("int")
            atom = atom ** (sign * int(digits.text))
        return atom

    def parse_atom(self) -> Word:
        tok = self._next(describe="a generator or '('")
        if tok.kind == "name":
            index = self.gen_index.get(tok.text)
            if index is None:
                raise ParseError(f"unknown generator {tok.text!r}", tok.line, tok.col)
            return Word.generator(index)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 tok.line, tok.col)
            self.depth += 1
            first = self.parse_word(closers=(",", ")"))
            nxt = self._next(describe="',' or ')'")
            if nxt.kind == ",":
                second = self.parse_word(closers=(")",))
                self._next(")")
                first = first * second * first.inverse() * second.inverse()
            elif nxt.kind != ")":
                raise ParseError(f"expected ',' or ')', found {nxt.text!r}",
                                 nxt.line, nxt.col)
            self.depth -= 1
            return first
        raise ParseError(f"expected a generator or '(', found {tok.text!r}", tok.line, tok.col)


def _parse_gens_line(line: str, line_no: int) -> tuple[str, ...]:
    body = _strip_comment(line)
    head = body.lstrip()
    offset = len(body) - len(head)
    if not head.startswith("gens:"):
        raise ParseError("expected 'gens:' line", line_no, offset + 1)
    names: list[str] = []
    pos = offset + len("gens:")
    while pos < len(body):
        if body[pos].isspace():
            pos += 1
            continue
        m = NAME_RE.match(body, pos)
        if m is None or (m.end() < len(body) and not body[m.end()].isspace()):
            raise ParseError("invalid generator name", line_no, pos + 1)
        if m.group() in names:
            raise ParseError(f"duplicate generator {m.group()!r}", line_no, pos + 1)
        names.append(m.group())
        pos = m.end()
    return tuple(names)


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; raises ParseError with a 1-based location."""
    lines = text.splitlines()

    def meaningful(start: int) -> int | None:
        for i in range(start, len(lines)):
            if _strip_comment(lines[i]).strip():
                return i
        return None

    gi = meaningful(0)
    if gi is None:
        raise ParseError("missing 'gens:' line", max(1, len(lines)), 1)
    generators = _parse_gens_line(lines[gi], gi + 1)

    ri = meaningful(gi + 1)
    if ri is None:
        raise ParseError("missing 'rels:' line", len(lines), 1)
    rels_body = _strip_comment(lines[ri])
    rels_head = rels_body.lstrip()
    rels_offset = len(rels_body) - len(rels_head)
    if not rels_head.startswith("rels:"):
        raise ParseError("expected 'rels:' line", ri + 1, rels_offset + 1)

    gen_index = {name: i for i, name in enumerate(generators)}
    relators: list[Word] = []
    segment: list[_Token] = []
    pipe_pending: _Token | None = None

    def flush() -> None:
        nonlocal pipe_pending
        if segment:
            relators.append(_WordParser(list(segment), gen_index).parse_relator())
            segment.clear()
            pipe_pending = None

    start_col = rels_offset + len("rels:") + 1
    for tok in _lex_region(lines, ri + 1, start_col):
        if tok.kind == "|":
            if not segment:
                raise ParseError("expected a relator before '|'", tok.line, tok.col)
            flush()
            pipe_pending = tok
        elif tok.kind == "nl":
            flush()
        else:
            segment.append(tok)
    flush()
    if pipe_pending is not None:
        raise ParseError("expected a relator after '|'", pipe_pending.line, pipe_pending.col)

    if relators and not generators:
        raise ParseError("relators given but no generators declared", gi + 1, 1)
    return Presentation(generators, tuple(relators))
