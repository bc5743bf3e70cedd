"""Test-local independent computations used to freeze expected values,
among them the dense references ``magnus.expand`` and ``nilpotent.evaluate``
are checked against: the truncated series product and the group law;
``reference_parse``, the recursive-descent parser that
``parse_presentation`` replaced, and ``format_letters``, the
letter-by-letter text ``format_word`` is checked against."""

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb

from kahlercheck import presentation
from kahlercheck.gradedlie import abelianization_data
from kahlercheck.linalg import RationalMatrix, rank
from kahlercheck.presentation import (
    MAX_NESTING,
    NAME_RE,
    ParseError,
    Presentation,
    Word,
    _inverse,
    _join,
    _power,
    _strip_comment,
    format_presentation,
)

Rat = Fraction | int


@dataclass(frozen=True)
class TruncatedSeries2:
    """Linear and quadratic coefficients of a constant-free series."""

    n: int
    linear: tuple[Rat, ...]
    quadratic: tuple[tuple[Rat, ...], ...]

    def __post_init__(self) -> None:
        if len(self.linear) != self.n or len(self.quadratic) != self.n or any(
            len(row) != self.n for row in self.quadratic
        ):
            raise ValueError("coefficient shapes do not match n")

    @staticmethod
    def zero(n: int) -> "TruncatedSeries2":
        z = Fraction(0)
        return TruncatedSeries2(n, (z,) * n, ((z,) * n,) * n)

    def is_zero(self) -> bool:
        return not any(self.linear) and not any(any(row) for row in self.quadratic)

    def antisymmetrized(self) -> tuple[Rat, ...]:
        """Coefficients q_ij - q_ji on the pairs (i, j), i < j, in lex order."""
        q = self.quadratic
        return tuple(
            q[i][j] - q[j][i] for i in range(self.n) for j in range(i + 1, self.n)
        )


def truncated_mul(a: TruncatedSeries2, b: TruncatedSeries2,
                  a0: Rat = 1, b0: Rat = 1) -> TruncatedSeries2:
    """Degree-2 part of (a0 + a)(b0 + b) - a0*b0.

    a0 and b0 are the constant terms of the full series; images of group
    elements have constant term 1.
    """
    if a.n != b.n:
        raise ValueError(f"mixed generator counts {a.n} and {b.n}")
    a0 = Fraction(a0)
    b0 = Fraction(b0)
    linear = tuple(a0 * lb + b0 * la for la, lb in zip(a.linear, b.linear))
    quadratic = tuple(
        tuple(
            a0 * b.quadratic[i][j] + b0 * a.quadratic[i][j] + a.linear[i] * b.linear[j]
            for j in range(a.n)
        )
        for i in range(a.n)
    )
    return TruncatedSeries2(a.n, linear, quadratic)


def generator_power(index: int, m: int, n: int) -> TruncatedSeries2:
    """Expansion of (1 + X_index)^m - 1, valid for any integer m.

    The quadratic coefficient m(m-1)/2 is the binomial one, which also
    gives the geometric-series signs for negative m.
    """
    if not 0 <= index < n:
        raise ValueError(f"generator index {index} out of range for n={n}")
    z = Fraction(0)
    linear = tuple(Fraction(m) if i == index else z for i in range(n))
    coeff = Fraction(m * (m - 1), 2)
    quadratic = tuple(
        tuple(coeff if (i == index and j == index) else z for j in range(n))
        for i in range(n)
    )
    return TruncatedSeries2(n, linear, quadratic)


def dense_expand(letters, n):
    """The truncated series of a letter sequence: the fold of its generator powers."""
    acc = TruncatedSeries2.zero(n)
    for g, e in letters:
        acc = truncated_mul(acc, generator_power(g, e, n))
    return acc


def dense_vector(sparse, n):
    """The length-n tuple of a sparse {index: value} vector."""
    return tuple(sparse.get(i, 0) for i in range(n))


def exponent_matrix(ab):
    """The dense s x n exponent matrix of ``abelianization_data``'s expansions."""
    return RationalMatrix.from_rows([dense_vector(x.linear, ab.n) for x in ab.series], ab.n)


def left_kernel(ab):
    """A basis of the exponent matrix M's left kernel, as dense length-s
    tuples: the nullspace of M^T, one vector per free column of its
    Fraction RREF, with a 1 there and -rref[i][f] at pivot i."""
    reduced, pivots = gauss_jordan_rref(exponent_matrix(ab).transpose())
    basis = []
    for f in range(ab.s):
        if f in pivots:
            continue
        lam = [Fraction(0)] * ab.s
        lam[f] = Fraction(1)
        for row, p in zip(reduced.entries, pivots):
            lam[p] = -row[f]
        basis.append(tuple(lam))
    return basis


def wedge_pairs(n):
    """The pairs (i, j), i < j, in the package's wedge order: lexicographic."""
    return tuple(combinations(range(n), 2))


def wedge_dict(coefficients, n):
    """The nonzero coefficients on wedge_pairs(n), keyed by pair."""
    return {pair: c for pair, c in zip(wedge_pairs(n), coefficients) if c}


@dataclass(frozen=True)
class NilpotentElement:
    """A dense element (v, w) of the free two-step nilpotent group."""

    n: int
    abelian: tuple[Fraction, ...]      # length n
    commutator: tuple[Fraction, ...]   # length C(n,2), wedge_pairs order

    def __post_init__(self) -> None:
        if len(self.abelian) != self.n or len(self.commutator) != comb(self.n, 2):
            raise ValueError("component lengths do not match n")


def densify_element(pair, n):
    """The dense element of ``nilpotent.evaluate``'s sparse pair (v, 2w)."""
    v, w2 = pair
    return NilpotentElement(
        n,
        tuple(Fraction(v.get(i, 0)) for i in range(n)),
        tuple(Fraction(w2.get(p, 0), 2) for p in range(comb(n, 2))),
    )


def element_mul(a, b):
    """(v, w) * (v', w') = (v + v', w + w' + (1/2) v ^ v')."""
    if a.n != b.n:
        raise ValueError("mixed ranks")
    half_wedge = tuple(a.abelian[i] * b.abelian[j] - a.abelian[j] * b.abelian[i]
                       for i, j in wedge_pairs(a.n))
    return NilpotentElement(
        a.n,
        tuple(x + y for x, y in zip(a.abelian, b.abelian)),
        tuple(w1 + w2 + hw / 2
              for w1, w2, hw in zip(a.commutator, b.commutator, half_wedge)),
    )


def element_inverse(a):
    return NilpotentElement(a.n, tuple(-x for x in a.abelian),
                            tuple(-w for w in a.commutator))


def element_power(a, m):
    return NilpotentElement(a.n, tuple(m * x for x in a.abelian),
                            tuple(m * w for w in a.commutator))


def identity(n):
    z = Fraction(0)
    return NilpotentElement(n, (z,) * n, (z,) * comb(n, 2))


def generator(index, n):
    if not 0 <= index < n:
        raise ValueError(f"generator index {index} out of range for n={n}")
    z = Fraction(0)
    abelian = tuple(Fraction(1) if i == index else z for i in range(n))
    return NilpotentElement(n, abelian, (z,) * comb(n, 2))


def gauss_jordan_rref(matrix):
    """Reduced row-echelon form by Gauss-Jordan elimination over Fraction.

    Returns the reduced matrix, zero rows included, and its pivots.  The
    textbook elimination: the pivot row is divided by its pivot, then
    subtracted from every other row, all in Fraction arithmetic.  Pivoting
    takes the leftmost nonzero column and the first eligible row.
    """
    rows = [[Fraction(x) for x in row] for row in matrix.entries]
    n_rows, n_cols = len(rows), matrix.cols
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return RationalMatrix(tuple(tuple(row) for row in rows), n_cols), tuple(pivots)


def jointspan_dim2(pres):
    """Degree-2 dimension computed entirely inside the wedge square of Q^n.

    Spans the wedges of each relator's exponent vector with every
    coordinate vector together with the antisymmetrized quadratic parts
    of the ``left_kernel`` combinations, then takes the codimension.  No
    quotient pushforward is involved, and the expansions are the dense
    ``truncated_mul`` folds, so this is a genuinely different route from
    the pipeline's.
    """
    n = pres.n
    pairs = wedge_pairs(n)
    expansions = [dense_expand(r.letters, n) for r in pres.relators]
    rows = []
    for e in expansions:
        lin = e.linear
        for j in range(n):
            unit = [Fraction(0)] * n
            unit[j] = Fraction(1)
            rows.append(tuple(
                lin[a] * unit[b] - lin[b] * unit[a] for a, b in pairs
            ))
    ab = abelianization_data(pres)
    for lam in left_kernel(ab):
        combined = [
            [sum((lam[r] * expansions[r].quadratic[i][j]
                  for r in range(len(expansions))), Fraction(0))
             for j in range(n)]
            for i in range(n)
        ]
        rows.append(tuple(combined[i][j] - combined[j][i] for i, j in pairs))
    span = RationalMatrix.from_rows(rows, len(pairs))
    return comb(n, 2) - rank(span)


def dense_commutator_matrix(pres):
    """The degree-2 relation matrix by the dense formula B = C (Q - Q^T) C^T.

    One column per combination lambda of ``left_kernel``:
    the relators' dense quadratic coefficient matrices (the
    ``truncated_mul`` folds) are combined with lambda, antisymmetrized and
    pushed forward by two dense products with the quotient coordinates
    C, and B is read off on the wedge pairs.
    """
    ab = abelianization_data(pres)
    n, q = ab.n, ab.q
    coords = densify(ab.quotient, n)
    quadratic = [dense_expand(rel.letters, n).quadratic for rel in pres.relators]
    columns = []
    for lam in left_kernel(ab):
        combined = [
            [sum((lam[r] * quadratic[r][i][j] for r in range(ab.s)), Fraction(0))
             for j in range(n)]
            for i in range(n)
        ]
        anti = RationalMatrix.from_rows(
            [[combined[i][j] - combined[j][i] for j in range(n)] for i in range(n)],
            n,
        )
        pushed = coords @ anti @ coords.transpose()
        columns.append([pushed.entries[i][j] for i, j in wedge_pairs(q)])
    return RationalMatrix.from_rows(
        [[col[p] for col in columns] for p in range(comb(q, 2))], len(columns)
    )


def densify(rows, cols):
    """The dense matrix of sparse rows of (column, value) pairs."""
    dense = []
    for row in rows:
        entries = [Fraction(0)] * cols
        for c, x in row:
            entries[c] = x
        dense.append(entries)
    return RationalMatrix.from_rows(dense, cols)


def fraction_rows(red):
    """An ``Rref``'s integer rows, each divided by its pivot entry: the
    sparse rows of the Fraction RREF."""
    return tuple(tuple((c, Fraction(x, row[0][1])) for c, x in row) for row in red.rows)


def oracle_dict(doc):
    """The schema-1 report document, with the differential written out dense
    and the presentation formatted here.

    ``json.dumps(oracle_dict(doc), indent=2, ensure_ascii=False) + "\\n"``
    is the reference layout of ``analyze --json``.
    """
    differential = densify(doc.model.differential, comb(doc.model.dim_v1, 2))
    return {
        "schema": 1,
        "presentation": format_presentation(doc.presentation),
        "n": doc.n,
        "s": doc.s,
        "k": doc.k,
        "q": doc.q,
        "dim_ker_d0": doc.dim_kernel,
        "dim_ker_d1": doc.dim_kernel_deg2,
        "dim_W": doc.dim_relations,
        "dim_gamma2_gamma3": doc.dim2,
        "grl_free": doc.free_two_step,
        "surface_genus": doc.surface_genus,
        "m_max": doc.m_max,
        "excluded_genera": list(doc.excluded_genera),
        "minimal_model": {
            "dimV1": doc.model.dim_v1,
            "dimV2": doc.model.dim_v2,
            "differential": [[str(x) for x in row] for row in differential.entries],
        },
        "verdicts": [
            {"code": v.code.value, "theorem": v.theorem, "detail": v.detail}
            for v in doc.verdicts
        ],
        "overall": doc.overall.value,
    }


def coordinates(basis, vector):
    """An ambient vector's coordinates in a quotient basis, by the dense product."""
    column = RationalMatrix.from_rows([[x] for x in vector], 1)
    return tuple(row[0] for row in (densify(basis, len(vector)) @ column).entries)


# --- the recursive-descent parser, as it was before the one-pass parser ---
#
# ``reference_parse`` tokenizes each line into (kind, text, line, column)
# tuples and parses each relator by recursion, one method per grammar
# rule.  It shares the unbounded word builders ``_join`` and ``_power``
# with the package, but counts letters itself: a product's after it is
# built, a power's before (``power_length``).  It keeps its own header
# and gens-line code, a copy of the package's before the gens line went
# straight into the name table, and builds its result through the
# checking ``Presentation`` constructor.

_REF_TOKEN_RE = re.compile(rf"({NAME_RE.pattern})|([0-9]+)|([-+])|([\^(),|])|(\S)")
_REF_KINDS = (None, "name", "int", "sign", None, "other")   # by group; None: the text


class _RefWordParser:
    def __init__(self, tokens, gen_index):
        self.tokens = tokens
        self.pos = 0
        self.gen_index = gen_index
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, kind=None, describe=None):
        tok = self._peek()
        if tok is None:
            _, text, line, col = self.tokens[-1]
            raise ParseError(
                f"unexpected end of relator (expected {describe or kind or 'more input'})",
                line, col + len(text),
            )
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {describe or kind}, found {tok[1]!r}",
                             tok[2], tok[3])
        self.pos += 1
        return tok

    def parse_relator(self):
        letters = self.parse_word(closers=())
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2], tok[3])
        return Word._normalized(tuple(letters))

    def parse_word(self, closers):
        letters = []
        while True:
            tok = self._peek()
            if tok is None or tok[0] in closers:
                return letters
            _join(letters, self.parse_factor())
            _ref_check_length(len(letters), tok)

    def parse_factor(self):
        atom = self.parse_atom()
        caret = self._peek()
        if caret is not None and caret[0] == "^":
            self.pos += 1
            sign = 1
            tok = self._peek()
            if tok is not None and tok[0] == "sign":
                self.pos += 1
                sign = -1 if tok[1] == "-" else 1
            _, digits, line, col = self._next("int")
            try:
                m = sign * int(digits)
            except ValueError:
                raise ParseError(f"exponent of {len(digits)} digits is too long",
                                 line, col) from None
            _ref_check_length(power_length(atom, m), caret)
            atom = _power(atom, m)
        return atom

    def parse_atom(self):
        tok = self._next(describe="a generator or '('")
        kind, text, line, col = tok
        if kind == "name":
            index = self.gen_index.get(text)
            if index is None:
                raise ParseError(f"unknown generator {text!r}", line, col)
            return ((index, 1),)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 line, col)
            self.depth += 1
            first = self.parse_word(closers=(",", ")"))
            nxt = self._next(describe="',' or ')'")
            if nxt[0] == ",":
                second = self.parse_word(closers=(")",))
                self._next(")")
                first = self._product(
                    (first, second, _inverse(first), _inverse(second)), tok)
            elif nxt[0] != ")":
                raise ParseError(f"expected ',' or ')', found {nxt[1]!r}",
                                 nxt[2], nxt[3])
            self.depth -= 1
            return first
        raise ParseError(f"expected a generator or '(', found {text!r}", line, col)

    @staticmethod
    def _product(factors, tok):
        word = list(factors[0])
        for factor in factors[1:]:
            _join(word, factor)
            _ref_check_length(len(word), tok)
        return word


def power_length(a, m):
    """Letters in a ** m for normalized a, computed without building it.

    Write a = u c u^-1 with c cyclically reduced.  Then
    a ** m = u c^m u^-1, and the copies of c only merge at their
    junctions when c starts and ends on the same generator.
    """
    if not m or not a:
        return 0
    k, last = 0, len(a) - 1
    while a[k] == (a[last - k][0], -a[last - k][1]):
        k += 1
    core = len(a) - 2 * k
    if core == 1:
        return 2 * k + 1
    m = abs(m)
    merges = m - 1 if a[k][0] == a[last - k][0] else 0
    return 2 * k + m * core - merges


def format_letters(word, names):
    """The text of a word, one letter after another; each exponent is
    written through ``Decimal``, which has no digit limit."""
    if not word.letters:
        return "()"
    return " ".join(names[g] if e == 1 else f"{names[g]}^{Decimal(e)}"
                    for g, e in word.letters)


def _ref_check_length(letters, tok):
    limit = presentation.MAX_LETTERS
    if letters > limit:
        raise ParseError(f"relator longer than {limit} letters", tok[2], tok[3])


def _ref_parse_gens_line(line, line_no):
    body = _strip_comment(line)
    head = body.lstrip()
    offset = len(body) - len(head)
    if not head.startswith("gens:"):
        raise ParseError("expected 'gens:' line", line_no, offset + 1)
    names = []
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


def reference_parse(text: str) -> Presentation:
    """``parse_presentation`` as a tokenizer of located tuples and a
    recursive-descent parser; the same result or the same ParseError."""
    lines = text.splitlines()

    def meaningful(start):
        for i in range(start, len(lines)):
            if _strip_comment(lines[i]).strip():
                return i
        return None

    gi = meaningful(0)
    if gi is None:
        raise ParseError("missing 'gens:' line", max(1, len(lines)), 1)
    generators = _ref_parse_gens_line(lines[gi], gi + 1)

    ri = meaningful(gi + 1)
    if ri is None:
        raise ParseError("missing 'rels:' line", len(lines), 1)
    rels_body = _strip_comment(lines[ri])
    rels_head = rels_body.lstrip()
    rels_offset = len(rels_body) - len(rels_head)
    if not rels_head.startswith("rels:"):
        raise ParseError("expected 'rels:' line", ri + 1, rels_offset + 1)

    gen_index = {name: i for i, name in enumerate(generators)}
    relators = []
    segment = []
    pipe_pending = None

    def flush():
        nonlocal pipe_pending
        if segment:
            relators.append(_RefWordParser(segment[:], gen_index).parse_relator())
            segment.clear()
            pipe_pending = None

    start = rels_offset + len("rels:")
    for idx in range(ri, len(lines)):
        raw = _strip_comment(lines[idx])
        for match in _REF_TOKEN_RE.finditer(raw, start):
            text = match.group()
            tok = (_REF_KINDS[match.lastindex] or text, text, idx + 1, match.start() + 1)
            if text == "|":
                if not segment:
                    raise ParseError("expected a relator before '|'", idx + 1, tok[3])
                flush()
                pipe_pending = tok
            elif tok[0] == "other":
                raise ParseError(f"unexpected character {text!r}", idx + 1, tok[3])
            else:
                segment.append(tok)
        flush()
        start = 0
    if pipe_pending is not None:
        raise ParseError("expected a relator after '|'", pipe_pending[2], pipe_pending[3])

    if relators and not generators:
        raise ParseError("relators given but no generators declared", gi + 1, 1)
    return Presentation(generators, tuple(relators))
