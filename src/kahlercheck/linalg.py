"""Exact linear algebra over the rationals: one sparse elimination.

Every row reduction runs through ``_eliminate``, fraction-free over int
on sparse integer rows: rows are combined by integer row operations and
divided by the gcd of their entries.  The elimination runs forward, to
echelon rows; ``_normalized`` then reduces them in one Jordan pass from
the last pivot back, to primitive integer rows with positive pivot
entries.  A row costs its nonzeros, however wide the space.  This form
of the RREF of a row space is unique: in any row order, the rows of
Gauss-Jordan elimination over Fraction, each times its pivot entry, so
reports are reproducible byte for byte.  Only the coordinates
``Rref.quotient_rows`` yields are Fractions.

The pipeline and the ``--oracle`` route pass integer rows only, to
``rref_rows``, ``_eliminate`` and ``alternating_rank``.  The dense
``RationalMatrix`` (``from_rows``, ``rows``, ``transpose``,
``__matmul__``), ``rref``, ``rank``, ``nullspace``, ``quotient_basis``
(the ``Rref`` of relation rows of a checked width) and
``row_space_contains`` have no caller outside this module: the
benchmark's tracer wraps them by name, so they stay while it does, and
tests use them.  They take Fraction entries, so ``rref`` scales its rows
to integers.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class RationalMatrix(NamedTuple):
    """Immutable row-major matrix of Fractions; may have zero rows.

    ``from_rows`` is the checked constructor: it rejects ragged rows.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    @staticmethod
    def from_rows(rows: Iterable[Sequence[Fraction | int]],
                  cols: int | None = None) -> "RationalMatrix":
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return RationalMatrix(data, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def transpose(self) -> "RationalMatrix":
        columns = tuple(tuple(row[j] for row in self.entries) for j in range(self.cols))
        return RationalMatrix(columns, self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = tuple(
            tuple(sum((row[k] * other.entries[k][j] for k in range(self.cols)), Fraction(0))
                  for j in range(other.cols))
            for row in self.entries)
        return RationalMatrix(out, other.cols)


# A sparse integer row: its nonzero entries as (column, value), in column order.
SparseRow = tuple[tuple[int, int], ...]


class Rref(NamedTuple):
    """Reduced row-echelon form of a row space, as its nonzero rows.

    Row i is the RREF row times d_i > 0, its leftmost entry, at pivots[i]:
    a primitive integer row, zero at every other pivot column.  This form
    is canonical, so equal Rrefs are equal row spaces.
    """

    rows: tuple[SparseRow, ...]
    pivots: tuple[int, ...]
    cols: int

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def quotient_rows(self) -> Iterator[tuple[tuple[int, Fraction], ...]]:
        """The coordinates on the ambient space modulo the row space.

        The chosen quotient basis is the classes of the ambient basis
        vectors at the non-pivot columns.  This yields, per basis class,
        the sparse row of the (cols - rank) x cols coordinate matrix that
        sends an ambient vector to its coordinates in that basis; the
        coordinates kill the relation rows exactly.  The row of free
        column f is 1 at f and -x / d_i at each pivot P[i], where row i
        holds x at f and d_i at P[i]; a free column that no row touches
        is a unit row.  These rows, the pipeline's only Fractions, are
        made only when iterated.
        """
        touched: dict[int, list[tuple[int, Fraction]]] = {}
        for (p, d), *rest in self.rows:   # the pivot entry leads each row
            for f, x in rest:
                touched.setdefault(f, []).append((p, Fraction(-x, d)))
        pivots, one = set(self.pivots), Fraction(1)
        for f in range(self.cols):
            if f not in pivots:
                yield tuple(sorted([*touched.get(f, ()), (f, one)]))


def rref(matrix: RationalMatrix) -> Rref:
    """Reduced row-echelon form of a dense matrix's rows."""
    return rref_rows((_integer_row(dict(enumerate(row))) for row in matrix.entries),
                     matrix.cols)


def rref_rows(rows: Iterable[dict[int, int]], cols: int) -> Rref:
    """RREF of the part of a span that vanishes at every negative column.

    The rows are sparse integer rows, column -> nonzero int; columns may
    be negative.  The echelon rows that pivot at column 0 or right of it
    hold no negative column, so they are the echelon rows of that part,
    and only they are reduced.  The rows are read, never changed.
    """
    reduced = _eliminate(rows)
    return _normalized({p: row for p, row in reduced.items() if p >= 0}, cols)


def _integer_row(row: Mapping[int, Fraction | int]) -> dict[int, int]:
    """The nonzero entries times the lcm of their denominators, as ints.

    Only the dense matrices ``rref`` takes hold Fractions, so only it
    makes its rows with this.
    """
    den = lcm(*[x.denominator for x in row.values()])
    return {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}


def _eliminate(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Forward elimination of sparse integer rows; pivot column -> row.

    Each incoming row is cleared at the pivot columns it hits, leftmost
    first; what is left of it, if anything, becomes the pivot row of its
    leftmost column.  No earlier row is rewritten, so a row costs the
    pivots it meets, not all of them.  Every pivot row has its leftmost
    nonzero at its pivot; it is neither reduced at the later pivots nor
    normalized.
    """
    reduced: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            p = min(row)
            if p not in reduced:
                reduced[p] = row
                break
            row = _cleared(row, p, reduced[p])
    return reduced


def _cleared(row: dict[int, int], c: int, prow: dict[int, int]) -> dict[int, int]:
    """The integer combination of row and prow that is zero at column c,
    divided by the gcd of its entries."""
    g = gcd(prow[c], row[c])
    pg, ag = prow[c] // g, row[c] // g
    out = {k: pg * x for k, x in row.items()}
    for k, y in prow.items():
        z = out.get(k, 0) - ag * y
        if z:
            out[k] = z
        else:
            del out[k]
    content = gcd(*out.values())
    if content > 1:
        out = {k: x // content for k, x in out.items()}
    return out


def _normalized(reduced: dict[int, dict[int, int]], cols: int) -> Rref:
    """The RREF of echelon pivot rows: one Jordan pass from the last pivot
    back clears each row at the later pivots, then divides it by the gcd
    of its entries, signed as its pivot entry.  The later rows are reduced
    by then, so clearing one pivot column adds no other."""
    pivots = sorted(reduced)
    rows = []
    for p in reversed(pivots):
        row = reduced[p]
        for c in [c for c in row if c != p and c in reduced]:
            row = _cleared(row, c, reduced[c])
        content = gcd(*row.values()) if row[p] > 0 else -gcd(*row.values())
        reduced[p] = row = {c: x // content for c, x in row.items()}
        rows.append(tuple(sorted(row.items())))
    return Rref(tuple(reversed(rows)), tuple(pivots), cols)


def rank(matrix: RationalMatrix) -> int:
    return rref(matrix).rank


def nullspace(matrix: RationalMatrix) -> RationalMatrix:
    """Matrix whose columns form a basis of the right kernel.

    One basis vector per free column, with a 1 in that coordinate; the
    result has matrix.cols rows and (cols - rank) columns.  These are the
    rows of the quotient coordinates modulo the row space.
    """
    rows = [dict(row) for row in rref(matrix).quotient_rows()]
    return RationalMatrix.from_rows(
        [[row.get(c, 0) for row in rows] for c in range(matrix.cols)], len(rows))


def quotient_basis(relations: RationalMatrix, ambient_dim: int) -> Rref:
    if relations.cols != ambient_dim:
        raise ValueError("relation rows must live in the ambient space")
    return rref(relations)


def alternating_rank(form: Mapping[tuple[int, int], int], q: int) -> int:
    """Rank of the antisymmetric q x q matrix with integer entries form[i, j], i < j.

    The matrix is built as q sparse rows from the nonzero entries given;
    the rank of an antisymmetric matrix is always even.
    """
    rows: list[dict[int, int]] = [{} for _ in range(q)]
    for (i, j), c in form.items():
        if not 0 <= i < j < q:
            raise ValueError(f"({i}, {j}) is not a pair i < j of indices below {q}")
        if c:
            rows[i][j] = c
            rows[j][i] = -c
    return rref_rows(rows, q).rank


def row_space_contains(matrix: RationalMatrix, vector: Sequence[Fraction | int]) -> bool:
    """Membership test: does the row space contain the vector?"""
    stacked = RationalMatrix.from_rows([*matrix.entries, vector], matrix.cols)
    return rank(stacked) == rank(matrix)
