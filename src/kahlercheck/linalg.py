"""Exact linear algebra over the rationals: dense matrices, sparse quotient rows.

Matrices hold fractions.Fraction entries, in lowest terms with positive
denominators, so every rank is exact.  ``rref`` eliminates fraction-free
over int: each row is scaled to integers, rows are combined by integer
row operations and divided by the gcd of their entries, and each pivot
row is divided by its pivot only at the end.  The RREF of a row space is
unique, so the result is the one Gauss-Jordan elimination over Fraction
gives.  Pivoting is deterministic (leftmost nonzero column, first
eligible row) so that all derived bases and reports are reproducible
byte for byte.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable row-major matrix of Fractions; may have zero rows."""

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[Fraction | int]],
                  cols: int | None = None) -> "RationalMatrix":
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(data[0])
        return RationalMatrix(data, cols)

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        z = Fraction(0)
        return RationalMatrix(((z,) * cols,) * rows, cols)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            ),
            n,
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            tuple(tuple(row[j] for row in self.entries) for j in range(self.cols)),
            self.rows,
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for row in self.entries:
            out.append(
                tuple(
                    sum((row[k] * other.entries[k][j] for k in range(self.cols)),
                        Fraction(0))
                    for j in range(other.cols)
                )
            )
        return RationalMatrix(tuple(out), other.cols)

    def stacked(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("column counts differ")
        return RationalMatrix(self.entries + other.entries, self.cols)


@dataclass(frozen=True)
class Rref:
    matrix: RationalMatrix
    rank: int
    pivots: tuple[int, ...]


def rref(matrix: RationalMatrix) -> Rref:
    """Reduced row-echelon form by fraction-free elimination over int.

    Each row is scaled to integers, rows are combined by integer row
    operations, and only at the end is each pivot row divided by its
    pivot.  The RREF of a row space is unique, so this is the matrix
    Gauss-Jordan elimination over Fraction gives.
    """
    rows = [_integer_row(row) for row in matrix.entries]
    pivots = _eliminate(rows, matrix.cols)
    return _normalized(rows, pivots, matrix.cols)


def rref_and_left_kernel(
        matrix: RationalMatrix) -> tuple[Rref, tuple[tuple[int, ...], ...]]:
    """The RREF of M and an integer basis of its left kernel, from one elimination.

    Row i of M is eliminated as [d M_i | d e_i], with d the lcm of its
    denominators.  The first M.cols columns reduce as ``rref(M)`` would.
    The rows left zero there hold, in their last M.rows entries,
    independent integer combinations lambda with lambda M = 0, one per
    row beyond the rank.
    """
    n, s = matrix.cols, matrix.rows
    rows = [_integer_row((*row, *(0,) * i, 1, *(0,) * (s - 1 - i)))
            for i, row in enumerate(matrix.entries)]
    pivots = _eliminate(rows, n + s)
    k = bisect_left(pivots, n)
    kernel = tuple(tuple(row[n:]) for row in rows[k:])
    return _normalized(rows, pivots[:k], n), kernel


def _normalized(rows: list[list[int]], pivots: list[int], n_cols: int) -> Rref:
    """The first n_cols columns of eliminated rows, each pivot row divided
    by its pivot; the rows past the pivots are zero there."""
    zero = Fraction(0)
    reduced = [tuple(Fraction(x, row[c]) if x else zero for x in row[:n_cols])
               for row, c in zip(rows, pivots)]
    reduced.extend([(zero,) * n_cols] * (len(rows) - len(pivots)))
    return Rref(RationalMatrix(tuple(reduced), n_cols), len(pivots), tuple(pivots))


def _integer_row(row: Sequence[Fraction | int]) -> list[int]:
    """The row times the lcm of its denominators: integers, same direction."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _eliminate(rows: list[list[int]], n_cols: int) -> list[int]:
    """Bring integer rows to reduced echelon shape in place; return the pivots.

    Pivoting takes the leftmost nonzero column and the first eligible
    row.  Every other row with a nonzero in the pivot column is replaced
    by an integer combination with the pivot row that clears it, divided
    by the gcd of its entries.  Pivots are left unnormalized.
    """
    n_rows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n_rows):
            a = rows[i][c]
            if a and i != r:
                g = gcd(p, a)
                pg, ag = p // g, a // g
                row = [pg * x - ag * y for x, y in zip(rows[i], prow)]
                content = gcd(*row)
                if content > 1:
                    row = [x // content for x in row]
                rows[i] = row
        pivots.append(c)
        r += 1
    return pivots


def rank(matrix: RationalMatrix) -> int:
    return rref(matrix).rank


def nullspace(matrix: RationalMatrix) -> RationalMatrix:
    """Matrix whose columns form a basis of the right kernel.

    One basis vector per free column, with a 1 in that coordinate; the
    result has matrix.cols rows and (cols - rank) columns.  These are the
    rows of the quotient coordinates modulo the row space.
    """
    return quotient_basis(matrix, matrix.cols).coords.transpose()


# A sparse row: its nonzero entries as (column, value), in column order.
SparseRow = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class QuotientBasis:
    """A basis of an ambient space modulo a relation row space.

    The chosen quotient basis is the classes of the ambient basis
    vectors at the non-pivot columns.  ``rows`` holds, per basis class,
    the sparse row of the (dim x ambient) coordinate matrix that sends
    an ambient vector to its coordinates in that basis; the coordinates
    kill the relation rows exactly.  Read off an RREF with pivots P, the
    row of free column f is 1 at f and -rref[i][f] at each pivot P[i],
    so it has at most rank + 1 nonzeros.
    """

    ambient_dim: int
    pivots: tuple[int, ...]
    rows: tuple[SparseRow, ...]

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.pivots)

    @property
    def coords(self) -> RationalMatrix:
        """The coordinate matrix, dense."""
        dense = []
        for row in self.rows:
            entries = [Fraction(0)] * self.ambient_dim
            for c, x in row:
                entries[c] = x
            dense.append(tuple(entries))
        return RationalMatrix(tuple(dense), self.ambient_dim)

    def coordinates(self, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        return tuple(sum((x * vector[c] for c, x in row), Fraction(0))
                     for row in self.rows)


def quotient_basis(relations: RationalMatrix, ambient_dim: int) -> QuotientBasis:
    if relations.cols != ambient_dim:
        raise ValueError("relation rows must live in the ambient space")
    return rref_quotient(rref(relations))


def rref_quotient(red: Rref) -> QuotientBasis:
    """The quotient basis modulo the row space of an already reduced matrix."""
    ambient_dim = red.matrix.cols
    reduced = red.matrix.entries
    pivot_set = set(red.pivots)
    rows = []
    for f in range(ambient_dim):
        if f in pivot_set:
            continue
        row = [(p, -reduced[i][f]) for i, p in enumerate(red.pivots) if reduced[i][f]]
        row.append((f, Fraction(1)))
        row.sort()
        rows.append(tuple(row))
    return QuotientBasis(ambient_dim, red.pivots, tuple(rows))


def wedge_pairs(q: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j) with i < j, in lexicographic order.

    This fixes the basis ordering of the second exterior power used
    throughout the package.
    """
    return tuple((i, j) for i in range(q) for j in range(i + 1, q))


def alternating_rank(coefficients: Sequence[Fraction | int], q: int) -> int:
    """Rank of the antisymmetric q x q matrix with the given upper entries.

    ``coefficients`` lists the entries on the pairs from wedge_pairs(q);
    the rank of an antisymmetric matrix is always even.
    """
    pairs = wedge_pairs(q)
    if len(coefficients) != len(pairs):
        raise ValueError("expected one coefficient per pair (i, j), i < j")
    m = [[Fraction(0)] * q for _ in range(q)]
    for (i, j), c in zip(pairs, coefficients):
        m[i][j] = Fraction(c)
        m[j][i] = -Fraction(c)
    return rank(RationalMatrix.from_rows(m, q))


def row_space_contains(matrix: RationalMatrix, vector: Sequence[Fraction | int]) -> bool:
    """Membership test: does the row space contain the vector?"""
    stacked = matrix.stacked(RationalMatrix.from_rows([vector], matrix.cols))
    return rank(stacked) == rank(matrix)
