"""Exact dense linear algebra over the rationals.

Everything is built on fractions.Fraction, so entries stay in lowest
terms with positive denominators and every rank is exact.  Pivoting is
deterministic (leftmost nonzero column, first eligible row) so that all
derived bases and reports are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    def apply(self, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((row[j] * Fraction(vector[j]) for j in range(self.cols)), Fraction(0))
            for row in self.entries
        )

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
    """Reduced row-echelon form by exact Gauss-Jordan elimination."""
    rows = [list(row) for row in matrix.entries]
    n_rows, n_cols = len(rows), matrix.cols
    pivots: list[int] = []
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
    reduced = RationalMatrix(tuple(tuple(row) for row in rows), n_cols)
    return Rref(reduced, len(pivots), tuple(pivots))


def rank(matrix: RationalMatrix) -> int:
    return rref(matrix).rank


def nullspace(matrix: RationalMatrix) -> RationalMatrix:
    """Matrix whose columns form a basis of the right kernel.

    One basis vector per free column, with a 1 in that coordinate; the
    result has matrix.cols rows and (cols - rank) columns.  These are the
    rows of the quotient coordinates modulo the row space.
    """
    return quotient_basis(matrix, matrix.cols).coords.transpose()


@dataclass(frozen=True)
class QuotientBasis:
    """A basis of an ambient space modulo a relation row space.

    The chosen quotient basis is the classes of the ambient basis
    vectors at the non-pivot columns.  ``coords`` is a (dim x ambient)
    matrix sending an ambient vector to its coordinates in that basis;
    it kills the relation rows exactly.
    """

    ambient_dim: int
    pivots: tuple[int, ...]
    coords: RationalMatrix

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.pivots)

    @property
    def basis_columns(self) -> tuple[int, ...]:
        pivot_set = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivot_set)

    def coordinates(self, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        return self.coords.apply(vector)


def quotient_basis(relations: RationalMatrix, ambient_dim: int) -> QuotientBasis:
    if relations.cols != ambient_dim:
        raise ValueError("relation rows must live in the ambient space")
    red = rref(relations)
    pivot_set = set(red.pivots)
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    coord_rows = []
    for f in free:
        row = [Fraction(0)] * ambient_dim
        row[f] = Fraction(1)
        for i, p in enumerate(red.pivots):
            row[p] = -red.matrix.entries[i][f]
        coord_rows.append(tuple(row))
    return QuotientBasis(ambient_dim, red.pivots,
                         RationalMatrix(tuple(coord_rows), ambient_dim))


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
