"""Degree-2 truncation of the power-series expansion of free-group words.

Each generator x_i is sent to 1 + X_i in the algebra of noncommuting
power series; a word w then maps to 1 + expand(w), and expand(w) is
stored only up to quadratic terms: a linear coefficient vector and an
n x n matrix whose (i, j) entry is the coefficient of X_i X_j.
Truncating at degree 2 is enough for everything computed here, since
only abelianization data and the first commutator layer are read off.

``expand`` works over ``int``: the coefficients of a word are integers,
and it accumulates them by prefix sums in one pass over the letters.
``truncated_mul`` and ``generator_power`` are the reference algebra over
``Fraction`` that the expansion is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .presentation import Word

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


def expand(word: Word, n: int) -> TruncatedSeries2:
    """Image of word - 1, truncated at degree 2, with integer coefficients.

    Multiplying the series 1 + L + Q of a prefix by the factor
    (1 + X_g)^m = 1 + m X_g + m(m-1)/2 X_g^2 + ... adds L[i]*m to
    Q[i][g] for every i, then m(m-1)/2 to Q[g][g], then m to L[g].  Only
    the support of L is visited, so each letter costs at most n steps.
    """
    if word.max_generator() >= n:
        raise ValueError("word uses a generator index outside the ambient rank")
    linear: dict[int, int] = {}   # support of L
    quadratic = [[0] * n for _ in range(n)]
    for g, m in word.letters:
        for i, li in linear.items():
            quadratic[i][g] += li * m
        quadratic[g][g] += m * (m - 1) // 2
        lg = linear.get(g, 0) + m
        if lg:
            linear[g] = lg
        else:
            del linear[g]
    return TruncatedSeries2(
        n,
        tuple(linear.get(i, 0) for i in range(n)),
        tuple(tuple(row) for row in quadratic),
    )
