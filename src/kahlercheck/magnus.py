"""Degree-2 truncation of the power-series expansion of free-group words.

Each generator x_i is sent to 1 + X_i in the algebra of noncommuting
power series; a word w then maps to 1 + L + Q + ..., with L the exponent
sums and Q the quadratic part, q_ij the coefficient of X_i X_j.  Since
Q + Q^T = L L^T - diag(L) for every word, Q is fixed by L and its
antisymmetric part.  ``expand`` keeps both sparse: L on the generators
with a nonzero exponent sum, q_ij - q_ji on the pairs (i, j), i < j,
that the word touches.  It works over ``int`` by
prefix sums in one pass over the letters.
"""

from typing import NamedTuple

from .presentation import Word


class Expansion(NamedTuple):
    """Exponent sums and antisymmetrized quadratic part of a word."""

    linear: dict[int, int]               # nonzero exponent sums, by generator
    wedge: dict[tuple[int, int], int]    # nonzero q_ij - q_ji, i < j


def expand(word: Word, n: int) -> Expansion:
    """Degree-2 data of word - 1, with integer coefficients.

    Multiplying the series 1 + L + Q of a prefix by the factor
    (1 + X_g)^m = 1 + m X_g + ... adds L[i]*m to Q[i][g] for every i,
    which is L[i]*m on the pair (i, g) when i < g and -L[i]*m on (g, i)
    when i > g; then m is added to L[g].  Only the support of L is
    visited, so each letter costs at most n steps.  The pair (i, j)
    accumulates under the integer key i*n + j, cheaper to hash than a
    tuple; only the nonzeros are turned back into pairs.
    """
    if word.max_generator() >= n:
        raise ValueError("word uses a generator index outside the ambient rank")
    linear: dict[int, int] = {}   # support of L
    wedge: dict[int, int] = {}    # q_ij - q_ji under the key i*n + j
    for g, m in word.letters:
        for i, li in linear.items():
            if i < g:
                key = i * n + g
                wedge[key] = wedge.get(key, 0) + li * m
            elif i > g:
                key = g * n + i
                wedge[key] = wedge.get(key, 0) - li * m
        lg = linear.get(g, 0) + m
        if lg:
            linear[g] = lg
        else:
            del linear[g]
    return Expansion(linear, {divmod(key, n): c for key, c in wedge.items() if c})
