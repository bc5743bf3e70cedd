"""Degree-2 truncation of the power-series expansion of free-group words.

Each generator x_i is sent to 1 + X_i in the algebra of noncommuting
power series; a word w then maps to 1 + L + Q + ..., with L the exponent
sums and Q the quadratic part, q_ij the coefficient of X_i X_j.  Since
Q + Q^T = L L^T - diag(L) for every word, Q is fixed by L and its
antisymmetric part.  ``expand`` keeps both sparse: L on the generators
with a nonzero exponent sum, q_ij - q_ji on the pairs (i, j), i < j,
that the word touches.  It works over ``int`` by
prefix sums in one pass over the letters of the word's root
(``Word.root``, which gives u, c and m of u c^m u^-1): a word costs the
letters of u and c, not m copies of c, and so does the check of its
generator indices against the rank (``Word.max_generator``).
"""

from typing import NamedTuple

from .presentation import Word, _Letters


class Expansion(NamedTuple):
    """Exponent sums and antisymmetrized quadratic part of a word."""

    linear: dict[int, int]               # nonzero exponent sums, by generator
    wedge: dict[tuple[int, int], int]    # nonzero q_ij - q_ji, i < j


def _fold(letters: _Letters, n: int) -> tuple[dict[int, int], dict[int, int]]:
    """L and the wedge image of the letters, folded one letter at a time.

    Multiplying the series 1 + L + Q of a prefix by the factor
    (1 + X_g)^m = 1 + m X_g + ... adds L[i]*m to Q[i][g] for every i,
    which is L[i]*m on the pair (i, g) when i < g and -L[i]*m on (g, i)
    when i > g; then m is added to L[g].  Only the support of L is
    visited, so each folded letter costs at most n steps.  The pair
    (i, j) accumulates under the integer key i*n + j, cheaper to hash
    than a tuple.
    """
    linear: dict[int, int] = {}   # support of L
    wedge: dict[int, int] = {}    # q_ij - q_ji under the key i*n + j
    for g, m in letters:
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
    return linear, wedge


def expand(word: Word, n: int) -> Expansion:
    """Degree-2 data of word - 1, with integer coefficients.

    The word is read as u c^m u^-1 (``Word.root``) and only the letters
    of u and c are folded (``_fold``).  In degree 2 the data (L, W) of a
    product is (L + L', W + W' + L ^ L'), with (L ^ L')_ij =
    L_i L'_j - L_j L'_i; so c^m has (m L_c, m W_c), and conjugating it
    by u adds 2 L_u ^ m L_c.  Only the nonzeros are turned back into
    pairs.
    """
    if word.max_generator() >= n:
        raise ValueError("word uses a generator index outside the ambient rank")
    u, c, m = word.root()
    linear, wedge = _fold(c, n)
    if m != 1:
        linear = {g: m * lg for g, lg in linear.items()}
        wedge = {key: m * x for key, x in wedge.items()}
    if u:
        for i, li in _fold(u, n)[0].items():
            for j, lj in linear.items():
                if i < j:
                    key = i * n + j
                    wedge[key] = wedge.get(key, 0) + 2 * li * lj
                elif i > j:
                    key = j * n + i
                    wedge[key] = wedge.get(key, 0) - 2 * li * lj
    return Expansion(linear, {divmod(key, n): x for key, x in wedge.items() if x})
