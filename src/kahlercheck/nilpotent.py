"""Word evaluation in the free two-step nilpotent group over the rationals.

Elements are pairs (v, w): an abelianized vector v in Q^n and a
commutator part w in the wedge square of Q^n.  The closed product law

    (v, w) * (v', w') = (v + v', w + w' + (1/2) v ^ v')

is the degree-2 Campbell-Hausdorff formula; powers are simply
(m v, m w), for any integer m.  This gives a second, independently
coded route to the degree-2 invariants computed by the series pipeline,
used for cross-checking.  Its arithmetic is its own: from the series
expansion it shares only the certified split of a word as u c^m u^-1,
which the word finds once and keeps (``Word.root``), whichever route
reads it first; none of the degree-1 and degree-2 layers; and from
``linalg`` only the sparse integer elimination.

``evaluate`` applies that law to integer pairs (v, 2w): a word's
image has an integer v, and 2w stays integral because each generator
power factor m e_g adds v ^ m e_g to it.  Both are kept sparse, and
only the letters of u and c (from ``Word.root``) are multiplied out, so
a word costs the letters of its root times the support of v, not C(n,2)
nor m copies of c; ``Word.max_generator`` checks its generator indices
against the rank on u and c alone.
"""

from __future__ import annotations

from math import comb

from .linalg import _eliminate
from .presentation import Presentation, Word, _Letters


def _wedge_first(n: int) -> list[int]:
    """first[i], with first[i] + j the index of the wedge pair (i, j), i < j,
    in lexicographic order."""
    return [i * n - i * (i + 1) // 2 - i - 1 for i in range(n)]


def _fold(letters: _Letters, first: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    """Left-to-right product of the generator images raised to the exponents.

    Each factor m e_g adds v ^ m e_g to 2w, on the support of v only.
    """
    v: dict[int, int] = {}
    w2: dict[int, int] = {}
    for g, m in letters:
        for i, vi in v.items():
            if i < g:
                p = first[i] + g
                w2[p] = w2.get(p, 0) + vi * m
            elif i > g:
                p = first[g] + i
                w2[p] = w2.get(p, 0) - vi * m
        vg = v.get(g, 0) + m
        if vg:
            v[g] = vg
        else:
            del v[g]
    return v, w2


def evaluate(word: Word, n: int) -> tuple[dict[int, int], dict[int, int]]:
    """The image of a word, as the integer pair (v, 2w), nonzeros only.

    v is {generator: exponent sum} and 2w is {wedge index: coefficient}.
    The word is read as u c^m u^-1 (``Word.root``) and only u and c are
    multiplied out (``_fold``): by the product law c^m is (m v_c, m w_c),
    and conjugating (v, w) by u gives (v, w + v_u ^ v), so the pair is
    (m v_c, m 2w_c + 2 v_u ^ m v_c).
    """
    if word.max_generator() >= n:
        raise ValueError("word uses a generator index outside the ambient rank")
    u, c, m = word.root()
    first = _wedge_first(n)
    v, w2 = _fold(c, first)
    if m != 1:
        v = {g: m * vg for g, vg in v.items()}
        w2 = {q: m * x for q, x in w2.items()}
    if u:
        for i, ui in _fold(u, first)[0].items():
            for j, vj in v.items():
                if i < j:
                    q = first[i] + j
                    w2[q] = w2.get(q, 0) + 2 * ui * vj
                elif i > j:
                    q = first[j] + i
                    w2[q] = w2.get(q, 0) - 2 * ui * vj
    return v, {q: x for q, x in w2.items() if x}


def commutator_quotient_dim(pres: Presentation) -> int:
    """Dimension of the degree-2 graded piece, by the joint-span formula.

    Inside the wedge square of Q^n, the subspace V ^ Q^n, with V the span
    of the relators' abelianized vectors v_r, together with the
    commutator parts of the exponent-cancelling relator combinations,
    spans the joint span; the degree-2 piece is the quotient by it.  One
    elimination in Q^n + wedge square (columns 0..n-1 for v, n + index for
    a wedge pair) finds that span's dimension: the rows (v_r, 2 w_r) and
    (0, x) for x in V ^ Q^n span a space whose projection onto Q^n has
    image V, of dimension k, and kernel the joint span.  So
    dim2 = C(n,2) - (rank - k).

    V ^ Q^n is spanned by a basis, so that no row is eliminated to zero:
    for each echelon row u of the v_r, with leftmost column p, the rows
    u ^ e_j for every j but the pivot columns at or left of p.  The
    leading pair of u ^ e_j is (p, j) or (j, p), and no two of these
    rows share one, so they are independent; there are
    C(n,2) - C(n-k,2) of them, the dimension of V ^ Q^n.
    """
    n = pres.n
    first = _wedge_first(n)
    images = [evaluate(rel, n) for rel in pres.relators]
    basis = _eliminate(v for v, _ in images)
    rows = [{**v, **{n + q: c for q, c in w2.items()}} for v, w2 in images]
    for p, u in basis.items():
        for j in range(n):
            if j <= p and j in basis:
                continue
            wedge = {}
            for i, ui in u.items():
                if i < j:
                    wedge[n + first[i] + j] = ui
                elif i > j:
                    wedge[n + first[j] + i] = -ui
            rows.append(wedge)
    return comb(n, 2) - (len(_eliminate(rows)) - len(basis))
