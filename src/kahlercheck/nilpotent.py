"""Word evaluation in the free two-step nilpotent group over the rationals.

Elements are pairs (v, w): an abelianized vector v in Q^n and a
commutator part w in the wedge square of Q^n.  The closed product law

    (v, w) * (v', w') = (v + v', w + w' + (1/2) v ^ v')

is the degree-2 Campbell-Hausdorff formula; powers are simply
(m v, m w), for any integer m.  This gives a second, independently
coded route to the degree-2 invariants computed by the series pipeline,
used for cross-checking; it shares no code with the series expansion.

``evaluate`` applies that law to integer pairs (v, 2w): a word's
image has an integer v, and 2w stays integral because each generator
power factor m e_g adds v ^ m e_g to it.  The result is converted to
Fractions once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .linalg import RationalMatrix, nullspace, rank, wedge_pairs
from .presentation import Presentation, Word


def _wedge(u: tuple[Fraction, ...], v: tuple[Fraction, ...],
           n: int) -> tuple[Fraction, ...]:
    return tuple(u[i] * v[j] - u[j] * v[i] for i, j in wedge_pairs(n))


@dataclass(frozen=True)
class NilpotentElement:
    n: int
    abelian: tuple[Fraction, ...]      # length n
    commutator: tuple[Fraction, ...]   # length C(n,2), wedge_pairs order

    def __post_init__(self) -> None:
        if len(self.abelian) != self.n or len(self.commutator) != comb(self.n, 2):
            raise ValueError("component lengths do not match n")


def evaluate(word: Word, n: int) -> NilpotentElement:
    """Left-to-right product of the generator images raised to the exponents."""
    if word.max_generator() >= n:
        raise ValueError("word uses a generator index outside the ambient rank")
    # Index of the wedge pair (i, j), i < j, in wedge_pairs(n) order.
    first = [i * n - i * (i + 1) // 2 - i - 1 for i in range(n)]
    v: dict[int, int] = {}          # support of the abelian part
    w2 = [0] * comb(n, 2)           # twice the commutator part
    for g, m in word.letters:
        for i, vi in v.items():
            if i < g:
                w2[first[i] + g] += vi * m
            elif i > g:
                w2[first[g] + i] -= vi * m
        vg = v.get(g, 0) + m
        if vg:
            v[g] = vg
        else:
            del v[g]
    return NilpotentElement(
        n,
        tuple(Fraction(v.get(i, 0)) for i in range(n)),
        tuple(Fraction(x, 2) for x in w2),
    )


def commutator_quotient_dim(pres: Presentation) -> int:
    """Dimension of the degree-2 graded piece, by the joint-span formula.

    Inside the wedge square of Q^n, span the wedges of each relator's
    abelianized vector with every coordinate vector, together with the
    commutator parts of the exponent-cancelling relator combinations;
    the degree-2 piece is the quotient by that span.
    """
    n = pres.n
    values = [evaluate(rel, n) for rel in pres.relators]
    pairs = wedge_pairs(n)
    rows: list[tuple[Fraction, ...]] = []
    unit = [Fraction(0)] * n
    for val in values:
        for j in range(n):
            unit[j] = Fraction(1)
            rows.append(_wedge(val.abelian, tuple(unit), n))
            unit[j] = Fraction(0)
    exponents = RationalMatrix.from_rows([v.abelian for v in values], n)
    kernel = nullspace(exponents.transpose())
    for col in range(kernel.cols):
        lam = kernel.column(col)
        rows.append(
            tuple(
                sum((lam[r] * values[r].commutator[p] for r in range(len(values))),
                    Fraction(0))
                for p in range(len(pairs))
            )
        )
    span = RationalMatrix.from_rows(rows, len(pairs))
    return comb(n, 2) - rank(span)
