"""The two-step graded Lie algebra of a finitely presented group.

Pipeline, all over the rationals:

1. Degree 1.  The exponent-sum vectors of the relators span a subspace
   of Q^n; the quotient is the rational abelianization, of dimension
   q = n - k where k is the rank of the relator span.  One elimination
   of the exponent matrix's sparse integer rows gives the quotient basis.

2. Degree 2.  Each rational combination of relators whose exponent sums
   cancel contributes a degree-2 relation: the antisymmetrized quadratic
   coefficients of its series expansion, pushed into the second exterior
   power of the abelianization.  The span W of these relations has
   codimension dim2 = C(q,2) - dim W, the dimension of the second graded
   piece.  No basis of those combinations is made: one elimination of
   each relator's exponent sums beside its pushed image gives the RREF
   of W.  Each row is sparse: this costs the relators, not C(q,2).

3. The graded algebra is then the free two-step algebra on q generators
   modulo W; the bracket of two degree-1 classes is the class of their
   wedge in the quotient.  The dual cochain picture keeps the same data
   as a differential from a dim2-dimensional space into the wedge square;
   both iterate the quotient's sparse rows, read off the RREF of W.

Conventions: wedge coordinates are ordered by linalg.wedge_pairs, with
the index of a pair found by arithmetic, and a quadratic coefficient
matrix q antisymmetrizes to q - q^T (off by an overall factor 2 from the
normalized commutator coordinates, which does not change any span).
"""

from enum import Enum
from math import comb, lcm
from typing import NamedTuple

from . import magnus
from .linalg import (
    QuotientBasis,
    Rref,
    SparseRow,
    alternating_rank,
    rref_rows,
    rref_tail,
)
from .presentation import Presentation


class AbelianizationData(NamedTuple):
    """Degree-1 layer: relator expansions and the exponent matrix's RREF.

    Row i of the s x n exponent matrix M is ``series[i].linear``; the
    quotient basis is read off the RREF of M's rows, whose rank is k.
    """

    series: tuple[magnus.Expansion, ...]   # expansion of relator i
    quotient: QuotientBasis           # Q^n modulo the relator rows

    @property
    def n(self) -> int:
        return self.quotient.reduced.cols

    @property
    def s(self) -> int:
        return len(self.series)

    @property
    def rank(self) -> int:
        return self.quotient.reduced.rank

    @property
    def q(self) -> int:
        return self.n - self.rank

    @property
    def dim_kernel(self) -> int:
        return self.s - self.rank


def abelianization_data(pres: Presentation) -> AbelianizationData:
    """Expand each relator and eliminate the rows of the exponent matrix M."""
    series = tuple(magnus.expand(rel, pres.n) for rel in pres.relators)
    reduced = rref_rows([x.linear for x in series], pres.n)
    return AbelianizationData(series, QuotientBasis(reduced))


class CommutatorRelations(NamedTuple):
    """Degree-2 layer: the span W of the exponent-cancelling combinations'
    images in the wedge square."""

    reduced: Rref        # RREF of W in C(q,2) columns
    combinations: int    # dim ker d0 = s - k

    @property
    def dim_relations(self) -> int:
        return self.reduced.rank

    @property
    def dim_kernel(self) -> int:
        """Combinations mapping to zero."""
        return self.combinations - self.reduced.rank

    @property
    def dim2(self) -> int:
        return self.reduced.cols - self.dim_relations


def commutator_relations(ab: AbelianizationData) -> CommutatorRelations:
    """Wedge-square relation space W, by one block elimination.

    Relator r gives one sparse row: its exponent sums at the columns
    g - n, left of every wedge column, then its wedge image q_ij - q_ji
    pushed forward along the abelianization coordinates C: each nonzero
    c on (i, j) adds c * C[a][i] * C[b][j] to the pair (a, b) of the
    quotient, with the sign flipped when a > b.  This is the dense
    B = C (Q - Q^T) C^T read on the pairs a < b.  The rows' span meets
    the wedge columns alone in W, the images of the combinations whose
    exponent sums cancel.  So of its RREF, k rows pivot in the exponent
    block, and the rest, which pivot at wedge columns, are the RREF of W.

    All of it is integer.  Column i of C is held times d_i, the pivot
    entry of the integer degree-1 RREF row at i, which holds -d_i C[a][i]
    at the free column of class a (d_i = 1 for a free column, a unit).
    Each row is scaled by L, the lcm of d_i d_j over its wedge pairs, so
    the entry c on (i, j) adds c * L / (d_i d_j) times the held integers.
    """
    red = ab.quotient.reduced
    pivots = set(red.pivots)
    free = {f: a for a, f in enumerate(f for f in range(ab.n) if f not in pivots)}
    support = [[(free[f], 1)] if f in free else [] for f in range(ab.n)]
    scale = [1] * ab.n
    for (p, d), *rest in red.rows:   # the pivot entry leads each row
        scale[p], support[p] = d, [(free[f], -x) for f, x in rest]
    first, n = _wedge_first(ab.q), ab.n
    rows = []
    for series in ab.series:
        wedge = series.wedge
        scaled = lcm(*[scale[i] * scale[j] for i, j in wedge])
        block = {g - n: e * scaled for g, e in series.linear.items()}
        for (i, j), c in wedge.items():
            c *= scaled // (scale[i] * scale[j])
            for a, x in support[i]:
                for b, y in support[j]:
                    if a < b:
                        block[first[a] + b] = block.get(first[a] + b, 0) + c * x * y
                    elif a > b:
                        block[first[b] + a] = block.get(first[b] + a, 0) - c * x * y
        rows.append({col: x for col, x in block.items() if x})
    return CommutatorRelations(rref_tail(rows, 0, comb(ab.q, 2)), ab.s - ab.rank)


def _wedge_first(q: int) -> list[int]:
    """first[i], with first[i] + j the wedge_pairs(q) index of (i, j), i < j."""
    return [i * q - i * (i + 1) // 2 - i - 1 for i in range(q)]


class GradedLie2(NamedTuple):
    """The two-step graded algebra: dimensions, bracket, relation space.

    The degree-2 piece is the wedge square modulo the relation space,
    ``quotient``.  The bracket of the degree-1 basis classes on wedge
    pair p has coordinate x in degree-2 basis class f exactly when row f
    of ``quotient`` holds (p, x); so its rows are the columns of the
    C(dim1,2) x dim2 bracket matrix, kept sparse.
    """

    dim1: int
    quotient: QuotientBasis      # C(dim1,2)-dimensional ambient modulo W

    @property
    def dim2(self) -> int:
        return self.quotient.dim

    @property
    def relations(self) -> tuple[SparseRow, ...]:
        """W's integer RREF rows (see ``Rref``), dim_W of them, in C(dim1,2) columns."""
        return self.quotient.reduced.rows


def graded_lie_algebra(ab: AbelianizationData,
                       rel: CommutatorRelations) -> GradedLie2:
    """The algebra read off the relation space's RREF, without eliminating again."""
    return GradedLie2(ab.q, QuotientBasis(rel.reduced))


def is_free_two_step(rel: CommutatorRelations) -> bool:
    """True iff there are no degree-2 relations.

    Equivalent to every exponent-cancelling relator combination already
    vanishing in the wedge square, so the algebra is the free two-step
    one on q generators.
    """
    return rel.dim_relations == 0


class RelatorClass(Enum):
    NOT_IN_GAMMA2 = "NOT_IN_GAMMA2"
    IN_GAMMA2_NOT_GAMMA3 = "IN_GAMMA2_NOT_GAMMA3"
    IN_GAMMA3 = "IN_GAMMA3"


def classify_single_relator(pres: Presentation) -> RelatorClass:
    """Locate the single relator in the lower central series of the free group."""
    if pres.s != 1:
        raise ValueError(f"expected exactly one relator, got {pres.s}")
    return classify_relator_series(magnus.expand(pres.relators[0], pres.n))


def classify_relator_series(series: magnus.Expansion) -> RelatorClass:
    """Lower central series depth of a relator, read from its expansion.

    The filtration of a free group by the lower central series matches
    the filtration by powers of the augmentation ideal, so the degree-2
    series data decides membership up to depth 3.  With L = 0 the
    quadratic part Q has Q + Q^T = L L^T - diag(L) = 0, so it vanishes
    exactly when its wedge image does.
    """
    if series.linear:
        return RelatorClass.NOT_IN_GAMMA2
    if series.wedge:
        return RelatorClass.IN_GAMMA2_NOT_GAMMA3
    return RelatorClass.IN_GAMMA3


def surface_genus(grl: GradedLie2) -> int | None:
    """Genus g if the algebra is that of a closed orientable surface group.

    Requires dim1 = 2g, a single degree-2 relation, and that relation of
    full alternating rank 2g; the rank classifies the relation up to a
    change of degree-1 basis.  A form of full rank touches every index,
    so a relation that does not is rejected before the form is built.
    """
    q = grl.dim1
    relations = grl.relations
    if q < 2 or q % 2 or len(relations) != 1 or 2 * len(relations[0]) < q:
        return None
    first, form, i = _wedge_first(q), {}, 0
    for c, x in relations[0]:          # in column order
        while c >= first[i] + q:       # past (i, q - 1)
            i += 1
        form[i, c - first[i]] = x
    if len({k for pair in form for k in pair}) < q or alternating_rank(form, q) != q:
        return None
    return q // 2


class ModelStage(NamedTuple):
    """Dual cochain stage: generators in degrees one and two.

    ``differential`` has one sparse row per degree-two generator,
    listing its image in the wedge square of the degree-one space.  The
    row space is exactly the annihilator of the relation space under the
    coordinate pairing, and dim_v2 equals the kernel dimension of the cup
    product on degree-one cohomology for any space with this fundamental
    group.
    """

    dim_v1: int
    dim_v2: int
    differential: QuotientBasis   # iterates dim_v2 rows of width C(dim_v1,2)


def minimal_model_stage(grl: GradedLie2) -> ModelStage:
    """The dual stage: its differential is the bracket matrix transposed,
    which is the degree-2 quotient's coordinate rows as they are."""
    return ModelStage(grl.dim1, grl.dim2, grl.quotient)
