"""The two-step graded Lie algebra of a finitely presented group.

Pipeline, all over the rationals:

1. Degree 1.  The exponent-sum vectors of the relators span a subspace
   of Q^n; the quotient is the rational abelianization, of dimension
   q = n - k where k is the rank of the relator span.

2. Degree 2.  Each rational combination of relators whose exponent sums
   cancel contributes a degree-2 relation: the antisymmetrized quadratic
   coefficients of its series expansion, pushed into the second exterior
   power of the abelianization.  The span W of these relations has
   codimension dim2 = C(q,2) - dim W, the dimension of the second graded
   piece.

3. The graded algebra is then the free two-step algebra on q generators
   modulo W; the bracket of two degree-1 classes is the class of their
   wedge in the quotient.  The dual cochain picture keeps the same data
   as a differential from a dim2-dimensional space into the wedge square.

Conventions: wedge coordinates are ordered by linalg.wedge_pairs, and a
quadratic coefficient matrix q antisymmetrizes to q - q^T (off by an
overall factor 2 from the normalized commutator coordinates, which does
not change any span).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from . import magnus
from .linalg import (
    QuotientBasis,
    RationalMatrix,
    alternating_rank,
    quotient_basis,
    nullspace,
    rref,
    wedge_pairs,
)
from .presentation import Presentation


@dataclass(frozen=True)
class AbelianizationData:
    """Degree-1 layer: relator expansions, exponent matrix, its rank and kernel."""

    series: tuple[magnus.TruncatedSeries2, ...]  # expansion of relator i
    exponent_matrix: RationalMatrix   # s x n, row i = exponent sums of relator i
    rank: int                         # k
    kernel: RationalMatrix            # s x (s - k), columns = relation combinations
    quotient: QuotientBasis           # Q^n modulo the relator rows

    @property
    def n(self) -> int:
        return self.exponent_matrix.cols

    @property
    def s(self) -> int:
        return self.exponent_matrix.rows

    @property
    def q(self) -> int:
        return self.n - self.rank

    @property
    def dim_kernel(self) -> int:
        return self.s - self.rank


def abelianization_data(pres: Presentation) -> AbelianizationData:
    series = tuple(magnus.expand(rel, pres.n) for rel in pres.relators)
    matrix = RationalMatrix.from_rows([x.linear for x in series], pres.n)
    quotient = quotient_basis(matrix, pres.n)
    kernel = nullspace(matrix.transpose())
    return AbelianizationData(series, matrix, len(quotient.pivots), kernel, quotient)


@dataclass(frozen=True)
class CommutatorRelations:
    """Degree-2 layer: images of the kernel combinations in the wedge square."""

    matrix: RationalMatrix          # C(q,2) x dim_kernel, one column per combination
    relation_basis: RationalMatrix  # dim_relations x C(q,2), row basis of W
    dim_relations: int              # dim W
    dim_kernel: int                 # combinations mapping to zero

    @property
    def dim2(self) -> int:
        wedge_dim = self.matrix.rows
        return wedge_dim - self.dim_relations


def commutator_relations(ab: AbelianizationData) -> CommutatorRelations:
    """Wedge-square relation space spanned by the kernel combinations.

    For a combination lambda, the quadratic coefficient matrices of the
    relator expansions are combined, antisymmetrized, and pushed forward
    along the abelianization coordinates: B = C (Q - Q^T) C^T.
    """
    n, q = ab.n, ab.q
    coords = ab.quotient.coords                      # q x n
    quads = [x.quadratic for x in ab.series]
    pairs_q = wedge_pairs(q)
    columns: list[tuple[Fraction, ...]] = []
    for col in range(ab.kernel.cols):
        lam = ab.kernel.column(col)
        combined = [
            [
                sum((lam[r] * quads[r][i][j] for r in range(len(quads))), Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        anti = RationalMatrix.from_rows(
            [
                [combined[i][j] - combined[j][i] for j in range(n)]
                for i in range(n)
            ],
            n,
        )
        pushed = coords @ anti @ coords.transpose()  # q x q, antisymmetric
        columns.append(tuple(pushed.entries[i][j] for i, j in pairs_q))
    matrix = RationalMatrix(
        tuple(
            tuple(col[p] for col in columns) for p in range(len(pairs_q))
        ),
        len(columns),
    )
    red = rref(matrix.transpose())
    basis_rows = red.matrix.entries[: red.rank]
    relation_basis = RationalMatrix(basis_rows, len(pairs_q))
    return CommutatorRelations(matrix, relation_basis, red.rank,
                               matrix.cols - red.rank)


@dataclass(frozen=True)
class GradedLie2:
    """The two-step graded algebra: dimensions, bracket, relation space.

    ``bracket`` has one row per wedge pair of degree-1 basis classes,
    giving the coordinates of their bracket in the chosen basis of the
    degree-2 piece.
    """

    dim1: int
    dim2: int
    bracket: RationalMatrix      # C(dim1,2) x dim2
    relations: RationalMatrix    # dim_W x C(dim1,2)


def graded_lie_algebra(ab: AbelianizationData,
                       rel: CommutatorRelations) -> GradedLie2:
    q = ab.q
    wedge_dim = comb(q, 2)
    qb = quotient_basis(rel.relation_basis, wedge_dim)
    return GradedLie2(q, qb.dim, qb.coords.transpose(), rel.relation_basis)


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


def classify_relator_series(series: magnus.TruncatedSeries2) -> RelatorClass:
    """Lower central series depth of a relator, read from its expansion.

    The filtration of a free group by the lower central series matches
    the filtration by powers of the augmentation ideal, so the degree-2
    series data decides membership up to depth 3.
    """
    if any(series.linear):
        return RelatorClass.NOT_IN_GAMMA2
    if any(any(row) for row in series.quadratic):
        return RelatorClass.IN_GAMMA2_NOT_GAMMA3
    return RelatorClass.IN_GAMMA3


def surface_genus(grl: GradedLie2) -> int | None:
    """Genus g if the algebra is that of a closed orientable surface group.

    Requires dim1 = 2g, a single degree-2 relation, and that relation of
    full alternating rank 2g; the rank classifies the relation up to a
    change of degree-1 basis.
    """
    q = grl.dim1
    if q < 2 or q % 2 or grl.relations.rows != 1:
        return None
    if alternating_rank(grl.relations.row(0), q) != q:
        return None
    return q // 2


@dataclass(frozen=True)
class ModelStage:
    """Dual cochain stage: generators in degrees one and two.

    ``differential`` has one row per degree-two generator, listing its
    image in the wedge square of the degree-one space.  The row space is
    exactly the annihilator of the relation space under the coordinate
    pairing, and dim_v2 equals the kernel dimension of the cup product
    on degree-one cohomology for any space with this fundamental group.
    """

    dim_v1: int
    dim_v2: int
    differential: RationalMatrix   # dim_v2 x C(dim_v1,2)


def minimal_model_stage(grl: GradedLie2) -> ModelStage:
    return ModelStage(grl.dim1, grl.dim2, grl.bracket.transpose())
