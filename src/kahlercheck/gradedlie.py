"""The two-step graded Lie algebra of a finitely presented group.

Pipeline, all over the rationals:

1. Degree 1.  The exponent-sum vectors of the relators span a subspace
   of Q^n; the quotient is the rational abelianization, of dimension
   q = n - k where k is the rank of the relator span.  One elimination
   of the exponent matrix gives both the quotient basis and integer
   relator combinations whose exponent sums cancel.

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

from . import magnus
from .linalg import (
    QuotientBasis,
    RationalMatrix,
    Rref,
    SparseRow,
    alternating_rank,
    rref,
    rref_and_left_kernel,
    rref_quotient,
    wedge_pairs,
)
from .presentation import Presentation


@dataclass(frozen=True)
class AbelianizationData:
    """Degree-1 layer: relator expansions, exponent matrix, its rank and kernel.

    ``kernel`` holds s - k independent integer combinations of the
    relators, each of length s, whose exponent sums cancel: a basis of
    the left kernel of the exponent matrix.
    """

    series: tuple[magnus.TruncatedSeries2, ...]  # expansion of relator i
    exponent_matrix: RationalMatrix   # s x n, row i = exponent sums of relator i
    rank: int                         # k
    kernel: tuple[tuple[int, ...], ...]   # s - k rows, one combination each
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
    """Expand each relator and eliminate the exponent matrix M once.

    One elimination of [M | I_s] gives the RREF of M, hence the rank and
    the quotient basis, and s - k integer relator combinations whose
    exponent sums cancel.
    """
    series = tuple(magnus.expand(rel, pres.n) for rel in pres.relators)
    matrix = RationalMatrix.from_rows([x.linear for x in series], pres.n)
    reduced, kernel = rref_and_left_kernel(matrix)
    return AbelianizationData(series, matrix, reduced.rank, kernel,
                              rref_quotient(reduced))


@dataclass(frozen=True)
class CommutatorRelations:
    """Degree-2 layer: images of the kernel combinations in the wedge square."""

    matrix: RationalMatrix   # C(q,2) x dim_kernel, one column per combination
    reduced: Rref            # RREF of matrix^T; its nonzero rows span W

    @property
    def relation_basis(self) -> RationalMatrix:
        """dim_relations x C(q,2), the RREF row basis of W."""
        return RationalMatrix(self.reduced.matrix.entries[: self.dim_relations],
                              self.matrix.rows)

    @property
    def dim_relations(self) -> int:
        return self.reduced.rank

    @property
    def dim_kernel(self) -> int:
        """Combinations mapping to zero."""
        return self.matrix.cols - self.reduced.rank

    @property
    def dim2(self) -> int:
        wedge_dim = self.matrix.rows
        return wedge_dim - self.dim_relations


def commutator_relations(ab: AbelianizationData) -> CommutatorRelations:
    """Wedge-square relation space spanned by the kernel combinations.

    For a combination lambda, the quadratic coefficient matrices of the
    relator expansions are combined, antisymmetrized, and pushed forward
    along the abelianization coordinates: B = C (Q - Q^T) C^T.  This is
    computed sparsely: each relator's wedge image q_ij - q_ji (i < j) is
    taken once, the images are combined in wedge coordinates, and each
    nonzero c on (i, j) adds c * C[a][i] * C[b][j] to the pair (a, b) of
    the quotient, with the sign flipped when a > b.
    """
    images = [_wedge_image(x.quadratic) for x in ab.series]
    support: list[list[tuple[int, Fraction]]] = [[] for _ in range(ab.n)]
    for a, row in enumerate(ab.quotient.rows):    # column i of the q x n coordinates
        for i, x in row:
            support[i].append((a, x))
    pairs_q = wedge_pairs(ab.q)
    columns: list[dict[tuple[int, int], Fraction]] = []
    for combination in ab.kernel:
        combined: dict[tuple[int, int], int] = {}
        for lam, image in zip(combination, images):
            if lam:
                for pair, c in image.items():
                    combined[pair] = combined.get(pair, 0) + lam * c
        pushed: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in combined.items():
            if not c:
                continue
            for a, x in support[i]:
                for b, y in support[j]:
                    if a < b:
                        pushed[a, b] = pushed.get((a, b), 0) + c * x * y
                    elif a > b:
                        pushed[b, a] = pushed.get((b, a), 0) - c * x * y
        columns.append(pushed)
    matrix = RationalMatrix.from_rows(
        [[col.get(pair, 0) for col in columns] for pair in pairs_q],
        len(columns),
    )
    return CommutatorRelations(matrix, rref(matrix.transpose()))


def _wedge_image(
        quadratic: tuple[tuple[int, ...], ...]) -> dict[tuple[int, int], int]:
    """Nonzero antisymmetrized coefficients q_ij - q_ji, keyed by (i, j), i < j."""
    n = len(quadratic)
    image = {}
    for i in range(n):
        row = quadratic[i]
        for j in range(i + 1, n):
            c = row[j] - quadratic[j][i]
            if c:
                image[i, j] = c
    return image


@dataclass(frozen=True)
class GradedLie2:
    """The two-step graded algebra: dimensions, bracket, relation space.

    The degree-2 piece is the wedge square modulo the relation space,
    ``quotient``.  The bracket of the degree-1 basis classes on wedge
    pair p has coordinate x in degree-2 basis class f exactly when row f
    of ``quotient.rows`` holds (p, x); so the rows are the columns of
    the C(dim1,2) x dim2 bracket matrix, kept sparse.
    """

    dim1: int
    quotient: QuotientBasis      # C(dim1,2)-dimensional ambient modulo W
    relations: RationalMatrix    # dim_W x C(dim1,2)

    @property
    def dim2(self) -> int:
        return self.quotient.dim


def graded_lie_algebra(ab: AbelianizationData,
                       rel: CommutatorRelations) -> GradedLie2:
    """The algebra read off the relation space's RREF, without eliminating again."""
    return GradedLie2(ab.q, rref_quotient(rel.reduced), rel.relation_basis)


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

    ``differential`` has one sparse row per degree-two generator,
    listing its image in the wedge square of the degree-one space.  The
    row space is exactly the annihilator of the relation space under the
    coordinate pairing, and dim_v2 equals the kernel dimension of the cup
    product on degree-one cohomology for any space with this fundamental
    group.
    """

    dim_v1: int
    dim_v2: int
    differential: tuple[SparseRow, ...]   # dim_v2 rows of width C(dim_v1,2)


def minimal_model_stage(grl: GradedLie2) -> ModelStage:
    """The dual stage: its differential is the bracket matrix transposed,
    which is the degree-2 quotient's coordinate rows as they are."""
    return ModelStage(grl.dim1, grl.dim2, grl.quotient.rows)
