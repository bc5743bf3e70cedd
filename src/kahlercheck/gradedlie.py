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

3. That one RREF is the whole degree-2 record.  The graded algebra is
   the free two-step algebra on q generators modulo W; the bracket of
   two degree-1 classes is the class of their wedge in the quotient.
   The dual stage of the minimal model is the same record again: its
   differential, from a dim2-dimensional space into the wedge square,
   is the quotient's sparse rows.

Conventions: wedge coordinates are the pairs (i, j), i < j, in
lexicographic order, with the index of a pair found by arithmetic (see
``_wedge_first``), and a quadratic coefficient matrix q antisymmetrizes
to q - q^T (off by an overall factor 2 from the normalized commutator
coordinates, which does not change any span).
"""

from enum import Enum
from math import comb, lcm
from typing import NamedTuple

from . import magnus
from .linalg import Rref, SparseRow, alternating_rank, rref_rows
from .presentation import Presentation


class AbelianizationData(NamedTuple):
    """Degree-1 layer: relator expansions and the exponent matrix's RREF.

    Row i of the s x n exponent matrix M is ``series[i].linear``; the
    RREF of M's rows has rank k, and its free columns index H_1's basis.
    """

    series: tuple[magnus.Expansion, ...]   # expansion of relator i
    reduced: Rref                     # RREF of M's rows in n columns

    @property
    def n(self) -> int:
        return self.reduced.cols

    @property
    def s(self) -> int:
        return len(self.series)

    @property
    def rank(self) -> int:
        return self.reduced.rank

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
    return AbelianizationData(series, reduced)


class GradedLie2(NamedTuple):
    """The degree-2 record: relation space W, algebra and dual stage in one.

    ``reduced`` is the RREF of W in the wedge square, the image of the
    ``combinations`` = dim ker d0 exponent-cancelling relator
    combinations.  The bracket of the degree-1 basis classes on wedge
    pair p has coordinate x in degree-2 basis class f exactly when row f
    of ``reduced.quotient_rows()`` holds (p, x); so these rows are the
    columns of the C(dim1,2) x dim2 bracket matrix, kept sparse.  Read as
    rows, they are the dual stage's differential: row f is the image of
    the degree-two generator v_f in the wedge square, the rows span the
    annihilator of W, and dim2 is the kernel dimension of the cup
    product on degree-one cohomology for any space with this fundamental
    group.
    """

    dim1: int
    reduced: Rref                # RREF of W in C(dim1,2) columns
    combinations: int            # dim ker d0 = s - k

    @property
    def dim2(self) -> int:
        return self.reduced.cols - self.reduced.rank

    @property
    def dim_relations(self) -> int:
        return self.reduced.rank

    @property
    def dim_kernel(self) -> int:
        """dim ker d1: the combinations mapping to zero in the wedge square."""
        return self.combinations - self.dim_relations

    @property
    def relations(self) -> tuple[SparseRow, ...]:
        """W's integer RREF rows (see ``Rref``), dim_W of them, in C(dim1,2) columns."""
        return self.reduced.rows


def commutator_relations(ab: AbelianizationData) -> GradedLie2:
    """The algebra: the wedge square modulo W, by one block elimination.

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

    No row is made when W is zero by its dimensions: when q < 2 (no wedge
    column) or k = s (no combination cancels).
    """
    if ab.q < 2 or not ab.dim_kernel:
        return GradedLie2(ab.q, Rref((), (), comb(ab.q, 2)), ab.dim_kernel)
    red = ab.reduced
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
    return GradedLie2(ab.q, rref_rows(rows, comb(ab.q, 2)), ab.dim_kernel)


def _wedge_first(q: int) -> list[int]:
    """first[i], with first[i] + j the index of the wedge pair (i, j), i < j.

    The pairs are in lexicographic order, that of
    ``itertools.combinations(range(q), 2)``; this fixes the basis of the
    second exterior power throughout the package.
    """
    return [i * q - i * (i + 1) // 2 - i - 1 for i in range(q)]


def graded_lie_algebra(ab: AbelianizationData, rel: GradedLie2) -> GradedLie2:
    """The algebra, which ``commutator_relations`` already returns.  It stays
    only while ``perfbench/tracer.TRACED`` wraps it by name."""
    return rel


def is_free_two_step(grl: GradedLie2) -> bool:
    """True iff there are no degree-2 relations.

    Equivalent to every exponent-cancelling relator combination already
    vanishing in the wedge square, so the algebra is the free two-step
    one on q generators.
    """
    return grl.dim_relations == 0


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
    so a relation that does not is rejected before its rank is computed.
    """
    q = grl.dim1
    relations = grl.relations
    if q < 2 or q % 2 or len(relations) != 1:
        return None
    first, form, i = _wedge_first(q), {}, 0
    for c, x in relations[0]:          # in column order
        while c >= first[i] + q:       # past (i, q - 1)
            i += 1
        form[i, c - first[i]] = x
    if len({k for pair in form for k in pair}) < q or alternating_rank(form, q) != q:
        return None
    return q // 2


def minimal_model_stage(grl: GradedLie2) -> GradedLie2:
    """The dual stage, which is the algebra itself: its differential is the
    bracket matrix transposed, the algebra's own
    ``reduced.quotient_rows()``.  It stays only while
    ``perfbench/tracer.TRACED`` wraps it by name."""
    return grl
