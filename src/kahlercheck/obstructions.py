"""Necessary conditions for a group to be a compact Kahler fundamental group.

Each check reads only the computed two-step invariants, never the
presentation's text, and fires a verdict or stays silent.  Codes:

  NOT_KAHLER             the group is not a Kahler group
  NOT_NONFIBERED_KAHLER  it can only be Kahler by fibering over a curve
  FIBERED_EXCLUDED       no fibration genus passes the dimension counts
  INCONCLUSIVE           nothing fired (never certifies Kahler)

A verdict's ``theorem`` field is a short fixed tag naming the result
behind the test; reports and the --explain flag surface it verbatim.
"""

from enum import Enum
from math import comb
from typing import NamedTuple

from . import gradedlie
from .presentation import Presentation


class VerdictCode(Enum):
    NOT_KAHLER = "NOT_KAHLER"
    NOT_NONFIBERED_KAHLER = "NOT_NONFIBERED_KAHLER"
    FIBERED_EXCLUDED = "FIBERED_EXCLUDED"
    INCONCLUSIVE = "INCONCLUSIVE"


class Verdict(NamedTuple):
    code: VerdictCode
    theorem: str
    detail: str


CITE_EVEN_RANK = "even-rank"
CITE_FREE_ALGEBRA = "Thm 3.3"
CITE_ONE_RELATOR = "Cor 3.4"
CITE_LOW_RELATOR = "Thm 4.6"
CITE_ALBANESE = "Prop 4.5+Thm 4.6"
CITE_NONFIBERED_BOUND = "Prop 5.7"
CITE_RELATION_COUNT = "Cor 5.8"
CITE_GENUS_EXCLUSION = "Prop 5.3"
CITE_COMBINED = "combined §5"


def check_even_rank(q: int) -> Verdict | None:
    """First Betti numbers of compact Kahler manifolds are even."""
    if q % 2 == 1:
        return Verdict(VerdictCode.NOT_KAHLER, CITE_EVEN_RANK,
                       f"rational abelianization rank q = {q} is odd")
    return None


def check_free_algebra(q: int, free_two_step: bool) -> Verdict | None:
    """A free two-step algebra on q >= 1 generators kills all cup products.

    The trivial case q = 0 is excluded: the trivial group is Kahler.
    """
    if free_two_step and q >= 1:
        return Verdict(VerdictCode.NOT_KAHLER, CITE_FREE_ALGEBRA,
                       f"two-step algebra is free on q = {q} >= 1 generators")
    return None


def check_low_relator_count(s: int, q: int, surface_match: int | None,
                            single_relator_class: gradedlie.RelatorClass | None,
                            ) -> Verdict | None:
    """Groups presented with at most two relators must look like surface groups.

    Fires when s <= 2, q != 0 and the two-step algebra does not match any
    closed surface group's.
    """
    if s > 2 or q == 0 or surface_match is not None:
        return None
    one_relator_off_layer = (
        s == 1
        and single_relator_class is not gradedlie.RelatorClass.IN_GAMMA2_NOT_GAMMA3
    )
    cite = CITE_ONE_RELATOR if one_relator_off_layer else CITE_LOW_RELATOR
    return Verdict(
        VerdictCode.NOT_KAHLER, cite,
        f"s = {s} <= 2 relators, q = {q} != 0, and no surface algebra match",
    )


def albanese_bound(dim_kernel: int, q: int,
                   surface_match: int | None) -> tuple[int, Verdict | None]:
    """Largest Albanese image dimension allowed by the relation count.

    An image of dimension m >= 2 forces at least 2*C(m,2)+1 independent
    exponent-cancelling relator combinations.  When only m = 1 survives
    and q != 0, the two-step algebra must match a surface group's.
    """
    m_max = 1
    while (m_max + 1) * m_max + 1 <= dim_kernel:
        m_max += 1
    verdict = None
    if q != 0 and m_max == 1 and surface_match is None:
        verdict = Verdict(
            VerdictCode.NOT_KAHLER, CITE_ALBANESE,
            f"dim ker d0 = {dim_kernel} forces a one-dimensional Albanese image, "
            "but no surface algebra match",
        )
    return m_max, verdict


def check_nonfibered_bound(q: int, dim2: int) -> Verdict | None:
    """Upper bound on dim2 for nonfibered Kahler groups.

    With b = q the first Betti number (assumed even and >= 2), the two
    conjugate pure parts of the cup product image contribute at least
    b-3 each and the mixed part at least b-1, so
    dim2 <= b(b-1)/2 - 2(b-3) - (b-1).
    """
    if q < 2 or q % 2 == 1:
        return None
    bound = q * (q - 1) // 2 - 2 * (q - 3) - (q - 1)
    if dim2 > bound:
        return Verdict(
            VerdictCode.NOT_NONFIBERED_KAHLER, CITE_NONFIBERED_BOUND,
            f"dim2 = {dim2} > {bound} = b(b-1)/2 - 2(b-3) - (b-1) with b = {q}",
        )
    return None


def check_relation_count(n: int, k: int, s: int) -> Verdict | None:
    """Lower bound on the relator count for nonfibered Kahler groups."""
    bound = k + 2 * (n - k - 3) + (n - k - 1)
    if s < bound:
        return Verdict(
            VerdictCode.NOT_NONFIBERED_KAHLER, CITE_RELATION_COUNT,
            f"s = {s} < k + 2(n-k-3) + (n-k-1) = {bound} with n = {n}, k = {k}",
        )
    return None


def fibered_genus_exclusion(q: int, dim2: int) -> tuple[tuple[int, ...], bool]:
    """Dimension counts for surjections onto surface groups of genus >= 2.

    A genus g is admissible when 2g <= q and dim2 >= 2g^2 - g - 1, the
    dimensions of both graded pieces for the genus-g surface group.
    Returns the excluded genera among candidates and whether every
    genus is excluded.
    """
    excluded = []
    any_admissible = False
    for g in range(2, q // 2 + 1):
        if dim2 >= 2 * g * g - g - 1:
            any_admissible = True
        else:
            excluded.append(g)
    return tuple(excluded), not any_admissible


def overall_code(verdicts: tuple[Verdict, ...], all_excluded: bool) -> VerdictCode:
    """Combine fired verdicts into one outcome; order-independent."""
    codes = {v.code for v in verdicts}
    if VerdictCode.NOT_KAHLER in codes:
        return VerdictCode.NOT_KAHLER
    if VerdictCode.NOT_NONFIBERED_KAHLER in codes:
        if all_excluded:
            return VerdictCode.NOT_KAHLER
        return VerdictCode.NOT_NONFIBERED_KAHLER
    return VerdictCode.INCONCLUSIVE


class ObstructionReport(NamedTuple):
    """Everything one analysis computes: invariants, model stage, verdicts."""

    presentation: Presentation   # the input; the renderers print its text
    n: int
    s: int
    k: int
    q: int
    dim_kernel: int          # exponent-cancelling relator combinations
    dim_kernel_deg2: int     # combinations also vanishing in the wedge square
    dim_relations: int       # dim W
    dim2: int                # dim of the degree-2 graded piece
    free_two_step: bool
    surface_genus: int | None
    m_max: int
    excluded_genera: tuple[int, ...]
    all_genera_excluded: bool
    model: gradedlie.ModelStage
    verdicts: tuple[Verdict, ...]
    overall: VerdictCode


def evaluate(pres: Presentation) -> ObstructionReport:
    """Run the pipeline and every obstruction check on one presentation."""
    ab = gradedlie.abelianization_data(pres)
    rel = gradedlie.commutator_relations(ab)
    grl = gradedlie.graded_lie_algebra(ab, rel)
    return evaluate_computed(pres, ab, rel, grl)


def evaluate_computed(pres: Presentation,
                      ab: gradedlie.AbelianizationData,
                      rel: gradedlie.CommutatorRelations,
                      grl: gradedlie.GradedLie2) -> ObstructionReport:
    """Obstruction checks over an already-computed pipeline."""
    free = gradedlie.is_free_two_step(rel)
    genus = gradedlie.surface_genus(grl)
    relator_class = (
        gradedlie.classify_relator_series(ab.series[0]) if pres.s == 1 else None
    )

    q, dim2 = ab.q, rel.dim2
    m_max, albanese_verdict = albanese_bound(ab.dim_kernel, q, genus)
    checks = [
        check_even_rank(q),
        check_free_algebra(q, free),
        check_low_relator_count(pres.s, q, genus, relator_class),
        albanese_verdict,
        check_nonfibered_bound(q, dim2),
        check_relation_count(pres.n, ab.rank, pres.s),
    ]
    verdicts = [v for v in checks if v is not None]
    excluded, all_excluded = fibered_genus_exclusion(q, dim2)
    if all_excluded:
        verdicts.append(Verdict(
            VerdictCode.FIBERED_EXCLUDED, CITE_GENUS_EXCLUSION,
            f"no genus g >= 2 with 2g <= q = {q} and dim2 = {dim2} >= 2g^2 - g - 1",
        ))
    overall = overall_code(tuple(verdicts), all_excluded)
    if (overall is VerdictCode.NOT_KAHLER
            and all(v.code is not VerdictCode.NOT_KAHLER for v in verdicts)):
        verdicts.append(Verdict(
            VerdictCode.NOT_KAHLER, CITE_COMBINED,
            "excluded as nonfibered by relation counts and as fibered by "
            "genus dimension counts",
        ))
    return ObstructionReport(
        presentation=pres,
        n=pres.n, s=pres.s, k=ab.rank, q=q,
        dim_kernel=ab.dim_kernel, dim_kernel_deg2=rel.dim_kernel,
        dim_relations=rel.dim_relations, dim2=dim2,
        free_two_step=free, surface_genus=genus,
        m_max=m_max, excluded_genera=excluded,
        all_genera_excluded=all_excluded,
        model=gradedlie.minimal_model_stage(grl),
        verdicts=tuple(verdicts), overall=overall,
    )
