"""Two-step nilpotent invariants of finitely presented groups.

Parses group presentations, computes the rational abelianization and
the second lower-central quotient together with the two-step graded Lie
algebra they span, and runs a battery of necessary conditions for the
group to be the fundamental group of a compact Kahler manifold.
"""

from .gradedlie import (
    AbelianizationData,
    GradedLie2,
    RelatorClass,
    abelianization_data,
    classify_single_relator,
    commutator_relations,
    graded_lie_algebra,
    is_free_two_step,
    minimal_model_stage,
    surface_genus,
)
from .obstructions import ObstructionReport, Verdict, VerdictCode, evaluate
from .presentation import (
    ParseError,
    Presentation,
    Word,
    format_presentation,
    parse_presentation,
)
from .report import build_report, render_json, render_text

__version__ = "0.1.0"

__all__ = [
    "AbelianizationData",
    "GradedLie2",
    "ObstructionReport",
    "ParseError",
    "Presentation",
    "RelatorClass",
    "Verdict",
    "VerdictCode",
    "Word",
    "abelianization_data",
    "build_report",
    "classify_single_relator",
    "commutator_relations",
    "evaluate",
    "format_presentation",
    "graded_lie_algebra",
    "is_free_two_step",
    "minimal_model_stage",
    "parse_presentation",
    "render_json",
    "render_text",
    "surface_genus",
]
