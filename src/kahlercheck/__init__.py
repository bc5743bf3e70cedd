"""Two-step nilpotent invariants of finitely presented groups.

Parses group presentations, computes the rational abelianization and
the second lower-central quotient together with the two-step graded Lie
algebra they span, and runs a battery of necessary conditions for the
group to be the fundamental group of a compact Kahler manifold.
"""

import sys

# Each public name and the module that defines it.  Names and submodules
# are loaded on first use (``__getattr__``), so ``import kahlercheck``
# loads none of the package's modules, and ``python -m kahlercheck``
# loads them in ``__main__``, which reports running out of memory there
# as one line.
_HOMES = {
    "gradedlie": ("AbelianizationData", "GradedLie2", "RelatorClass",
                  "abelianization_data", "classify_single_relator",
                  "commutator_relations", "is_free_two_step", "surface_genus"),
    "obstructions": ("ObstructionReport", "Verdict", "VerdictCode", "evaluate"),
    "presentation": ("ParseError", "Presentation", "Word", "format_presentation",
                     "parse_presentation"),
    "report": ("build_report", "render_json", "render_text"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset({"cli", "fixtures", "gradedlie", "linalg", "magnus",
                         "nilpotent", "obstructions", "presentation", "report"})


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)


__version__ = "0.1.0"

__all__ = sorted(_HOME)
