"""Extended Conway notation, pseudodiagrams, and coloring invariants."""

from .diagram import PseudoDiagram, Tangle, build_diagram, build_tangle, denominator_close, numerator_close
from .invariants import (
    Coloring,
    PseudoDetReport,
    coloring_numbers,
    coloring_system,
    count_colors,
    determinant,
    find_colorings,
    is_colorable,
    is_strong_colorable,
    kh_property,
    pseudodeterminant,
)
from .notation import ConwayExpr, parse, render, tokenize

__all__ = [
    "Coloring",
    "ConwayExpr",
    "PseudoDetReport",
    "PseudoDiagram",
    "Tangle",
    "build_diagram",
    "build_tangle",
    "coloring_numbers",
    "coloring_system",
    "count_colors",
    "denominator_close",
    "determinant",
    "find_colorings",
    "is_colorable",
    "is_strong_colorable",
    "kh_property",
    "numerator_close",
    "parse",
    "pseudodeterminant",
    "render",
    "tokenize",
]

__version__ = "0.1.0"
