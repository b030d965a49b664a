"""Estimation of bifurcation values at infinity of real polynomial maps.

The package traces branches at infinity of Milnor sets to estimate the
asymptotic nonregular values of a polynomial, and implements a bounded space
of rational arcs with exact membership checks for the asymptotic conditions
and extraction of the limit value along an arc.
"""

from .poly import (
    LaurentScalar,
    ParseError,
    Polynomial,
    RationalArc,
    compose_arc,
    parse,
)
from .milnor import (
    DegenerateCenterError,
    MilnorSystem,
    default_pivot,
    malgrange_quantity,
    milnor_equations,
    rabier_nu,
)
from .arcs import (
    ArcMembershipReport,
    ArcSearchConfig,
    ArcWindow,
    ConstraintSystem,
    WindowViolationError,
    arc_window,
    check_membership,
    dims,
    emit_constraints,
    search_arcs,
    truncate,
)
from .tracer import (
    AnalysisReport,
    BranchTrace,
    DegenerateMilnorError,
    SInfinityReport,
    TraceConfig,
    estimate_limits,
    pick_generic_center,
    s_a_estimate,
    s_infinity_estimate,
    slice_solve,
    trace_branches,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ArcMembershipReport",
    "ArcSearchConfig",
    "ArcWindow",
    "BranchTrace",
    "ConstraintSystem",
    "DegenerateCenterError",
    "DegenerateMilnorError",
    "LaurentScalar",
    "MilnorSystem",
    "ParseError",
    "Polynomial",
    "RationalArc",
    "SInfinityReport",
    "TraceConfig",
    "WindowViolationError",
    "arc_window",
    "check_membership",
    "compose_arc",
    "default_pivot",
    "dims",
    "emit_constraints",
    "estimate_limits",
    "malgrange_quantity",
    "milnor_equations",
    "parse",
    "pick_generic_center",
    "rabier_nu",
    "s_a_estimate",
    "s_infinity_estimate",
    "search_arcs",
    "slice_solve",
    "trace_branches",
    "truncate",
    "__version__",
]
