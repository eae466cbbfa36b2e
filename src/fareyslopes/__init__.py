"""Exact Farey-tessellation arithmetic.

Continued-fraction machinery, the triangulation calculus attached to an
irrational slope θ (diagrams, cutting sequences, the θ-product, roller
coasters), the character calculus of stable classes, and the interval
division engine behind rotated rank — all in exact integer arithmetic.

``import fareyslopes`` loads none of the modules below.  The first use of a
public name or a submodule loads all nine and binds every name in
``__all__`` (PEP 562), so the CLI, which imports only what each subcommand
needs, does not pay for the rest.
"""

_SUBMODULES = ("errors", "exact", "cfrac", "lattice", "invariants", "farey", "sheaves", "division", "render")


def __getattr__(name):
    if name not in __all__ and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .errors import (
        FareySlopesError, MismatchedTheta, NoPath, NotDivisionPoint, PrecisionExhausted,
        PrimePickerExhausted, SeedRejected, TolTooTight, UnsupportedObject,
    )
    from .exact import INFINITY, ZERO, ReducedFraction
    from .cfrac import (
        ConvergentTable, EventuallyPeriodic, FinitePrefix, IrrationalNumber,
        compare_theta_rational, convergents, semiconvergent, semiconvergents,
    )
    from .lattice import ThetaLatticeElement, chi, norm_to_fraction, theta_norm
    from .invariants import (
        CThetaReport, LowerBoundOnly, Stabilized, bounded_quotients, c_theta,
        construct_special_theta, d_chain, special_conditions_hold,
    )
    from .farey import (
        CuttingSequence, FareyDiagram, FareyTree, FareyTriangle, RollerCoaster, bottom,
        cutting_sequence, farey_diagram, farey_tree, is_farey_geodesic, left_right_vertices,
        roller_coaster, shortest_path_bundle, slope_lt, theta_product,
    )
    from .sheaves import (
        DimPair, HomReport, LimitObjectDescriptor, SheafClass, StableClass, WitnessChain,
        chi_pair, endo_dim_bound, enumerate_minimal_triangles, farey_type_image, hom_classify,
        hom_ext_dims, is_minimal_triangle, kclass_colimit_check, quotient_multiplicity,
        witness_image_chain,
    )
    from .division import (
        BeadObject, DivisionInterval, SESReport, approximate_rank, beads, divide,
        division_points, root_interval, rotated_rank, ses_check,
    )
    from .render import RenderSpec, render_svg

    bound = locals()
    globals().update((public, bound[public]) for public in __all__)
    # every name is bound now; a module with __getattr__ makes the interpreter
    # skip its fast path for every attribute read, so the hook removes itself
    globals().pop("__getattr__", None)
    return globals()[name]


__all__ = [
    "FareySlopesError",
    "MismatchedTheta",
    "NoPath",
    "NotDivisionPoint",
    "PrecisionExhausted",
    "PrimePickerExhausted",
    "SeedRejected",
    "TolTooTight",
    "UnsupportedObject",
    "INFINITY",
    "ZERO",
    "ReducedFraction",
    "ConvergentTable",
    "EventuallyPeriodic",
    "FinitePrefix",
    "IrrationalNumber",
    "compare_theta_rational",
    "convergents",
    "semiconvergent",
    "semiconvergents",
    "ThetaLatticeElement",
    "chi",
    "norm_to_fraction",
    "theta_norm",
    "CThetaReport",
    "LowerBoundOnly",
    "Stabilized",
    "bounded_quotients",
    "c_theta",
    "construct_special_theta",
    "d_chain",
    "special_conditions_hold",
    "CuttingSequence",
    "FareyDiagram",
    "FareyTree",
    "FareyTriangle",
    "RollerCoaster",
    "bottom",
    "cutting_sequence",
    "farey_diagram",
    "farey_tree",
    "is_farey_geodesic",
    "left_right_vertices",
    "roller_coaster",
    "shortest_path_bundle",
    "slope_lt",
    "theta_product",
    "DimPair",
    "HomReport",
    "LimitObjectDescriptor",
    "SheafClass",
    "StableClass",
    "WitnessChain",
    "chi_pair",
    "endo_dim_bound",
    "enumerate_minimal_triangles",
    "farey_type_image",
    "hom_classify",
    "hom_ext_dims",
    "is_minimal_triangle",
    "kclass_colimit_check",
    "quotient_multiplicity",
    "witness_image_chain",
    "BeadObject",
    "DivisionInterval",
    "SESReport",
    "approximate_rank",
    "beads",
    "divide",
    "division_points",
    "root_interval",
    "rotated_rank",
    "ses_check",
    "RenderSpec",
    "render_svg",
]
