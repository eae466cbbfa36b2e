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

# each submodule, in import order, and the public names it provides
_PUBLIC = {
    "errors": "FareySlopesError MismatchedTheta NoPath NotDivisionPoint PrecisionExhausted "
    "PrimePickerExhausted SeedRejected TolTooTight UnsupportedObject",
    "exact": "INFINITY ZERO ReducedFraction",
    "cfrac": "ConvergentTable EventuallyPeriodic FinitePrefix IrrationalNumber compare_theta_rational "
    "convergents semiconvergent semiconvergents",
    "lattice": "ThetaLatticeElement chi norm_to_fraction theta_norm",
    "invariants": "CThetaReport LowerBoundOnly Stabilized bounded_quotients c_theta construct_special_theta "
    "d_chain special_conditions_hold",
    "farey": "CuttingSequence FareyDiagram FareyTree FareyTriangle RollerCoaster bottom cutting_sequence "
    "farey_diagram farey_tree is_farey_geodesic left_right_vertices roller_coaster shortest_path_bundle "
    "slope_lt theta_product",
    "sheaves": "DimPair HomReport LimitObjectDescriptor SheafClass StableClass WitnessChain chi_pair "
    "endo_dim_bound enumerate_minimal_triangles farey_type_image hom_classify hom_ext_dims "
    "is_minimal_triangle kclass_colimit_check quotient_multiplicity witness_image_chain",
    "division": "BeadObject DivisionInterval SESReport approximate_rank beads divide division_points "
    "root_interval rotated_rank ses_check",
    "render": "RenderSpec render_svg",
}
__all__ = [name for names in _PUBLIC.values() for name in names.split()]


def __getattr__(name):
    if name not in __all__ and name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for submodule, names in _PUBLIC.items():
        module = import_module(f".{submodule}", __name__)
        globals().update((public, getattr(module, public)) for public in names.split())
    # every name is bound now; a module with __getattr__ makes the interpreter
    # skip its fast path for every attribute read, so the hook removes itself
    globals().pop("__getattr__", None)
    return globals()[name]
