"""susykit: a combinatorial calculus of SUSY graphs.

Half-edge graphs with genus labels, NS/R colorings and labeled tails; their
morphism calculus (graftings, contractions, isomorphisms and composites);
lifting of colorings onto modular graphs; a gluing calculus on moduli
signatures with dimension formulas; canonical forms; boundary-strata
enumeration with the contraction partial order; and dual graphs of
degenerate curve configurations.  The calculus, operad and curves modules
load on the first use of one of their names.
"""

from .errors import SchemaError, SusyKitError, ValidationError
from .graphs import (
    Graph,
    GraphMorphism,
    ValidationReport,
    edges,
    flags_at,
    tails,
    validate_graph,
    validate_morphism,
)
from .susy import (
    NS,
    R,
    SusyGraph,
    SusyLabeling,
    SusyMorphism,
    compose,
    disjoint_union,
    forget,
    genus,
    include,
    is_stable,
    modular_graph,
    susy_graph,
    susy_identity,
    susy_morphism,
    validate_susy_graph,
    validate_susy_morphism,
)
from .lifting import (
    count_even_partitions,
    count_lifts,
    enumerate_edge_colorings,
    lift_count_general,
    lift_tree_coloring,
)
from .canon import (
    are_isomorphic,
    automorphisms,
    canonical_form,
    certificate_digest,
    isomorphisms_between,
)
from .strata import (
    ContractionPoset,
    enumerate_modular_shapes,
    enumerate_strata,
    enumerate_strata_records,
    strata_poset,
)

# The names that the surgery calculus, the gluing operad and curve
# configurations re-export here, by module.  Each module loads on the first
# use of its own name or of one of these, through ``__getattr__``.
_DEFERRED = {
    "calculus": (
        "atomize", "classify", "commute_contractions", "commute_iso_contraction", "compose_chain",
        "contract_edge", "contract_loop", "contract_pair", "contract_tails",
        "decompose_to_elementaries", "graft", "iso_between", "make_isomorphism", "total_grafting",
    ),
    "operad": (
        "GluingRecipe", "ModuliFactor", "ModuliSignature", "check_operad_axioms",
        "evaluate_operad", "glue_ns", "glue_ns_loop", "glue_r", "glue_r_loop", "identity_recipe",
        "project", "recipe", "recipe_compose", "relabel_recipe", "signature",
        "stratum_dimension", "validate_recipe", "validate_signature",
    ),
    "curves": (
        "Component", "CurveConfig", "SpecialPoint", "colorless_dual_graph", "dual_graph",
        "validate_curve_config",
    ),
}


def __getattr__(name: str) -> object:
    """Load the module that defines ``name`` on its first use (PEP 562) and
    bind here every name of it that the package re-exports, so that later
    reads are plain global lookups."""
    home = next((m for m, names in _DEFERRED.items() if name == m or name in names), None)
    # ``from . import calculus`` would ask this hook for ``calculus`` again;
    # importing from the module itself binds it here without asking
    if home == "calculus":
        from .calculus import __dict__ as found
    elif home == "operad":
        from .operad import __dict__ as found
    elif home == "curves":
        from .curves import __dict__ as found
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update((n, found[n]) for n in _DEFERRED[home])
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED, *(n for names in _DEFERRED.values() for n in names)})


__version__ = "0.1.0"

__all__ = [
    "NS",
    "R",
    "Component",
    "ContractionPoset",
    "CurveConfig",
    "GluingRecipe",
    "Graph",
    "GraphMorphism",
    "ModuliFactor",
    "ModuliSignature",
    "SchemaError",
    "SpecialPoint",
    "SusyGraph",
    "SusyKitError",
    "SusyLabeling",
    "SusyMorphism",
    "ValidationError",
    "ValidationReport",
    "are_isomorphic",
    "atomize",
    "automorphisms",
    "canonical_form",
    "certificate_digest",
    "check_operad_axioms",
    "classify",
    "colorless_dual_graph",
    "commute_contractions",
    "commute_iso_contraction",
    "compose",
    "compose_chain",
    "contract_edge",
    "contract_loop",
    "contract_pair",
    "contract_tails",
    "count_even_partitions",
    "count_lifts",
    "decompose_to_elementaries",
    "disjoint_union",
    "dual_graph",
    "edges",
    "enumerate_edge_colorings",
    "enumerate_modular_shapes",
    "enumerate_strata",
    "enumerate_strata_records",
    "evaluate_operad",
    "flags_at",
    "forget",
    "genus",
    "glue_ns",
    "glue_ns_loop",
    "glue_r",
    "glue_r_loop",
    "graft",
    "identity_recipe",
    "include",
    "is_stable",
    "iso_between",
    "isomorphisms_between",
    "lift_count_general",
    "lift_tree_coloring",
    "make_isomorphism",
    "modular_graph",
    "project",
    "recipe",
    "recipe_compose",
    "relabel_recipe",
    "signature",
    "strata_poset",
    "stratum_dimension",
    "susy_graph",
    "susy_identity",
    "susy_morphism",
    "tails",
    "total_grafting",
    "validate_curve_config",
    "validate_graph",
    "validate_morphism",
    "validate_recipe",
    "validate_signature",
    "validate_susy_graph",
    "validate_susy_morphism",
    "__version__",
]
