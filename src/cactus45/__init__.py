"""Cactus-group word algebra, the {4,5} hyperbolic Cayley tiling of the
three-letter-interval subgroup of J_4, and the Dirichlet-domain
presentation machinery for its pure subgroup.

Importing the package loads none of its layers: each public name, and
each submodule, is imported on first use (PEP 562), so a caller pays
only for the layers it reaches."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the layer that defines each public name
_LAYERS = {
    "words": """Alphabet Generator Move Presentation Verdict Word cyclic_reduce free_reduce
        invert normalize_relator same_relator_class shortlex_key substitute""",
    "cactus": """IntervalGenerator Permutation cactus_presentation is_pure
        j4_presentation j4prime_presentation project_to_symmetric push_s14_right
        subgroup_presentation""",
    "action": """GENERATOR_TABLE PureElement gamma mirror_word orbit_point
        pure_elements_within standard_generator standard_generators""",
    "complex": "CayleyBall Face PartialLinkError TilingReport build_ball check_tiling vertex_link",
    "dirichlet": """FundamentalDomain LabeledPolygon SidePairing SurfaceClass VertexCycle
        classify_identified_surface fundamental_domain poincare_presentation side_pairings
        vertex_cycles""",
    "grouptheory": """STANDARD_ELIMINATIONS GroupHom TrivialityCertificate
        WellDefinedVerdict abelianization_invariants alt_isomorphism_pair
        alt_one_relator_presentation dehn_reduce hom_well_defined one_relator_presentation
        piece_ratio surface_isomorphism_pair surface_presentation ten_generator_presentation
        tietze_eliminate verify_mutual_inverse word_problem_search""",
    "rewrite": "EqualityCertificate canonical_form sphere words_equal",
    "verify": "CriterionResult run_all run_criterion",
}
_SOURCE = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
_SUBMODULES = frozenset(_LAYERS) | {"cli", "geometry", "reference"}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SOURCE.keys() | _SUBMODULES)
