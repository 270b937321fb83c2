"""Cactus-group word algebra, the {4,5} hyperbolic Cayley tiling of the
three-letter-interval subgroup of J_4, and the Dirichlet-domain
presentation machinery for its pure subgroup."""

__version__ = "0.1.0"

from .words import (
    Alphabet,
    Generator,
    Move,
    Presentation,
    Word,
    cyclic_reduce,
    free_reduce,
    invert,
    normalize_relator,
    same_relator_class,
    shortlex_key,
    substitute,
)
from .cactus import (
    IntervalGenerator,
    Permutation,
    cactus_presentation,
    is_pure,
    j4_presentation,
    j4prime_presentation,
    project_to_symmetric,
    push_s14_right,
    subgroup_presentation,
)
from .action import (
    GENERATOR_TABLE,
    PureElement,
    gamma,
    mirror_word,
    orbit_point,
    pure_elements_within,
    standard_generator,
    standard_generators,
)
from .complex import (
    CayleyBall,
    Face,
    PartialLinkError,
    TilingReport,
    build_ball,
    check_tiling,
    vertex_link,
)
from .dirichlet import (
    FundamentalDomain,
    LabeledPolygon,
    SidePairing,
    SurfaceClass,
    VertexCycle,
    classify_identified_surface,
    fundamental_domain,
    poincare_presentation,
    side_pairings,
    vertex_cycles,
)
from .grouptheory import (
    STANDARD_ELIMINATIONS,
    GroupHom,
    SearchResult,
    TrivialityCertificate,
    WellDefinedVerdict,
    abelianization_invariants,
    alt_isomorphism_pair,
    alt_one_relator_presentation,
    dehn_reduce,
    hom_well_defined,
    one_relator_presentation,
    piece_ratio,
    surface_isomorphism_pair,
    surface_presentation,
    ten_generator_presentation,
    tietze_eliminate,
    verify_mutual_inverse,
    word_problem_search,
)
from .rewrite import (
    EqualityCertificate,
    EqualityResult,
    canonical_form,
    sphere,
    words_equal,
)
from .verify import CriterionResult, run_all, run_criterion
