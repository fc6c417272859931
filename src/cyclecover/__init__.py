"""Spanning cycle blow-up covers of dense graphs.

Library layout:
  core           graphs, hypergraphs, cluster families, verifiers
  blowup_search  biclique search, BlowupSearch, connector search
  cover          s-block partition and its density guard, cover pipelines,
                 reduced Hamilton cycles and singleton absorption, the
                 spanning cycle blow-up driver (connect and wind)
  generators     seeded instance generators
  inheritance    lemma library: degree inheritance tests, estimates, tail
                 bound
  tiling         lemma library: partite densities, lower-regular tuples,
                 hypergraph matchings
  cli            command line entry points

core, blowup_search, cover and generators, the modules the pipeline runs,
import neither lemma library module.
"""

from .blowup_search import (
    BicliqueRequest,
    BlowupSearch,
    connect_clusters,
    find_biclique,
)
from .core import (
    BALANCE_EXACT,
    BALANCE_QUASI,
    BALANCE_WITHIN,
    Blowup,
    CycleBlowupCertificate,
    FAIL,
    Graph,
    Hypergraph,
    PASS,
    SetFamily,
    Verdict,
    canonical_cycle,
    graph_from_text,
    graph_to_text,
    hypergraph_min_degree,
    is_complete_bipartite,
    min_degree,
    verify_blowup_hosted,
    verify_cycle_blowup,
)
from .cover import (
    ALMOST,
    AbsorbResult,
    AbsorptionError,
    CoverParams,
    CoverResult,
    PRESETS,
    PipelineFailure,
    SIMPLE,
    absorb_singleton,
    almost_blowup_cover,
    dirac_hamilton_cycle,
    simple_blowup_cover,
    spanning_cycle_blowup,
    verify_cover,
)
from .generators import (
    CLIQUE_UNION_PLUS,
    DIRAC_EXTREMAL,
    FROM_FILE,
    GNP_REPAIRED,
    GeneratorSpec,
    KINDS,
    generate,
)
from .inheritance import (
    DegreeEstimate,
    PropertySpec,
    hypergeometric_tail_bound,
    inherits_degree,
    property_degree_estimate,
)
from .tiling import (
    EXHAUSTIVE,
    Matching,
    RegularTuple,
    check_lower_regular,
    find_lower_regular_tuple,
    hypergraph_perfect_matching,
    tuple_density,
)

__all__ = [
    "ALMOST",
    "AbsorbResult",
    "AbsorptionError",
    "BALANCE_EXACT",
    "BALANCE_QUASI",
    "BALANCE_WITHIN",
    "BicliqueRequest",
    "Blowup",
    "BlowupSearch",
    "CLIQUE_UNION_PLUS",
    "CoverParams",
    "CoverResult",
    "CycleBlowupCertificate",
    "DIRAC_EXTREMAL",
    "DegreeEstimate",
    "EXHAUSTIVE",
    "FAIL",
    "FROM_FILE",
    "GNP_REPAIRED",
    "GeneratorSpec",
    "Graph",
    "Hypergraph",
    "KINDS",
    "Matching",
    "PASS",
    "PRESETS",
    "PipelineFailure",
    "PropertySpec",
    "RegularTuple",
    "SIMPLE",
    "SetFamily",
    "Verdict",
    "absorb_singleton",
    "almost_blowup_cover",
    "canonical_cycle",
    "check_lower_regular",
    "connect_clusters",
    "dirac_hamilton_cycle",
    "find_biclique",
    "find_lower_regular_tuple",
    "generate",
    "graph_from_text",
    "graph_to_text",
    "hypergeometric_tail_bound",
    "hypergraph_min_degree",
    "hypergraph_perfect_matching",
    "inherits_degree",
    "is_complete_bipartite",
    "min_degree",
    "property_degree_estimate",
    "simple_blowup_cover",
    "spanning_cycle_blowup",
    "tuple_density",
    "verify_blowup_hosted",
    "verify_cover",
    "verify_cycle_blowup",
]

__version__ = "0.1.0"
