"""Spanning cycle blow-up covers of dense graphs.

Library layout:
  core           graphs, cluster families, verifiers
  blowup_search  BlowupSearch, the subset DFS of connector and biclique search
  cover          s-block partition and its density guard, cover pipelines,
                 reduced Hamilton cycles and singleton absorption, the
                 spanning cycle blow-up driver (connect and wind)
  generators     seeded instance generators
  lemmas         lemma library: hypergraphs, degree inheritance, partite
                 densities and lower-regular tuples, hypergraph matchings,
                 bicliques
  cli            command line entry points

The package re-exports the pipeline, the verifiers and the generators. A
solve runs nothing of the lemma library: its routines are imported from
cyclecover.lemmas, which only cli imports and `import cyclecover` does not
load.
"""

from .blowup_search import BlowupSearch, connect_clusters
from .core import (
    BALANCE_EXACT,
    BALANCE_QUASI,
    BALANCE_WITHIN,
    Blowup,
    CycleBlowupCertificate,
    FAIL,
    Graph,
    PASS,
    SetFamily,
    Verdict,
    canonical_cycle,
    graph_from_text,
    graph_to_text,
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
    GNP_REPAIRED,
    GeneratorSpec,
    generate,
)

__all__ = [
    "ALMOST",
    "AbsorbResult",
    "AbsorptionError",
    "BALANCE_EXACT",
    "BALANCE_QUASI",
    "BALANCE_WITHIN",
    "Blowup",
    "BlowupSearch",
    "CLIQUE_UNION_PLUS",
    "CoverParams",
    "CoverResult",
    "CycleBlowupCertificate",
    "DIRAC_EXTREMAL",
    "FAIL",
    "GNP_REPAIRED",
    "GeneratorSpec",
    "Graph",
    "PASS",
    "PRESETS",
    "PipelineFailure",
    "SIMPLE",
    "SetFamily",
    "Verdict",
    "absorb_singleton",
    "almost_blowup_cover",
    "canonical_cycle",
    "connect_clusters",
    "dirac_hamilton_cycle",
    "generate",
    "graph_from_text",
    "graph_to_text",
    "is_complete_bipartite",
    "min_degree",
    "simple_blowup_cover",
    "spanning_cycle_blowup",
    "verify_blowup_hosted",
    "verify_cover",
    "verify_cycle_blowup",
]

__version__ = "0.1.0"
