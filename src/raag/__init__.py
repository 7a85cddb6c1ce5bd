"""Exact computation in right-angled Artin groups.

Words and canonical forms over partially commutative generators, finite
balls of extension graphs, and certified extraction of full graph
embeddings (or non-injectivity certificates) from clique-supported
homomorphisms whose source is the complement of a linear forest.
"""

from raag.embedding import (
    CliqueChain,
    FullEmbedding,
    HomReport,
    HomSpec,
    KernelWitness,
    MechanismError,
    ReachSets,
    StructuralCertificate,
    build_clique_chain,
    extract_abelian,
    extract_anti_path,
    extract_anti_path3,
    extract_full,
    glue_join,
    obstruction_commutator,
    parse_hom,
    peel_words,
    reach_sets,
    sequence_search,
    validate_hom,
)
from raag.extension import (
    ExtBall,
    ExtVertex,
    ball_as_graph,
    enumerate_reduced_words,
    ext_adjacent,
    ext_ball,
    ext_vertex,
)
from raag.graphs import (
    EmbeddingCheck,
    Graph,
    JoinComponent,
    JoinDecomposition,
    PathLabeling,
    complement,
    complete_graph,
    format_graph,
    full_embedding_search,
    graph_join,
    graph_to_dot,
    induced_subgraph,
    join_decompose,
    parse_graph,
    path_complement,
    path_graph,
    recognize_linear_forest_complement,
    verify_full_embedding,
)
from raag.harness import HarnessConfig, HarnessReport, run_harness
from raag.words import (
    GroupElement,
    Letter,
    Word,
    canonical_form,
    commutator,
    commutes,
    conjugate,
    inverse,
    is_reduced,
    is_trivial,
    oracle_is_trivial,
    parse_word,
    product,
    reduce,
    support,
)

__version__ = "0.1.0"
