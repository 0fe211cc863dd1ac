"""kordered: deciding, constructing and certifying k-ordered Hamiltonian cycles."""

from .core import (
    DegreeProfile,
    Graph,
    GraphError,
    bit_list,
    bits,
    degree_profile,
    density,
    edges_between,
    induced_subgraph,
    mask_of,
)
from .graph6 import (
    Graph6Error,
    decode_graph6,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
)
from .matching import (
    Matching,
    bipartite_matching_and_cover,
    maximum_matching,
)
from .hamilton import (
    HamCycle,
    HamPath,
    NotHamiltonianError,
    PathSearchResult,
    VerifyResult,
    bipartite_posa_condition,
    enumerate_hamiltonian_cycles,
    find_hamiltonian_path,
    find_s_cycle,
    hamiltonian_cycle,
    is_k_ordered,
    posa_condition,
    verify_s_cycle,
)
from .generators import (
    ClusterInstance,
    ConstructionError,
    SharpnessGraph,
    build_dense_bipartite_instance,
    build_sharpness_graph,
    build_sparse_cut_instance,
    min_degree_threshold,
    random_graph_min_degree,
    sharpness_min_degree,
)
from .extremal import (
    ClusterPair,
    ExtremalCase,
    ExtremalParams,
    ExtremalSolution,
    HypothesisViolation,
    PathSystem,
    RoutingError,
    StageError,
    classify_extremal,
    cleanup_dense,
    cleanup_sparse,
    connect_pairs,
    solve_extremal,
    solve_extremal_dense,
    solve_extremal_sparse,
)
from .regularity import RegularityVerdict, is_epsilon_regular, is_super_regular
from .experiments import (
    ExperimentReport,
    extremal_demo,
    ore_condition,
    sharpness_sweep,
    threshold_scan,
)

__version__ = "0.1.0"
