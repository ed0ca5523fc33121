"""Root finding in uniform random recursive trees."""

from .centrality import (
    BETWEENNESS_PAIRS,
    BETWEENNESS_SQ,
    CLOSENESS,
    DEGREE,
    JORDAN,
    MEASURES,
    RUMOR,
    SWEEP_MEASURES,
    CenterReport,
    CentralityProfile,
    Measure,
    RumorComparator,
    ScoreOverflowError,
    betweenness_pairs_scores,
    betweenness_q,
    betweenness_sq_scores,
    closeness_scores,
    compute_profile,
    degree_scores,
    jordan_scores,
    profile_csv,
    rank_vertices,
    rumor_scores,
)
from .engine import (
    generate_parent_matrix,
    max_root_fraction_batch,
    rank_index_batch,
)
from .experiments import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    ResultRecord,
    config_from_mapping,
    run_experiment,
    run_max_fraction_sweep,
    run_rank_index_sweep,
)
from .oracles import VerificationError, verify_exhaustive, verify_tree
from .persistence import TrajectoryResult, default_stride, run_trajectory
from .rng import RngStream
from .urns import (
    HoppeRun,
    hoppe_run,
    polya_diagonal_hit_exact,
    polya_diagonal_hits,
    polya_final_counts,
    polya_run,
    sample_dickman,
    sample_dickman_many,
)
from .tree import (
    EdgeListParseError,
    RecursiveTree,
    enumerate_recursive_trees,
    grow_urrt,
    num_recursive_trees,
    parse_edge_list,
    read_edge_list,
    serialize_tree,
    subtree_sizes,
    write_edge_list,
)

__version__ = "0.1.0"
