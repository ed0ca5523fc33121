"""Root finding in uniform random recursive trees."""

from .centrality import MEASURES, compute_profile
from .engine import generate_parent_matrix, rank_index_batch
from .experiments import ExperimentConfig, run_experiment
from .rng import RngStream
from .tree import enumerate_recursive_trees, grow_urrt, subtree_sizes

__version__ = "0.1.0"
