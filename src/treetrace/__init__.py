"""Tree trace reconstruction under node-deletion channels.

Ordered labeled trees, the TED and left-propagation deletion channels with
exact enumeration oracles, the studied instance families, mean-based and
max-likelihood string reconstructors, the tree reconstruction pipelines,
and a reproducible Monte Carlo experiment harness.
"""

from .channels import (
    InvalidDeletionError,
    SizeCapError,
    lp_trace_set,
    lp_traces,
    string_trace_prob,
    string_traces,
    ted_apply,
    ted_traces,
    trace_law,
)
from .harness import (
    BudgetExceededError,
    ExperimentSpec,
    ResultRow,
    UnknownFamilyError,
    doubling_search,
    fnv1a64,
    run_experiment,
)
from .instances import (
    EncodedInstance,
    buffer_length,
    encode_string_as_tree,
    forked_tree,
    fuzzy_degree,
    path_tree,
    random_fuzzy_tree,
    random_labels,
    random_tree,
)
from .string_recon import (
    DegeneratePairError,
    InconsistentTracesError,
    SeparationWitness,
    empirical_mean_vector,
    exact_mean_vector,
    find_separation,
    mean_reconstruct,
    ml_reconstruct,
)
from .tree_recon import (
    MergeError,
    ReconstructionFailedError,
    UndecidedPositionsError,
    dual_strings,
    merge_dual_strings,
    reconstruct_encoded,
    reconstruct_fuzzy,
    reconstruct_labels_known_topology,
)
from .trees import (
    DyckStringError,
    Tree,
    TreeTextError,
    enumerate_trees,
    format_tree,
    parse_tree,
    tree_from_dyck,
)

__version__ = "0.1.0"
