"""Tree trace reconstruction under node-deletion channels.

Ordered labeled trees, the TED and left-propagation deletion channels with
exact enumeration oracles, the studied instance families, mean-based and
max-likelihood string reconstructors, the tree reconstruction pipelines,
and a reproducible Monte Carlo experiment harness.
"""

from .channels import (
    ChannelSpec,
    InvalidDeletionError,
    SizeCapError,
    StaleTargetError,
    TraceDistribution,
    lp_apply,
    lp_trace,
    lp_trace_set,
    string_trace,
    string_trace_prob,
    ted_apply,
    ted_trace,
    ted_trace_distribution,
)
from .harness import (
    BudgetExceededError,
    ExperimentSpec,
    ResultRow,
    UnknownFamilyError,
    doubling_search,
    fnv1a64,
    run_experiment,
    verify_suite,
)
from .instances import (
    EncodedInstance,
    buffer_length,
    encode_string_as_tree,
    enumerate_fuzzy_trees,
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
    distinguish_pair,
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
    Node,
    SymbolString,
    Tree,
    TreeTextError,
    build_tree,
    dyck_string,
    enumerate_trees,
    format_tree,
    parse_tree,
    preorder,
    preorder_label_string,
    tree_from_dyck,
    trees_equal,
)

__version__ = "0.1.0"
