"""Robustness certificates for message-passing node classifiers.

The package certifies predictions of a smoothed graph classifier against
adversaries who fully control the features of up to rho nodes: random edge
deletion and node ablation intercept adversarial messages, and per-node
certificates follow from bounding the probability that any such message
reaches the target.
"""

from .graph import Graph, ReceptiveField, load_graph, receptive_field, receptive_fields
from .smoothing import SmoothingConfig, SmoothedSample, sample, apply
from .bounds import (
    DeltaBound,
    delta_exact_ie,
    delta_greedy_probe,
    delta_monte_carlo,
    delta_multiplicative,
    delta_node_ablation_exact,
    delta_single_source,
    delta_tree_exact,
    delta_union,
    delta_worst_case,
    levine_delta,
    max_certifiable_radius,
    worst_case_curve,
)
from .gcn import (
    GnnModel,
    LocalScorer,
    TrainConfig,
    TwoHop,
    VoteTable,
    forward,
    forward_all,
    load_checkpoint,
    load_votes,
    predict_all,
    save_checkpoint,
    save_votes,
    train,
)
from .estimator import (
    CertificateResult,
    VoteTally,
    certify,
    clopper_pearson,
    estimate,
    estimate_all,
    report,
)
from .derandomize import (
    ReducedRepresentative,
    enumerate_representatives,
    exact_label_probs,
    per_view,
    retention_count,
    savings_ratio,
)
from . import errors

__all__ = [
    "Graph", "ReceptiveField", "load_graph", "receptive_field", "receptive_fields",
    "SmoothingConfig", "SmoothedSample", "sample", "apply",
    "DeltaBound", "delta_exact_ie", "delta_greedy_probe", "delta_monte_carlo",
    "delta_multiplicative", "delta_node_ablation_exact",
    "delta_single_source", "delta_tree_exact", "delta_union",
    "delta_worst_case", "levine_delta", "max_certifiable_radius",
    "worst_case_curve",
    "GnnModel", "LocalScorer", "TrainConfig", "TwoHop", "VoteTable", "forward",
    "forward_all", "load_checkpoint", "load_votes", "predict_all",
    "save_checkpoint", "save_votes", "train",
    "CertificateResult", "VoteTally", "certify",
    "clopper_pearson", "estimate", "estimate_all", "report",
    "ReducedRepresentative", "enumerate_representatives",
    "exact_label_probs", "per_view", "retention_count", "savings_ratio",
    "errors",
]

__version__ = "0.1.0"
