"""Certified robustness for graph encoders via randomized edgedrop smoothing."""

__version__ = "0.1.0"

from .attack import AttackSpec, BudgetInfeasibleError, evasion_eval, random_global_attack, random_targeted_attack
from .certify import (
    Certificate,
    ConfidenceBounds,
    VoteTally,
    base_predict,
    beta_quantile,
    certified_accuracy,
    certified_k,
    confidence_bounds,
    majority_class,
    smoothed_predict,
)
from .encoder import Embeddings, EncoderParams, forward, init_params
from .graph import (
    Graph,
    KhopSubgraph,
    LoadReport,
    ParseError,
    SbmConfig,
    StructVector,
    khop_subgraph,
    load_graph,
    normalized_adjacency,
    sbm_generate,
    to_struct_vector,
)
from .linear_eval import LogRegModel, fit_logreg, predict
from .margin import (
    DegenerateFitError,
    WeibullFit,
    fit_reverse_weibull,
    positive_prob,
)
from .noise import (
    DeltaPolicy,
    EdgeDropSpec,
    NoiseDraw,
    apply_xor,
    delta_exact,
    delta_paper,
    mc_collision_estimate,
    sample_edgedrop,
)
from .trainer import AugConfig, TrainConfig, TrainingError, augment, grad_check, train_res
