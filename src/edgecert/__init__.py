"""Certified robustness for graph encoders via randomized edgedrop smoothing.

The names below are loaded on first access (PEP 562), so ``import edgecert``
loads no submodule and each CLI stage loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Exported names, by defining module.
_EXPORTS = {
    "attack": ("AttackSpec", "BudgetInfeasibleError", "evasion_eval", "random_global_attack",
               "random_targeted_attack"),
    "certify": ("Certificate", "ConfidenceBounds", "VoteTally", "base_predict", "beta_quantile",
                "certified_accuracy", "certified_k", "confidence_bounds", "majority_class",
                "smoothed_predict"),
    "encoder": ("Embeddings", "EncoderParams", "forward", "init_params"),
    "graph": ("Graph", "KhopSubgraph", "LoadReport", "ParseError", "SbmConfig", "StructVector",
              "khop_subgraph", "load_graph", "normalized_adjacency", "sbm_generate",
              "to_struct_vector"),
    "linear_eval": ("LogRegModel", "fit_logreg", "predict"),
    "margin": ("DegenerateFitError", "WeibullFit", "fit_reverse_weibull", "positive_prob"),
    "noise": ("DeltaPolicy", "EdgeDropSpec", "NoiseDraw", "apply_xor", "delta_exact",
              "delta_paper", "mc_collision_estimate", "sample_edgedrop"),
    "trainer": ("AugConfig", "TrainConfig", "TrainingError", "augment", "grad_check",
                "train_res"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
