"""The names ``edgecert`` exports, which it loads on first access."""

import importlib

import pytest

import edgecert

# Every name the package exports, by the module it is documented under.
EXPORTS = {
    "attack": ["AttackSpec", "BudgetInfeasibleError", "evasion_eval", "random_global_attack",
               "random_targeted_attack"],
    "certify": ["Certificate", "ConfidenceBounds", "VoteTally", "base_predict", "beta_quantile",
                "certified_accuracy", "certified_k", "confidence_bounds", "majority_class",
                "smoothed_predict"],
    "encoder": ["Embeddings", "EncoderParams", "forward", "init_params"],
    "graph": ["Graph", "KhopSubgraph", "LoadReport", "ParseError", "SbmConfig", "StructVector",
              "khop_subgraph", "load_graph", "normalized_adjacency", "sbm_generate",
              "to_struct_vector"],
    "linear_eval": ["LogRegModel", "fit_logreg", "predict"],
    "margin": ["DegenerateFitError", "WeibullFit", "fit_reverse_weibull", "positive_prob"],
    "noise": ["DeltaPolicy", "EdgeDropSpec", "NoiseDraw", "apply_xor", "delta_exact",
              "delta_paper", "mc_collision_estimate", "sample_edgedrop"],
    "trainer": ["AugConfig", "TrainConfig", "TrainingError", "augment", "grad_check",
                "train_res"],
}


@pytest.mark.parametrize("module,name", [
    pytest.param(module, name, id=f"{module}.{name}")
    for module, names in EXPORTS.items() for name in names
])
def test_exported_name_is_its_home_module_object(module, name):
    home = importlib.import_module(f"edgecert.{module}")
    assert getattr(edgecert, name) is getattr(home, name)
    assert name in edgecert.__all__ and name in dir(edgecert)


def test_export_list_is_complete_and_unknown_names_raise():
    assert sorted(edgecert.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        edgecert.no_such_name
    assert not hasattr(edgecert, "config_hash")
    assert edgecert.__version__ == "0.1.0"


# Names edgecert.config defines, by the module that defined each before it.
MOVED = {
    "cli": ["CONFIG_DEFAULTS", "CONFIG_VERSION", "ExperimentConfig", "config_hash", "config_lines",
            "parse_config", "resolve_config"],
    "noise": ["DeltaPolicy", "EdgeDropSpec"],
    "trainer": ["AugConfig", "TrainConfig"],
    "attack": ["AttackSpec"],
    "encoder": ["DEPTH"],
}


@pytest.mark.parametrize("module", sorted(MOVED))
def test_config_names_keep_their_old_import_paths(module):
    from edgecert import config

    old = importlib.import_module(f"edgecert.{module}")
    assert all(getattr(old, name) is getattr(config, name) for name in MOVED[module])
