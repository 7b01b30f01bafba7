"""The names the pipeline benchmark (perfbench/) wraps or imports must exist.

perfbench/spans.py is loaded from its file, without writing bytecode next to
it; it imports only the standard library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_is_a_callable(monkeypatch):
    spans = _load_spans(monkeypatch)
    missing = []
    for mod, names in spans.LAYERS.items():
        module = importlib.import_module(f"{spans.PACKAGE}.{mod}")
        missing += [f"{mod}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []


def test_names_the_output_checks_import_exist():
    from edgecert import certify, cli, graph
    from edgecert.noise import DeltaPolicy, EdgeDropSpec

    assert callable(certify.certified_k)
    assert callable(certify.ConfidenceBounds)
    assert callable(graph.khop_subgraph)
    for name in ("parse_config", "resolve_config", "config_hash", "load_dataset", "split_nodes"):
        assert callable(getattr(cli, name, None)), name
    cfg = cli.resolve_config(dict(cli.CONFIG_DEFAULTS))
    assert isinstance(cfg.raw, dict)
    assert cfg["mu"] == cfg.raw["mu"]
    assert isinstance(cfg.delta_policy, DeltaPolicy)
    assert isinstance(cfg.edgedrop, EdgeDropSpec)
    assert all(isinstance(k, int) for k in cfg.k_grid)
