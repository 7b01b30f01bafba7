"""Experiment orchestration: config files, dataset fixtures, and the
gen / train / certify / attack / report subcommands.

Config files are flat ``key = value`` text (see CONFIG_DEFAULTS for the
schema); every run output carries the sha256 hash of the resolved config.
All randomness flows from the root seed through named sub-streams, so a rerun
with the same config is byte-identical apart from wall-time fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .attack import (
    AttackSpec,
    EvasionReport,
    attacked_graphs,
    evasion_eval,
    write_attack_report,
)
from .certify import certified_accuracy, certify_node, write_certification_report, write_curve
from .encoder import DEPTH, forward, load_params, save_params
from .graph import Graph, SbmConfig, khop_subgraph, load_graph, sbm_generate
from .linear_eval import fit_logreg, load_logreg, predict_many, save_logreg
from .noise import DeltaPolicy, EdgeDropSpec
from .rng import STREAM_CERTIFY, STREAM_DATASET, STREAM_SPLIT, STREAM_TARGETS, derive_seed, stream_rng
from .trainer import AugConfig, TrainConfig, train_res, write_train_log

CONFIG_VERSION = 1

# Flat key = value schema with defaults; resolve_config gives each value its default's type.
CONFIG_DEFAULTS: dict[str, object] = {
    "config_version": CONFIG_VERSION,
    "seed": 0,
    # dataset: "sbm" generates a fixture; "files" loads the text formats
    "dataset": "sbm",
    "edge_path": "",
    "feature_path": "",
    "label_path": "",
    "sbm_blocks": 2,
    "sbm_nodes_per_block": 50,
    "sbm_p_in": 0.2,
    "sbm_p_out": 0.01,
    "sbm_feature_dim": 8,
    "sbm_center_scale": 1.0,
    "sbm_feature_noise_sd": 1.0,
    # transductive split fractions (must sum to 1)
    "train_frac": 0.1,
    "val_frac": 0.1,
    "test_frac": 0.8,
    # encoder dims
    "h_dim": 64,
    "d_dim": 32,
    "p_dim": 32,
    # training
    "epochs": 200,
    "learning_rate": 1e-3,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
    "p_edge_drop_view": 0.2,
    "p_feat_mask_view": 0.1,
    "temperature": 0.5,
    # smoothing / certification
    "beta_drop": 0.5,
    "mu": 200,
    "alpha": 0.001,
    "k_grid": "0,1,2,3,4,5,6",
    "delta_mode": "exact",
    "delta_e_fixed": "",
    "k_hop": 2,
    # linear evaluation
    "l2": 1e-4,
    "logreg_max_iters": 500,
    "logreg_tol": 1e-6,
    # attack
    "attack_mode": "targeted",
    "attack_budget": 5,
    "attack_rate": 0.1,
    "attack_num_targets": 0,  # 0 = all test nodes
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved config: its typed values and the stage specs built from them."""

    raw: dict[str, object]
    edgedrop: EdgeDropSpec
    delta_policy: DeltaPolicy
    k_grid: list[int]
    train_config: TrainConfig
    attack_spec: AttackSpec

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def seed(self) -> int:
        return self.raw["seed"]


class _BadValue(ValueError):
    """A config value that does not convert to its key's type."""

    def __init__(self, key: str, value, kind: type, part=None):
        shown = repr(value) if part is None else f"{value!r}: {part!r}"
        super().__init__(f"{key} = {shown} is not a valid {kind.__name__}")
        self.key = key


def _typed(key: str, value, kind: type):
    """value as kind; an int key also rejects a number that is not integral."""
    try:
        typed = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise _BadValue(key, value, kind) from None
    if kind is int and not isinstance(value, str) and typed != value:
        raise _BadValue(key, value, kind)
    return typed


def _int_list(key: str, text: str) -> list[int]:
    """Comma-separated ints; empty items are skipped."""
    items = []
    for tok in text.split(","):
        if tok.strip():
            try:
                items.append(int(tok))
            except ValueError:
                raise _BadValue(key, text, int, tok) from None
    return items


def parse_config(path) -> ExperimentConfig:
    """Read a flat key = value config file; see resolve_config."""
    values = {}
    linenos = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            values[key] = value.strip()
            linenos[key] = lineno
    try:
        return resolve_config(values)
    except _BadValue as err:
        raise ValueError(f"{path}:{linenos[err.key]}: {err}") from None


def resolve_config(values: dict) -> ExperimentConfig:
    """Typed and checked config from key -> value pairs; missing keys take their defaults.

    Each value takes the type of its CONFIG_DEFAULTS entry, and the stage specs
    are built here, so a value that a later stage would reject fails now. A
    value that does not convert names its key.
    """
    for key in values:
        if key not in CONFIG_DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
    r = {key: _typed(key, values.get(key, default), type(default))
         for key, default in CONFIG_DEFAULTS.items()}
    if r["config_version"] != CONFIG_VERSION:
        raise ValueError(f"unsupported config_version {r['config_version']}")
    if abs(r["train_frac"] + r["val_frac"] + r["test_frac"] - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    for key, least in (("mu", 1), ("h_dim", 1), ("d_dim", 1), ("p_dim", 1),
                       ("logreg_max_iters", 1), ("attack_num_targets", 0)):
        if r[key] < least:
            raise ValueError(f"{key} must be >= {least}")
    if not r["l2"] >= 0.0:
        raise ValueError("l2 must be >= 0")
    if not (0.0 < r["alpha"] < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if r["dataset"] not in ("sbm", "files"):
        raise ValueError(f"unknown dataset kind {r['dataset']!r}")
    if r["k_hop"] < DEPTH:
        raise ValueError(
            f"k_hop must be >= {DEPTH}, the encoder's depth; "
            f"k_hop = {r['k_hop']} cuts off the receptive field"
        )
    k_grid = _int_list("k_grid", r["k_grid"])
    if any(k < 0 for k in k_grid):
        raise ValueError("k_grid entries must be >= 0")
    e_fixed = r["delta_e_fixed"]
    return ExperimentConfig(
        raw=r,
        edgedrop=EdgeDropSpec(r["beta_drop"]),
        delta_policy=DeltaPolicy(
            r["delta_mode"], None if e_fixed == "" else _typed("delta_e_fixed", e_fixed, int)
        ),
        k_grid=k_grid,
        train_config=TrainConfig(
            epochs=r["epochs"],
            learning_rate=r["learning_rate"],
            adam_beta1=r["adam_beta1"],
            adam_beta2=r["adam_beta2"],
            adam_eps=r["adam_eps"],
            seed=r["seed"],
            aug=AugConfig(
                p_edge_drop_view=r["p_edge_drop_view"],
                p_feat_mask_view=r["p_feat_mask_view"],
                temperature=r["temperature"],
                res_beta_drop=r["beta_drop"],
            ),
        ),
        attack_spec=AttackSpec(
            mode=r["attack_mode"],
            budget=r["attack_budget"],
            rate=r["attack_rate"],
            seed=derive_seed(r["seed"], 100),
        ),
    )


def config_lines(cfg: ExperimentConfig) -> str:
    return "\n".join(f"{k} = {cfg.raw[k]}" for k in sorted(cfg.raw)) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_lines(cfg).encode("utf-8")).hexdigest()


def _block_centers(blocks: int, f_dim: int, scale: float) -> np.ndarray:
    """Deterministic well-separated centers: rows of a +-1 sign pattern."""
    centers = np.empty((blocks, f_dim))
    for b in range(blocks):
        for j in range(f_dim):
            centers[b, j] = 1.0 if bin(b & j).count("1") % 2 == 0 else -1.0
    return scale * centers


def build_sbm_config(cfg: ExperimentConfig) -> SbmConfig:
    r = cfg.raw
    return SbmConfig(
        blocks=r["sbm_blocks"],
        nodes_per_block=r["sbm_nodes_per_block"],
        p_in=r["sbm_p_in"],
        p_out=r["sbm_p_out"],
        feature_centers=_block_centers(r["sbm_blocks"], r["sbm_feature_dim"], r["sbm_center_scale"]),
        feature_noise_sd=r["sbm_feature_noise_sd"],
        seed=derive_seed(cfg.seed, STREAM_DATASET),
    )


def split_nodes(n: int, cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic train/val/test node split from the root seed."""
    rng = stream_rng(cfg.seed, STREAM_SPLIT)
    perm = rng.permutation(n)
    n_train = int(n * cfg.raw["train_frac"])
    n_val = int(n * cfg.raw["val_frac"])
    train = np.sort(perm[:n_train])
    val = np.sort(perm[n_train : n_train + n_val])
    test = np.sort(perm[n_train + n_val :])
    return train, val, test


def _dataset_paths(out_dir: Path) -> dict[str, Path]:
    return {
        "edges": out_dir / "edges.txt",
        "features": out_dir / "features.txt",
        "labels": out_dir / "labels.txt",
        "manifest": out_dir / "manifest.json",
    }


def write_graph_files(g: Graph, out_dir: Path) -> None:
    paths = _dataset_paths(out_dir)
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        for u, v in g.edges.tolist():
            fh.write(f"{u} {v}\n")
    with open(paths["features"], "w", encoding="utf-8") as fh:
        for i, row in enumerate(g.features.tolist()):
            fh.write(f"{i} " + " ".join(repr(x) for x in row) + "\n")
    if g.labels is not None:
        with open(paths["labels"], "w", encoding="utf-8") as fh:
            for i, c in enumerate(g.labels.tolist()):
                fh.write(f"{i} {c}\n")


def load_dataset(cfg: ExperimentConfig, out_dir: Path) -> Graph:
    if cfg.raw["dataset"] == "files":
        g, _ = load_graph(
            cfg.raw["edge_path"],
            cfg.raw["feature_path"],
            cfg.raw["label_path"] or None,
        )
        return g
    paths = _dataset_paths(out_dir)
    for key in ("edges", "features", "labels"):
        if not paths[key].exists():
            raise FileNotFoundError(f"missing dataset file {paths[key]}; run 'edgecert gen' first")
    g, _ = load_graph(paths["edges"], paths["features"], paths["labels"])
    return g


def _worker_count() -> int:
    raw = os.environ.get("EDGECERT_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"EDGECERT_THREADS must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError("EDGECERT_THREADS must be >= 0")
    return os.cpu_count() or 1 if value == 0 else value


def parallel_map(fn, items):
    """Order-preserving map, in this process.

    A worker pool's start-up cost more than it saved on the certify stage's
    votes; the name is kept for the benchmark's span table.
    """
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Write the SBM fixture in the text dataset formats plus a manifest."""
    if cfg.raw["dataset"] != "sbm":
        raise ValueError("gen only applies to dataset = sbm")
    out_dir.mkdir(parents=True, exist_ok=True)
    sbm = build_sbm_config(cfg)
    g = sbm_generate(sbm)
    write_graph_files(g, out_dir)
    manifest = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "sbm_seed": sbm.seed,
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "f_dim": g.f_dim,
        "n_classes": g.n_classes,
    }
    _write_json(_dataset_paths(out_dir)["manifest"], manifest)


def cmd_train(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Train the encoder, fit the downstream classifier, write checkpoints."""
    out_dir.mkdir(parents=True, exist_ok=True)
    g = load_dataset(cfg, out_dir)
    if g.labels is None:
        raise ValueError("training requires labeled nodes")
    r = cfg.raw
    result = train_res(
        g,
        cfg.train_config,
        h_dim=r["h_dim"],
        d_dim=r["d_dim"],
        p_dim=r["p_dim"],
        workers=_worker_count(),
    )
    train_idx, val_idx, test_idx = split_nodes(g.n_nodes, cfg)
    Z = forward(g, result.params).Z
    clf = fit_logreg(
        Z[train_idx],
        g.labels[train_idx],
        l2=r["l2"],
        max_iters=r["logreg_max_iters"],
        tol=r["logreg_tol"],
    )
    preds_val = predict_many(clf, Z[val_idx])
    preds_test = predict_many(clf, Z[test_idx])
    val_acc = float((preds_val == g.labels[val_idx]).mean()) if val_idx.size else 0.0
    test_acc = float((preds_test == g.labels[test_idx]).mean()) if test_idx.size else 0.0
    save_params(out_dir / "encoder.ckpt", result.params)
    save_logreg(out_dir / "classifier.ckpt", clf)
    write_train_log(out_dir / "train_log.csv", result, config_hash(cfg))
    summary = {
        "config_hash": config_hash(cfg),
        "epochs": r["epochs"],
        "final_loss": result.losses[-1],
        "val_accuracy": val_acc,
        "test_accuracy": test_acc,
        "classifier_converged": clf.converged,
    }
    _write_json(out_dir / "train_summary.json", summary)
    if not clf.converged:
        print(
            "edgecert train: warning: classifier_converged is false: the logistic regression "
            f"stopped at logreg_max_iters = {r['logreg_max_iters']} above logreg_tol = "
            f"{r['logreg_tol']}",
            file=sys.stderr,
        )
    return summary


def _certify_one(node, g, enc, clf, cfg: ExperimentConfig):
    return certify_node(
        g,
        int(node),
        enc,
        clf,
        mu=cfg.raw["mu"],
        spec=cfg.edgedrop,
        alpha=cfg.raw["alpha"],
        n_classes=g.n_classes,
        policy=cfg.delta_policy,
        k_hop=cfg.raw["k_hop"],
        seed=derive_seed(cfg.seed, STREAM_CERTIFY, int(node)),
    )


def cmd_certify(cfg: ExperimentConfig, out_dir: Path) -> list:
    """Certify every test node; write the report and the accuracy curve."""
    g = load_dataset(cfg, out_dir)
    enc, clf = _load_checkpoints(out_dir)
    _, _, test_idx = split_nodes(g.n_nodes, cfg)
    results = parallel_map(partial(_certify_one, g=g, enc=enc, clf=clf, cfg=cfg), test_idx)
    certs = [cert for cert, _ in results]
    tallies = [tally for _, tally in results]
    truth = g.labels[test_idx]
    chash = config_hash(cfg)
    write_certification_report(out_dir / "certify_report.csv", certs, tallies, truth, chash)
    curve = certified_accuracy(certs, truth, cfg.k_grid)
    write_curve(out_dir / "certified_accuracy.csv", curve, chash)
    return certs


def _attack_targets(cfg: ExperimentConfig, test_idx: np.ndarray) -> np.ndarray:
    n_targets = cfg.raw["attack_num_targets"]
    if n_targets <= 0 or n_targets >= test_idx.size:
        return test_idx
    rng = stream_rng(cfg.seed, STREAM_TARGETS)
    return np.sort(rng.choice(test_idx, size=n_targets, replace=False))


def cmd_attack(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Evaluate smoothed and unsmoothed pipelines under the configured attack."""
    g = load_dataset(cfg, out_dir)
    enc, clf = _load_checkpoints(out_dir)
    _, _, test_idx = split_nodes(g.n_nodes, cfg)
    targets = _attack_targets(cfg, test_idx)
    atk = cfg.attack_spec
    k_hop = cfg.raw["k_hop"]
    eval_seed = derive_seed(cfg.seed, 101)
    pipelines = {"smoothed": (cfg.raw["mu"], cfg.edgedrop), "unsmoothed": None}
    rows = {name: [] for name in pipelines}
    # each target's attack is drawn, and its clean and attacked subgraphs are
    # extracted, once; both pipelines classify it before the next one is
    # drawn, so one attacked graph is held at a time
    for t, attacked in zip(targets.tolist(), attacked_graphs(g, targets, atk)):
        subs = [(khop_subgraph(g, t, k_hop), khop_subgraph(attacked, t, k_hop))]
        for name, smoothing in pipelines.items():
            rows[name] += evasion_eval(
                g, [t], enc, clf, atk, smoothing=smoothing, seed=eval_seed, k_hop=k_hop,
                attacked=[attacked], subgraphs=subs,
            ).rows
    smoothed, unsmoothed = (EvasionReport.from_rows(rows[name]) for name in pipelines)
    chash = config_hash(cfg)
    write_attack_report(out_dir / "attack_smoothed.csv", smoothed, chash)
    write_attack_report(out_dir / "attack_unsmoothed.csv", unsmoothed, chash)
    summary = {
        "config_hash": chash,
        "attack_mode": atk.mode,
        "attack_budget": atk.budget,
        "attack_rate": atk.rate,
        "n_targets": int(targets.size),
        "robust_accuracy_smoothed": smoothed.accuracy,
        "robust_accuracy_unsmoothed": unsmoothed.accuracy,
    }
    _write_json(out_dir / "attack_summary.json", summary)
    return summary


def cmd_report(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Aggregate the stage outputs into one JSON summary document."""
    required = {
        "train_summary.json": out_dir / "train_summary.json",
        "attack_summary.json": out_dir / "attack_summary.json",
        "certified_accuracy.csv": out_dir / "certified_accuracy.csv",
    }
    missing = [name for name, path in required.items() if not path.exists()]
    if missing:
        raise FileNotFoundError(f"missing inputs for report: {', '.join(sorted(missing))}")
    with open(required["train_summary.json"], "r", encoding="utf-8") as fh:
        train_summary = json.load(fh)
    with open(required["attack_summary.json"], "r", encoding="utf-8") as fh:
        attack_summary = json.load(fh)
    curve = []
    with open(required["certified_accuracy.csv"], "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("k,"):
                continue
            k, acc = line.split(",")
            curve.append([int(k), float(acc)])
    report = {
        "schema_version": 2,
        "config_hash": config_hash(cfg),
        "versions": {
            "edgecert": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
        },
        "clean_accuracy": {
            "val": train_summary["val_accuracy"],
            "test": train_summary["test_accuracy"],
        },
        "robust_accuracy": {
            "smoothed": attack_summary["robust_accuracy_smoothed"],
            "unsmoothed": attack_summary["robust_accuracy_unsmoothed"],
        },
        "certified_accuracy_curve": curve,
    }
    _write_json(out_dir / "report.json", report)
    return report


def _load_checkpoints(out_dir: Path):
    enc_path = out_dir / "encoder.ckpt"
    clf_path = out_dir / "classifier.ckpt"
    for path in (enc_path, clf_path):
        if not path.exists():
            raise FileNotFoundError(f"missing checkpoint {path}; run 'edgecert train' first")
    return load_params(enc_path), load_logreg(clf_path)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgecert",
        description="Certified robustness for graph encoders via randomized edgedrop smoothing",
    )
    parser.add_argument("command", choices=["gen", "train", "certify", "attack", "report"])
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the root seed")
    parser.add_argument("--out", default="edgecert-out", help="output directory")
    args = parser.parse_args(argv)

    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = resolve_config({**cfg.raw, "seed": args.seed})
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    commands = {
        "gen": cmd_gen,
        "train": cmd_train,
        "certify": cmd_certify,
        "attack": cmd_attack,
        "report": cmd_report,
    }
    commands[args.command](cfg, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
