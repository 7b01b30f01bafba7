"""Experiment orchestration: dataset fixtures and the
gen / train / certify / attack / report subcommands.

Config files are flat ``key = value`` text (see ``edgecert.config``, whose
parse, defaults and hash are also reached from here); every run output
carries the sha256 hash of the resolved config. All randomness flows from
the root seed through named sub-streams, so a rerun with the same config is
byte-identical apart from wall-time fields.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (CONFIG_DEFAULTS, CONFIG_VERSION, ExperimentConfig, config_hash, config_lines,
                      parse_config, resolve_config)
from .graph import Graph, SbmConfig, khop_subgraph, load_graph, sbm_generate
from .rng import (STREAM_ATTACK_EVAL, STREAM_CERTIFY, STREAM_DATASET, STREAM_SPLIT, STREAM_TARGETS,
                  derive_seed, stream_rng)

# Each cmd_* imports the modules of its own stage, so a stage process loads
# only those (gen and report: none beyond the ones above). main imports them
# before the config parse, whose SeedSequence loads numpy.random: compiled
# after it, they left the certify and attack stages peaking 0.5 MB higher.
_STAGE_MODULES = {"train": ("trainer", "linear_eval"), "certify": ("certify",), "attack": ("attack",)}


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
    from .encoder import forward, save_params
    from .linear_eval import fit_logreg, predict_many, save_logreg
    from .trainer import train_res, write_train_log

    out_dir.mkdir(parents=True, exist_ok=True)
    g = load_dataset(cfg, out_dir)
    if g.labels is None:
        raise ValueError("training requires labeled nodes")
    r = cfg.raw
    result = train_res(g, cfg.train_config, h_dim=r["h_dim"], d_dim=r["d_dim"], p_dim=r["p_dim"])
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


def cmd_certify(cfg: ExperimentConfig, out_dir: Path) -> list:
    """Certify every test node; write the report and the accuracy curve."""
    from .certify import certified_accuracy, certify_node, write_certification_report, write_curve

    g = load_dataset(cfg, out_dir)
    enc, clf = _load_checkpoints(out_dir)
    _, _, test_idx = split_nodes(g.n_nodes, cfg)

    def certify_one(node):
        return certify_node(
            g, int(node), enc, clf, mu=cfg.raw["mu"], spec=cfg.edgedrop, alpha=cfg.raw["alpha"],
            n_classes=g.n_classes, policy=cfg.delta_policy, k_hop=cfg.raw["k_hop"],
            seed=derive_seed(cfg.seed, STREAM_CERTIFY, int(node)),
        )

    results = parallel_map(certify_one, test_idx)
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
    from .attack import EvasionReport, attacked_graphs, evasion_eval, write_attack_report

    g = load_dataset(cfg, out_dir)
    enc, clf = _load_checkpoints(out_dir)
    _, _, test_idx = split_nodes(g.n_nodes, cfg)
    targets = _attack_targets(cfg, test_idx)
    atk = cfg.attack_spec
    k_hop = cfg.raw["k_hop"]
    eval_seed = derive_seed(cfg.seed, STREAM_ATTACK_EVAL)
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
    from .encoder import load_params
    from .linear_eval import load_logreg

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
    for module in _STAGE_MODULES.get(args.command, ()):
        importlib.import_module(f".{module}", __package__)

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
