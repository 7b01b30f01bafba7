"""Output checks and digests for one gen|train|certify|attack|report run directory.

Every check recomputes a stage output from the others, or from edgecert's
public functions, and records a pass or a failure with its reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

OUTPUT_FILES = (
    "edges.txt", "features.txt", "labels.txt", "manifest.json",
    "encoder.ckpt", "classifier.ckpt", "train_log.csv", "train_summary.json",
    "certify_report.csv", "certified_accuracy.csv",
    "attack_smoothed.csv", "attack_unsmoothed.csv", "attack_summary.json",
    "report.json",
)


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file; train_log.csv without its wall_ms column."""
    out = {}
    for name in OUTPUT_FILES:
        data = (out_dir / name).read_bytes()
        if name == "train_log.csv":
            lines = data.decode("utf-8").splitlines()
            data = "\n".join(line.rsplit(",", 1)[0] if not line.startswith("#") else line
                             for line in lines).encode("utf-8")
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def _csv_rows(path: Path) -> tuple[str, list[dict]]:
    """(config hash from the comment line, rows as dicts)."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        rows = list(csv.DictReader(fh))
    return first.partition("config_hash=")[2], rows


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class CheckLog:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), "" if ok else detail))

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.results if not ok]


def check_run(out_dir: Path, config_path: Path, seed: int) -> tuple[CheckLog, dict]:
    """Run every output check; returns the log and a summary of the results.

    The summary holds the accuracies, the certified-accuracy curve and the
    per-node subgraph sizes (nodes, edges) of the certified nodes.
    """
    from edgecert import cli
    from edgecert.certify import ConfidenceBounds, certified_k
    from edgecert.graph import khop_subgraph

    log = CheckLog()
    cfg = cli.parse_config(config_path)
    cfg = cli.resolve_config({**cfg.raw, "seed": seed})
    chash = cli.config_hash(cfg)
    g = cli.load_dataset(cfg, out_dir)
    _, _, test_idx = cli.split_nodes(g.n_nodes, cfg)
    mu = int(cfg["mu"])
    k_hop = int(cfg["k_hop"])

    manifest = _json(out_dir / "manifest.json")
    log.check("manifest.shape",
              manifest["n_nodes"] == g.n_nodes and manifest["n_edges"] == g.n_edges,
              f"manifest {manifest['n_nodes']}/{manifest['n_edges']} vs {g.n_nodes}/{g.n_edges}")

    # certify_report.csv
    report_hash, cert_rows = _csv_rows(out_dir / "certify_report.csv")
    ids = [int(r["node_id"]) for r in cert_rows]
    log.check("certify.rows_match_test_split", ids == test_idx.tolist(),
              f"{len(ids)} rows vs {test_idx.size} test nodes")
    log.check("certify.true_labels", all(int(r["true_label"]) == int(g.labels[int(r["node_id"])])
                                         for r in cert_rows), "true_label differs from labels.txt")
    log.check("certify.votes_le_mu",
              all(int(r["mu"]) == mu and 1 <= int(r["votes_c_a"]) <= mu for r in cert_rows),
              f"votes_c_a outside [1, {mu}] or mu differs")
    bad_k = []
    sizes = []
    for r in cert_rows:
        sub = khop_subgraph(g, int(r["node_id"]), k_hop)
        d = sub.graph.n_edges
        sizes.append((sub.graph.n_nodes, d))
        bounds = ConfidenceBounds(c_a=int(r["c_a"]), p_a_lower=float(r["p_a_lower"]),
                                  p_b_upper=float(r["p_b_upper"]), alpha=float(cfg["alpha"]),
                                  n_classes=g.n_classes)
        # k_max = min(50, d) is certify_node's default cap
        expect = certified_k(bounds, d, cfg.delta_policy, cfg.edgedrop, min(50, d))
        got = None if r["certified_k"] == "" else int(r["certified_k"])
        if got != expect:
            bad_k.append(int(r["node_id"]))
    log.check("certify.certified_k_recomputed", not bad_k, f"mismatch at nodes {bad_k[:5]}")

    # certified_accuracy.csv against a recomputation from the report
    curve_hash, curve_rows = _csv_rows(out_dir / "certified_accuracy.csv")
    curve = [(int(r["k"]), float(r["certified_accuracy"])) for r in curve_rows]
    accs = [acc for _, acc in curve]
    log.check("curve.non_increasing", all(a >= b for a, b in zip(accs, accs[1:])), f"{accs}")
    n = len(cert_rows)
    expect_curve = []
    for k in cfg.k_grid:
        good = sum(1 for r in cert_rows if r["c_a"] == r["true_label"]
                   and r["certified_k"] != "" and int(r["certified_k"]) >= k)
        expect_curve.append((k, good / n if n else 0.0))
    log.check("curve.recomputed", curve == expect_curve, f"{curve} vs {expect_curve}")

    # attack outputs
    summary = _json(out_dir / "attack_summary.json")
    n_targets = int(cfg["attack_num_targets"])
    expect_targets = test_idx.size if n_targets <= 0 or n_targets >= test_idx.size else n_targets
    test_set = set(test_idx.tolist())
    attack_hashes = []
    for kind in ("smoothed", "unsmoothed"):
        h, rows = _csv_rows(out_dir / f"attack_{kind}.csv")
        attack_hashes.append(h)
        nodes = [int(r["node_id"]) for r in rows]
        log.check(f"attack.{kind}.rows_match_targets",
                  len(nodes) == expect_targets == summary["n_targets"]
                  and nodes == sorted(set(nodes)) and set(nodes) <= test_set,
                  f"{len(nodes)} rows, expected {expect_targets} distinct test nodes")
        correct = sum(1 for r in rows if r["correct"] == "True")
        acc = correct / len(rows) if rows else 0.0
        log.check(f"attack.{kind}.summary_accuracy", summary[f"robust_accuracy_{kind}"] == acc,
                  f"summary {summary[f'robust_accuracy_{kind}']} vs rows {acc}")
        log.check(f"attack.{kind}.correct_column",
                  all((r["attacked_pred"] == str(int(g.labels[int(r["node_id"])])))
                      == (r["correct"] == "True") for r in rows), "correct column disagrees")
        if cfg["attack_mode"] == "targeted":
            budgets = {int(cfg["attack_budget"])}
        else:
            budgets = {math.ceil(float(cfg["attack_rate"]) * g.n_edges)}
        log.check(f"attack.{kind}.budget", {int(r["budget"]) for r in rows} <= budgets,
                  f"budget column not {budgets}")
    log.check("attack.summary_spec",
              summary["attack_mode"] == cfg["attack_mode"]
              and summary["attack_budget"] == int(cfg["attack_budget"])
              and summary["attack_rate"] == float(cfg["attack_rate"]), "summary spec differs")

    # report.json against the stage files
    train = _json(out_dir / "train_summary.json")
    report = _json(out_dir / "report.json")
    log.check("report.agrees",
              report["clean_accuracy"] == {"val": train["val_accuracy"], "test": train["test_accuracy"]}
              and report["robust_accuracy"] == {"smoothed": summary["robust_accuracy_smoothed"],
                                                "unsmoothed": summary["robust_accuracy_unsmoothed"]}
              and [tuple(p) for p in report["certified_accuracy_curve"]] == curve,
              "report.json differs from the stage files")

    # config hash in every file that carries one
    with open(out_dir / "train_log.csv", encoding="utf-8") as fh:
        log_hash = fh.readline().strip().partition("config_hash=")[2]
    carried = [manifest["config_hash"], train["config_hash"], log_hash, report_hash, curve_hash,
               *attack_hashes, summary["config_hash"], report["config_hash"]]
    log.check("config_hash.all_files", all(h == chash for h in carried), f"expected {chash}")

    result = {
        "clean_accuracy": report["clean_accuracy"],
        "robust_accuracy": report["robust_accuracy"],
        "certified_accuracy_curve": report["certified_accuracy_curve"],
        "certified_ratio": sum(1 for r in cert_rows if r["certified_k"] not in ("", "0")) / max(n, 1),
        "abstain_ratio": sum(1 for r in cert_rows if r["certified_k"] == "") / max(n, 1),
        "n_certified": n,
        "n_targets": int(summary["n_targets"]),
        "mu": mu,
        "subgraph_sizes": sizes,
    }
    return log, result
