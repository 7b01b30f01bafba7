"""Random structural evasion attacks and the robust-accuracy evaluation loop.

Attacks only add edges. The targeted variant connects new edges incident to
the target's closed neighborhood (target plus direct neighbors); the global
variant injects a fixed fraction of |E| new edges anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .certify import base_predict, majority_class, smoothed_predict
from .encoder import EncoderParams
from .graph import Graph, pair_slot, slot_pair
from .linear_eval import LogRegModel
from .noise import EdgeDropSpec
from .rng import derive_seed


class BudgetInfeasibleError(ValueError):
    """Not enough absent node pairs to place the requested edges."""


@dataclass(frozen=True)
class AttackSpec:
    mode: str  # "targeted" or "global"
    budget: int = 0  # per-node edge budget (targeted)
    rate: float = 0.0  # fraction of |E| to inject (global)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("targeted", "global"):
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")


def add_edges(g: Graph, new_edges: np.ndarray) -> Graph:
    """Graph with new canonical (u < v) edges added; must be disjoint from E."""
    new_edges = np.asarray(new_edges, dtype=np.int64).reshape(-1, 2)
    if new_edges.size == 0:
        return g
    return Graph(g.n_nodes, np.vstack([g.edges, new_edges]), g.features, g.labels)


def random_targeted_attack(g: Graph, target: int, budget: int, seed: int) -> np.ndarray:
    """budget new absent edges incident to the target's closed neighborhood.

    Endpoints are chosen uniformly without replacement from the feasible
    pairs; raises BudgetInfeasibleError when fewer pairs exist.
    """
    if not (0 <= target < g.n_nodes):
        raise ValueError(f"target {target} out of range")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if budget == 0:
        return np.zeros((0, 2), dtype=np.int64)
    indptr, indices = g.csr
    closed = np.append(indices[indptr[target] : indptr[target + 1]], target)
    u = np.repeat(closed, g.n_nodes)
    v = np.tile(np.arange(g.n_nodes), closed.size)
    apart = u != v
    u, v = u[apart], v[apart]
    present = pair_slot(g.edges[:, 0], g.edges[:, 1], g.n_nodes)
    slots = np.unique(pair_slot(np.minimum(u, v), np.maximum(u, v), g.n_nodes))
    candidates = slots[~np.isin(slots, present, assume_unique=True)]
    if budget > len(candidates):
        raise BudgetInfeasibleError(
            f"budget {budget} exceeds {len(candidates)} feasible pairs around node {target}"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=budget, replace=False)
    return np.column_stack(slot_pair(candidates[np.sort(picks)], g.n_nodes))


def random_global_attack(g: Graph, rate: float, seed: int) -> Graph:
    """Graph with ceil(rate * |E|) uniformly chosen absent edges added."""
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must be in [0, 1]")
    count = ceil(rate * g.n_edges)
    if count == 0:
        return g
    n = g.n_nodes
    universe = n * (n - 1) // 2
    present = pair_slot(g.edges[:, 0], g.edges[:, 1], n)
    is_absent = np.ones(universe, dtype=bool)
    is_absent[present] = False
    absent = np.flatnonzero(is_absent)
    if count > absent.size:
        raise BudgetInfeasibleError(
            f"cannot add {count} edges; only {absent.size} absent pairs"
        )
    rng = np.random.default_rng(seed)
    chosen = absent[rng.choice(absent.size, size=count, replace=False)]
    u, v = slot_pair(np.sort(chosen), n)
    return add_edges(g, np.column_stack([u, v]))


@dataclass(frozen=True)
class EvasionRow:
    node_id: int
    budget: int
    attacked: bool
    clean_pred: int
    attacked_pred: int
    correct: bool


@dataclass(frozen=True)
class EvasionReport:
    rows: list[EvasionRow]
    accuracy: float


def evasion_eval(
    g: Graph,
    targets,
    enc: EncoderParams,
    clf: LogRegModel,
    atk: AttackSpec,
    smoothing: tuple[int, EdgeDropSpec] | None = None,
    seed: int = 0,
    k_hop: int = 2,
) -> EvasionReport:
    """Robust accuracy of the (optionally smoothed) pipeline under attack.

    For each target, the attack is applied, the node is classified on the
    perturbed graph, and the prediction is compared with the label. With
    smoothing = (mu, spec), predictions are Monte-Carlo majority votes;
    otherwise the deterministic base pipeline is used.
    """
    if g.labels is None:
        raise ValueError("evasion evaluation needs labeled targets")
    targets = [int(t) for t in targets]

    def classify(graph: Graph, node: int, vote_seed: int) -> int:
        if smoothing is None:
            return base_predict(graph, node, enc, clf, k_hop)
        mu, spec = smoothing
        tally = smoothed_predict(graph, node, enc, clf, mu, spec, k_hop, vote_seed)
        return majority_class(tally)

    attacked_global = None
    if atk.mode == "global":
        attacked_global = random_global_attack(g, atk.rate, derive_seed(atk.seed, 0))

    rows = []
    n_correct = 0
    for t in targets:
        if atk.mode == "targeted":
            delta = random_targeted_attack(g, t, atk.budget, derive_seed(atk.seed, 1, t))
            attacked_graph = add_edges(g, delta)
            was_attacked = atk.budget > 0
            budget = atk.budget
        else:
            attacked_graph = attacked_global
            was_attacked = attacked_global.n_edges > g.n_edges
            budget = attacked_global.n_edges - g.n_edges
        clean_pred = classify(g, t, derive_seed(seed, 0, t))
        attacked_pred = classify(attacked_graph, t, derive_seed(seed, 1, t))
        correct = attacked_pred == int(g.labels[t])
        n_correct += correct
        rows.append(
            EvasionRow(
                node_id=t,
                budget=budget,
                attacked=was_attacked,
                clean_pred=clean_pred,
                attacked_pred=attacked_pred,
                correct=bool(correct),
            )
        )
    accuracy = n_correct / len(targets) if targets else 0.0
    return EvasionReport(rows=rows, accuracy=accuracy)


def write_attack_report(path, report: EvasionReport, config_hash: str) -> None:
    """Attack report CSV, one row per target."""
    lines = [
        f"# config_hash={config_hash}",
        "node_id,budget,attacked,clean_pred,attacked_pred,correct",
    ]
    for r in report.rows:
        lines.append(
            f"{r.node_id},{r.budget},{r.attacked},{r.clean_pred},{r.attacked_pred},{r.correct}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
