"""Random structural evasion attacks and the robust-accuracy evaluation loop.

Attacks only add edges. The targeted variant connects new edges incident to
the target's closed neighborhood (target plus direct neighbors); the global
variant injects a fixed fraction of |E| new edges anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import repeat
from math import ceil

import numpy as np

from .certify import base_predict, majority_class, smoothed_predict
from .config import AttackSpec, EdgeDropSpec
from .encoder import EncoderParams
from .graph import Graph, KhopSubgraph, pair_slot, slot_pair
from .linear_eval import LogRegModel
from .rng import derive_seed


class BudgetInfeasibleError(ValueError):
    """Not enough absent node pairs to place the requested edges."""


def add_edges(g: Graph, new_edges: np.ndarray) -> Graph:
    """Graph with new canonical (u < v) edges added; must be disjoint from E."""
    new_edges = np.asarray(new_edges, dtype=np.int64).reshape(-1, 2)
    if new_edges.size == 0:
        return g
    # each new edge goes where its slot falls among the sorted edges, so sorted
    # new edges leave the list sorted and the constructor does not sort it again
    n = g.n_nodes
    at = np.searchsorted(
        pair_slot(g.edges[:, 0], g.edges[:, 1], n), pair_slot(new_edges[:, 0], new_edges[:, 1], n)
    )
    return Graph(n, np.insert(g.edges, at, new_edges, axis=0), g.features, g.labels)


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
    n = g.n_nodes
    indptr, indices = g.csr
    closed = np.append(indices[indptr[target] : indptr[target + 1]], target)
    u = np.repeat(closed, n)
    v = np.tile(np.arange(n), closed.size)
    apart = u != v
    u, v = u[apart], v[apart]
    slots = np.sort(pair_slot(np.minimum(u, v), np.maximum(u, v), n))
    slots = slots[np.diff(slots, prepend=-1) != 0]
    # the present pairs among the slots are the edges at closed nodes
    at_closed = np.zeros(n, dtype=bool)
    at_closed[closed] = True
    touching = g.edges[at_closed[g.edges[:, 0]] | at_closed[g.edges[:, 1]]]
    absent = np.ones(slots.size, dtype=bool)
    absent[np.searchsorted(slots, pair_slot(touching[:, 0], touching[:, 1], n))] = False
    candidates = slots[absent]
    if budget > len(candidates):
        raise BudgetInfeasibleError(
            f"budget {budget} exceeds {len(candidates)} feasible pairs around node {target}"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=budget, replace=False)
    return np.column_stack(slot_pair(candidates[np.sort(picks)], n))


def random_global_attack(g: Graph, rate: float, seed: int) -> Graph:
    """Graph with ceil(rate * |E|) uniformly chosen absent edges added.

    The picks are ranks k among the n(n-1)/2 - |E| absent slots, drawn by
    ``rng.choice`` from that count alone, so no per-pair array is built.
    Since ``present[j] - j`` absent slots precede present slot j, rank k is
    slot ``k + #{j : present[j] - j <= k}``.
    """
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must be in [0, 1]")
    count = ceil(rate * g.n_edges)
    if count == 0:
        return g
    n = g.n_nodes
    present = pair_slot(g.edges[:, 0], g.edges[:, 1], n)
    n_absent = n * (n - 1) // 2 - present.size
    if count > n_absent:
        raise BudgetInfeasibleError(
            f"cannot add {count} edges; only {n_absent} absent pairs"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(n_absent, size=count, replace=False)
    slots = picks + np.searchsorted(present - np.arange(present.size), picks, side="right")
    return add_edges(g, np.column_stack(slot_pair(slots, n)))


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

    @classmethod
    def from_rows(cls, rows: list[EvasionRow]) -> EvasionReport:
        n_correct = sum(row.correct for row in rows)
        return cls(rows=rows, accuracy=n_correct / len(rows) if rows else 0.0)


def attacked_graphs(g: Graph, targets, atk: AttackSpec) -> Iterator[Graph]:
    """The graph each target is classified on under ``atk``, in target order:
    its own targeted attack, drawn when it is reached, or the one global
    attack that every target shares."""
    if atk.mode == "global":
        return repeat(random_global_attack(g, atk.rate, derive_seed(atk.seed, 0)), len(targets))
    return (
        add_edges(g, random_targeted_attack(g, t, atk.budget, derive_seed(atk.seed, 1, t)))
        for t in map(int, targets)
    )


def evasion_eval(
    g: Graph,
    targets,
    enc: EncoderParams,
    clf: LogRegModel,
    atk: AttackSpec,
    smoothing: tuple[int, EdgeDropSpec] | None = None,
    seed: int = 0,
    k_hop: int = 2,
    *,
    attacked: Iterable[Graph] | None = None,
    subgraphs: Iterable[tuple[KhopSubgraph, KhopSubgraph]] | None = None,
) -> EvasionReport:
    """Robust accuracy of the (optionally smoothed) pipeline under attack.

    For each target, the attack is applied, the node is classified on the
    perturbed graph, and the prediction is compared with the label. With
    smoothing = (mu, spec), predictions are Monte-Carlo majority votes;
    otherwise the deterministic base pipeline is used. ``attacked`` holds
    the targets' attacked graphs, as :func:`attacked_graphs` draws them when
    not given; passing them lets two pipelines face one attack.
    ``subgraphs`` holds each target's k-hop subgraphs of the clean and of
    the attacked graph, extracted per pipeline when not given; passing them
    lets two pipelines share one extraction.
    """
    if g.labels is None:
        raise ValueError("evasion evaluation needs labeled targets")
    targets = [int(t) for t in targets]
    if attacked is None:
        attacked = attacked_graphs(g, targets, atk)
    if subgraphs is None:
        subgraphs = repeat((None, None), len(targets))

    def classify(graph: Graph, node: int, sub: KhopSubgraph | None, view: int) -> int:
        if smoothing is None:
            return base_predict(graph, node, enc, clf, k_hop, sub=sub)
        mu, spec = smoothing
        vote_seed = derive_seed(seed, view, node)
        tally = smoothed_predict(graph, node, enc, clf, mu, spec, k_hop, vote_seed, sub=sub)
        return majority_class(tally)

    rows = []
    for t, attacked_graph, (clean_sub, attacked_sub) in zip(
        targets, attacked, subgraphs, strict=True
    ):
        budget = attacked_graph.n_edges - g.n_edges
        clean_pred = classify(g, t, clean_sub, 0)
        attacked_pred = classify(attacked_graph, t, attacked_sub, 1)
        rows.append(
            EvasionRow(
                node_id=t,
                budget=budget,
                attacked=budget > 0,
                clean_pred=clean_pred,
                attacked_pred=attacked_pred,
                correct=bool(attacked_pred == int(g.labels[t])),
            )
        )
    return EvasionReport.from_rows(rows)


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
