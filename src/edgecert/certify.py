"""Smoothed prediction by Monte-Carlo majority vote and robustness certification.

For a target node, the k-hop subgraph is flattened into a structure vector;
each of mu draws drops present edges independently, by a hash of the draw and
the edge's global identity, and one batched kernel
classifies the center node's encoder output under every draw's keep mask.
Vote counts give Beta-quantile confidence bounds, and the certified
perturbation size is the largest k whose margin beats twice the collision
bound Delta(k).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, relu
from .graph import Graph, KhopSubgraph, StructVector, khop_subgraph, slot_pair, to_struct_vector
from .linear_eval import LogRegModel, logits_many
from .noise import DeltaPolicy, EdgeDropSpec, delta_bound, sample_edgedrop


@dataclass(frozen=True)
class VoteTally:
    """Per-class vote counts from mu smoothed predictions of one node."""

    counts: dict[int, int]
    mu: int
    target_node: int

    def __post_init__(self):
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        if not self.counts:
            raise ValueError("empty vote tally")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative vote count")
        if sum(self.counts.values()) != self.mu:
            raise ValueError("vote counts must sum to mu")


@dataclass(frozen=True)
class ConfidenceBounds:
    c_a: int
    p_a_lower: float
    p_b_upper: float
    alpha: float
    n_classes: int

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if not (0.0 <= self.p_a_lower <= 1.0 and 0.0 <= self.p_b_upper <= 1.0):
            raise ValueError("bounds must lie in [0, 1]")
        if self.p_b_upper > 1.0 - self.p_a_lower + 1e-12:
            raise ValueError("p_b_upper must not exceed 1 - p_a_lower")


@dataclass(frozen=True)
class Certificate:
    node: int
    c_a: int
    certified_k: int | None
    bounds: ConfidenceBounds
    delta_mode: DeltaPolicy
    d: int


def beta_quantile(q: float, u: float, w: float) -> float:
    """q-th quantile of Beta(u, w).

    Inverts the regularized incomplete beta function I_x(u, w) = q with
    ``scipy.special.betaincinv``.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must be in (0, 1)")
    if u <= 0.0 or w <= 0.0:
        raise ValueError("shape parameters must be positive")
    from scipy.special import betaincinv

    return float(betaincinv(u, w, q))


def majority_class(t: VoteTally) -> int:
    """Class with the most votes; ties break toward the smallest class id."""
    best = max(t.counts.values())
    return min(c for c, n in t.counts.items() if n == best)


def confidence_bounds(t: VoteTally, alpha: float, n_classes: int) -> ConfidenceBounds:
    """Simultaneous Beta-quantile bounds on the top-class vote probability.

    p_a_lower = B(alpha/C; m_a, mu - m_a + 1) for the majority class, and for
    every other class p_c_upper = B(1 - alpha/C; m_c + 1, mu - m_c), with the
    runner-up bound capped at 1 - p_a_lower.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if any(c < 0 or c >= n_classes for c in t.counts):
        raise ValueError("vote tally contains class ids outside range")
    c_a = majority_class(t)
    m_a = t.counts.get(c_a, 0)
    q = alpha / n_classes
    p_a_lower = beta_quantile(q, m_a, t.mu - m_a + 1)
    p_c_upper = 0.0
    for c in range(n_classes):
        if c == c_a:
            continue
        m_c = t.counts.get(c, 0)
        if t.mu - m_c == 0:
            upper = 1.0
        else:
            upper = beta_quantile(1.0 - q, m_c + 1, t.mu - m_c)
        p_c_upper = max(p_c_upper, upper)
    p_b_upper = min(p_c_upper, 1.0 - p_a_lower)
    return ConfidenceBounds(
        c_a=c_a, p_a_lower=p_a_lower, p_b_upper=p_b_upper, alpha=alpha, n_classes=n_classes
    )


def certified_k(
    b: ConfidenceBounds, d: int, policy: DeltaPolicy, spec: EdgeDropSpec, k_max: int
) -> int | None:
    """Largest k in [0, k_max] with p_a_lower - p_b_upper > 2*Delta(k).

    Delta is nondecreasing in k, so a linear scan suffices. Returns None when
    the condition already fails at k = 0 (non-positive margin).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    margin = b.p_a_lower - b.p_b_upper
    if margin <= 0.0:
        return None
    best = None
    for k in range(k_max + 1):
        if margin > 2.0 * delta_bound(k, d, policy, spec):
            best = k
        else:
            break
    return best


def certified_accuracy(certs, truth, k_grid) -> list[tuple[int, float]]:
    """Certified-accuracy curve: fraction of nodes correct and certified >= k."""
    truth = np.asarray(truth, dtype=np.int64)
    if len(certs) != truth.size:
        raise ValueError("certificates and labels must align")
    curve = []
    for k in k_grid:
        if truth.size == 0:
            curve.append((int(k), 0.0))
            continue
        good = sum(
            1
            for cert, y in zip(certs, truth)
            if cert.c_a == y and cert.certified_k is not None and cert.certified_k >= k
        )
        curve.append((int(k), good / truth.size))
    return curve


# Working-memory budget of one center_logits chunk; fixes how many draws share
# one batched propagation.
CHUNK_BYTES = 1 << 18


def center_logits(
    edges: np.ndarray,
    keep: np.ndarray,
    features: np.ndarray,
    center: int,
    enc: EncoderParams,
    clf: LogRegModel,
) -> np.ndarray:
    """Center-node class logits of a local graph under each row of a keep mask.

    ``edges`` is the (d, 2) edge list of an n-node graph and ``keep`` a
    (draws, d) boolean mask; row i of the (draws, n_classes) result is the
    classifier's logits for ``center`` on the graph holding only the edges
    with keep[i] set. The center row of the second propagation reads the
    first only at the center's closed neighbourhood R, so each draw builds
    just the (|R|, n) rows of its normalized adjacency. Draws run in chunks
    of about CHUNK_BYTES of working memory.
    """
    n = features.shape[0]
    u, v = edges[:, 0], edges[:, 1]
    R = np.unique(np.concatenate([[center], u[v == center], v[u == center]]))
    r = R.size
    row = np.full(n, -1, dtype=np.int64)
    row[R] = np.arange(r)
    # nonzeros of the (r, n) block, flat: edge entries in rows of R, then the diagonal
    at_u = np.flatnonzero(row[u] >= 0)
    at_v = np.flatnonzero(row[v] >= 0)
    nz_edge = np.concatenate([at_u, at_v])
    nz_flat = np.concatenate([row[u[at_u]] * n + v[at_u], row[v[at_v]] * n + u[at_v],
                              np.arange(r) * n + R])
    center_row = row[center] * n + R
    ends = np.concatenate([u, v])
    XW1 = features @ enc.W1
    # float64 words per draw: block rows, first-propagation rows, degrees, keep row
    step = max(1, CHUNK_BYTES // (8 * (r * (n + XW1.shape[1]) + 2 * n + u.size)))
    out = []
    for lo in range(0, keep.shape[0], step):
        kf = keep[lo : lo + step].astype(np.float64)
        m = kf.shape[0]
        # each draw's degree vector; sums of 0.0/1.0 weights are exact
        flat = (np.arange(m)[:, None] * n + ends).ravel()
        deg = np.bincount(flat, weights=np.tile(kf, 2).ravel(), minlength=m * n)
        dinv = 1.0 / np.sqrt(deg.reshape(m, n) + 1.0)
        w = dinv[:, u[nz_edge]] * dinv[:, v[nz_edge]] * kf[:, nz_edge]
        block = np.zeros((m, r * n))
        block[:, nz_flat] = np.hstack([w, dinv[:, R] * dinv[:, R]])
        H1 = relu(block.reshape(m * r, n) @ XW1).reshape(m, r, -1)
        z = (block[:, None, center_row] @ H1)[:, 0] @ enc.W2
        out.append(logits_many(clf, z))
    return np.concatenate(out)


def vote_on_struct_vector(
    v: StructVector,
    nodes: np.ndarray,
    features: np.ndarray,
    center: int,
    enc: EncoderParams,
    clf: LogRegModel,
    mu: int,
    spec: EdgeDropSpec,
    seed: int,
) -> VoteTally:
    """Monte-Carlo vote over mu edgedrop draws of a local structure vector.

    ``nodes`` holds the global ids of the local nodes. Local edge (a, b) is
    keyed by its global identity ``nodes[a] << 32 | nodes[b]``, one
    :func:`sample_edgedrop` call draws the keep masks of all mu draws, and
    :func:`center_logits` classifies them at once.
    """
    nodes = np.asarray(nodes, dtype=np.uint64)
    if nodes.size and int(nodes.max()) >> 32:
        raise ValueError("global node ids must fit in 32 bits")
    edges = np.column_stack(slot_pair(v.present, nodes.size))
    keys = (nodes[edges[:, 0]] << np.uint64(32)) | nodes[edges[:, 1]]
    keep = sample_edgedrop(keys, spec, seed, mu)
    classes = np.argmax(center_logits(edges, keep, features, center, enc, clf), axis=1)
    return VoteTally(counts=dict(Counter(classes.tolist())), mu=mu, target_node=center)


def _vote_subgraph(
    sub: KhopSubgraph,
    node: int,
    enc: EncoderParams,
    clf: LogRegModel,
    mu: int,
    spec: EdgeDropSpec,
    seed: int,
) -> VoteTally:
    v = to_struct_vector(sub.graph)
    tally = vote_on_struct_vector(
        v, sub.nodes, sub.graph.features, sub.center, enc, clf, mu, spec, seed
    )
    return VoteTally(counts=tally.counts, mu=mu, target_node=node)


def smoothed_predict(
    g: Graph,
    node: int,
    enc: EncoderParams,
    clf: LogRegModel,
    mu: int,
    spec: EdgeDropSpec,
    k_hop: int,
    seed: int,
) -> VoteTally:
    """Vote tally of the smoothed predictor at one node, deterministic given seed."""
    return _vote_subgraph(khop_subgraph(g, node, k_hop), node, enc, clf, mu, spec, seed)


def base_predict(g: Graph, node: int, enc: EncoderParams, clf: LogRegModel, k_hop: int) -> int:
    """Unsmoothed pipeline: classify the node from its clean k-hop subgraph.

    The vote kernel with every edge kept, so smoothing with beta_drop = 0
    reproduces it vote for vote.
    """
    sub = khop_subgraph(g, node, k_hop)
    keep = np.ones((1, sub.graph.n_edges), dtype=bool)
    logits = center_logits(sub.graph.edges, keep, sub.graph.features, sub.center, enc, clf)
    return int(np.argmax(logits[0]))


def certify_node(
    g: Graph,
    node: int,
    enc: EncoderParams,
    clf: LogRegModel,
    mu: int,
    spec: EdgeDropSpec,
    alpha: float,
    n_classes: int,
    policy: DeltaPolicy,
    k_hop: int,
    seed: int,
    k_max: int | None = None,
) -> tuple[Certificate, VoteTally]:
    """Full certification of one node: vote, bound, scan for the certified size."""
    sub = khop_subgraph(g, node, k_hop)
    d = sub.graph.n_edges
    tally = _vote_subgraph(sub, node, enc, clf, mu, spec, seed)
    bounds = confidence_bounds(tally, alpha, n_classes)
    cap = min(50, d) if k_max is None else k_max
    ck = certified_k(bounds, d, policy, spec, cap)
    cert = Certificate(
        node=node, c_a=bounds.c_a, certified_k=ck, bounds=bounds, delta_mode=policy, d=d
    )
    return cert, tally


def write_certification_report(path, certs, tallies, truth, config_hash: str) -> None:
    """Certification report CSV, one row per node."""
    truth = np.asarray(truth, dtype=np.int64)
    lines = [
        f"# config_hash={config_hash}",
        "node_id,true_label,c_a,mu,votes_c_a,p_a_lower,p_b_upper,delta_mode,certified_k",
    ]
    for cert, tally, y in zip(certs, tallies, truth):
        ck = "" if cert.certified_k is None else str(cert.certified_k)
        lines.append(
            f"{cert.node},{int(y)},{cert.c_a},{tally.mu},{tally.counts.get(cert.c_a, 0)},"
            f"{cert.bounds.p_a_lower!r},{cert.bounds.p_b_upper!r},{cert.delta_mode.mode},{ck}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_curve(path, curve, config_hash: str) -> None:
    """Certified-accuracy curve CSV: k, certified_accuracy."""
    lines = [f"# config_hash={config_hash}", "k,certified_accuracy"]
    for k, acc in curve:
        lines.append(f"{k},{acc!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
