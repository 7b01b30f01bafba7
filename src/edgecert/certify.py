"""Smoothed prediction by Monte-Carlo majority vote and robustness certification.

For a target node, each of mu draws drops the present edges of its k-hop
subgraph independently, by a hash of the draw and the edge's global
identity, and one batched kernel classifies the center node's encoder output
under every draw's keep mask.
Vote counts give Beta-quantile confidence bounds, and the certified
perturbation size is the largest k whose margin beats twice the collision
bound Delta(k).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams
from .graph import Graph, KhopSubgraph, khop_subgraph
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


def _beta_cf(u: float, w: float, x: float) -> float:
    """Continued fraction K of I_x(u, w) = x**u (1 - x)**w K / (u B(u, w)).

    DLMF 8.17.22, evaluated by the modified Lentz method; it converges fast
    for x below (u + 1) / (u + w + 2).
    """
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1, 20_000):
        m = i // 2
        if i % 2:
            num = -(u + m) * (u + w + m) * x / ((u + 2 * m) * (u + 2 * m + 1))
        else:
            num = m * (w - m) * x / ((u + 2 * m - 1) * (u + 2 * m))
        d = 1.0 / ((1.0 + num * d) or 1e-300)
        c = (1.0 + num / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) <= 2.0**-50:
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at x={x!r}")


def _beta_cdf_pdf(x: float, u: float, w: float, log_beta: float) -> tuple[float, float]:
    """I_x(u, w) and the Beta(u, w) density at x, for 0 < x < 1."""
    front = math.exp(u * math.log(x) + w * math.log1p(-x) - log_beta)
    pdf = front / (x * (1.0 - x))
    if x < (u + 1.0) / (u + w + 2.0):
        return front * _beta_cf(u, w, x) / u, pdf
    return 1.0 - front * _beta_cf(w, u, 1.0 - x) / w, pdf


def _beta_quantile_guess(q: float, u: float, w: float, log_beta: float) -> float:
    """Starting point for the q-th quantile of Beta(u, w), q <= 1/2."""
    if u >= 1.0 and w >= 1.0:
        # Abramowitz & Stegun 26.5.22, with the normal quantile of 26.2.23
        t = math.sqrt(-2.0 * math.log(q))
        y = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
            1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
        )
        lam = (y * y - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * u - 1.0) + 1.0 / (2.0 * w - 1.0))
        s = y * math.sqrt(h + lam) / h - (1.0 / (2.0 * w - 1.0) - 1.0 / (2.0 * u - 1.0)) * (
            lam + 5.0 / 6.0 - 2.0 / (3.0 * h)
        )
        x = u / (u + w * math.exp(min(2.0 * s, 700.0)))
    else:
        # leading term of the lower tail, I_x ~ x**u / (u B(u, w))
        x = math.exp((math.log(q * u) + log_beta) / u)
    return x if 0.0 < x < 1.0 else 0.5


def beta_quantile(q: float, u: float, w: float) -> float:
    """q-th quantile of Beta(u, w), the x with I_x(u, w) = q.

    I_x comes from its continued fraction, and Newton steps on log I_x
    against log x (the derivative of I_x is the Beta density) solve for x
    inside a shrinking bracket, bisecting it whenever a step would leave it,
    until x moves by at most 2 ulp. Raises ValueError for q outside (0, 1),
    non-positive shapes and non-finite arguments.
    """
    for name, value in (("q", q), ("u", u), ("w", w)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (0.0 < q < 1.0):
        raise ValueError("q must be in (0, 1)")
    if u <= 0.0 or w <= 0.0:
        raise ValueError("shape parameters must be positive")
    if q > 0.5:
        # I_x(u, w) = 1 - I_{1-x}(w, u), and 1 - q is exact here; in the lower
        # tail I_x keeps a small absolute error where its slope is small
        return 1.0 - beta_quantile(1.0 - q, w, u)
    log_beta = math.lgamma(u) + math.lgamma(w) - math.lgamma(u + w)
    lo, hi = 0.0, 1.0
    x = _beta_quantile_guess(q, u, w, log_beta)
    for _ in range(2_000):
        cdf, pdf = _beta_cdf_pdf(x, u, w, log_beta)
        if cdf < q:
            lo = x
        else:
            hi = x
        tol = 2.0 * math.ulp(x)
        nxt = 0.5 * (lo + hi)
        if cdf > 0.0 and pdf > 0.0:
            newton = x + x * math.expm1((math.log(q) - math.log(cdf)) * cdf / (x * pdf))
            if lo < newton < hi or abs(newton - x) <= tol:
                nxt = newton
        if abs(nxt - x) <= tol:
            return nxt
        x = nxt
    raise ArithmeticError(f"beta_quantile({q!r}, {u!r}, {w!r}) did not converge")


def majority_class(t: VoteTally) -> int:
    """Class with the most votes; ties break toward the smallest class id."""
    best = max(t.counts.values())
    return min(c for c, n in t.counts.items() if n == best)


def confidence_bounds(t: VoteTally, alpha: float, n_classes: int) -> ConfidenceBounds:
    """Beta-quantile bounds on the top-class vote probability.

    p_a_lower = B(alpha/C; m_a, mu - m_a + 1) for the majority class, and for
    every other class p_c_upper = B(1 - alpha/C; m_c + 1, mu - m_c), with the
    runner-up bound capped at 1 - p_a_lower. p_c_upper increases with m_c, so
    only the largest other count is bounded, as 1 - B(alpha/C; mu - m_c, m_c + 1).

    Each one-sided bound is taken at alpha/C. For C = 2 the two bounds are one
    event, so p_a_lower - p_b_upper exceeds the true margin with probability at
    most alpha. For C >= 3 the two sides fail separately, and a union bound
    over both sides and all C classes proves only 2*alpha; exact enumeration
    at C = 3 stays below alpha (tests/test_certify.py).
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if any(c < 0 or c >= n_classes for c in t.counts):
        raise ValueError("vote tally contains class ids outside range")
    c_a = majority_class(t)
    m_a = t.counts.get(c_a, 0)
    q = alpha / n_classes
    p_a_lower = beta_quantile(q, m_a, t.mu - m_a + 1)
    # classes missing from the tally have no votes
    m_c = max((m for c, m in t.counts.items() if c != c_a), default=0)
    if t.mu - m_c == 0:
        p_c_upper = 1.0
    else:
        p_c_upper = 1.0 - beta_quantile(q, t.mu - m_c, m_c + 1)
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


# Working-memory budget of one center_logits chunk of draws.
CHUNK_BYTES = 1 << 20


def _two_rows(a: np.ndarray) -> np.ndarray:
    """``a``, a one-row matrix repeated to two rows: OpenBLAS takes its gemv
    path for a one-row operand, and that path rounds differently."""
    return np.concatenate((a, a)) if a.shape[0] == 1 else a


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
    boolean (mu, d) mask, mu >= 1; row i of the (mu, n_classes) result is the
    classifier's logits for ``center`` on the graph holding only the edges
    with keep[i] set. The center row of the second propagation reads the
    first only at the center's closed neighbourhood R, and row j of the
    first reads the features only at j's closed neighbourhood, a part of Q,
    R plus its neighbours. The degrees + 1 of the Q nodes come from one exact
    product of the keep columns of the edges that touch Q with their 0/1
    incidence. Then each row j is propagated only in the draws that keep the
    center's arc to j, over j's own arcs, and added into those draws' center
    rows. Draws run in chunks of about CHUNK_BYTES of working memory.

    Row i depends only on keep[i]: not on mu, the chunking or the other
    draws. The degree product is exact in any order, and no other product
    over draws hands BLAS a one-row operand.
    """
    n = features.shape[0]
    d = edges.shape[0]
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.ndim != 2 or keep.shape[0] < 1 or keep.shape[1] != d:
        raise ValueError(
            f"keep must be a boolean (mu, {d}) array with mu >= 1, "
            f"got {keep.dtype} of shape {keep.shape}"
        )
    if not 0 <= center < n:
        raise ValueError(f"center must be in [0, {n}), got {center}")
    # arcs tail -> head: a self-loop per node on keep column d (always kept), then
    # each edge both ways
    nodes = np.arange(n)
    tail = np.concatenate([nodes, edges[:, 0], edges[:, 1]])
    head = np.concatenate([nodes, edges[:, 1], edges[:, 0]])
    arc_edge = np.concatenate([np.full(n, d), np.arange(d), np.arange(d)])
    in_r = np.zeros(n, dtype=bool)
    in_r[head[tail == center]] = True
    # arcs leaving R by tail, then head: each R row's nonzeros, in ascending Q order
    arcs = np.flatnonzero(in_r[tail])
    arcs = arcs[np.lexsort((head[arcs], tail[arcs]))]
    in_q = np.zeros(n, dtype=bool)
    in_q[head[arcs]] = True
    col = np.cumsum(in_q) - 1
    q = int(col[-1]) + 1
    nz_tail, nz_head, nz_edge = col[tail[arcs]], col[head[arcs]], arc_edge[arcs]
    r_nodes = np.flatnonzero(in_r)
    starts = np.searchsorted(tail[arcs], r_nodes)
    ends = np.append(starts[1:], arcs.size)
    # the center's keep column to each R row
    center_edges = nz_edge[starts[np.searchsorted(r_nodes, center)] + np.arange(r_nodes.size)]
    # 0/1 incidence on the Q nodes of the keep columns that touch Q, the
    # self-loop column d among them
    from_q = np.flatnonzero(in_q[tail])
    touch = np.zeros(d + 1, dtype=bool)
    touch[arc_edge[from_q]] = True
    at_q = np.flatnonzero(touch)
    incidence = np.zeros((at_q.size, q), dtype=np.float32)
    incidence[(np.cumsum(touch) - 1)[arc_edge[from_q]], col[tail[from_q]]] = 1.0
    # the first layer's input rows, one per block nonzero
    XW1 = (features @ enc.W1)[head[arcs]]
    width = XW1.shape[1]
    # bytes per draw: the keep row, its Q columns as float32, degrees, two
    # float64 arrays over the block nonzeros, one row's product
    per_draw = d + 4 * at_q.size + 8 * (2 * q + 2 * arcs.size + width)
    step = max(1, CHUNK_BYTES // per_draw)
    z = np.zeros((keep.shape[0], width))
    for lo in range(0, keep.shape[0], step):
        part = keep[lo : lo + step]
        kb = np.ones((part.shape[0], d + 1), dtype=bool)
        kb[:, :d] = part
        # sums of 0/1 terms are exact integers, in float32 up to 2**24
        dinv = 1.0 / np.sqrt(kb[:, at_q].astype(np.float32) @ incidence, dtype=np.float64)
        # each arc j -> i of row j weighs dinv_j dinv_i, times the center's arc
        # weight to j: relu is positively homogeneous, so that weight goes in
        # before the product
        scale = dinv[:, nz_tail]
        block = dinv[:, nz_head]
        block *= scale
        block *= kb[:, nz_edge]
        scale *= dinv[:, col[center], None]
        block *= scale
        # the draws that keep the center's arc to each row, row by row
        row_of, draw_of = np.nonzero(kb[:, center_edges].T)
        bounds = np.searchsorted(row_of, np.arange(r_nodes.size + 1))
        zc = z[lo : lo + part.shape[0]]
        for s, e, b0, b1 in zip(starts, ends, bounds[:-1], bounds[1:]):
            if b1 > b0:
                took = draw_of[b0:b1]
                H1 = (_two_rows(block[took, s:e]) @ XW1[s:e])[: took.size]
                zc[took] += np.maximum(H1, 0.0, out=H1)
    return logits_many(clf, _two_rows(z) @ enc.W2)[: z.shape[0]]


def vote_on_struct_vector(
    sub: KhopSubgraph,
    enc: EncoderParams,
    clf: LogRegModel,
    mu: int,
    spec: EdgeDropSpec,
    seed: int,
) -> VoteTally:
    """Monte-Carlo vote over mu edgedrop draws of a node's k-hop subgraph.

    Local edge (a, b) is keyed by its global identity
    ``nodes[a] << 32 | nodes[b]``, one :func:`sample_edgedrop` call draws the
    keep masks of all mu draws, and :func:`center_logits` classifies them at
    once. The tally's ``target_node`` is the center's global id. The name is
    kept for the benchmark's span table.
    """
    nodes = np.asarray(sub.nodes, dtype=np.uint64)
    if nodes.size and int(nodes.max()) >> 32:
        raise ValueError("global node ids must fit in 32 bits")
    g = sub.graph
    keys = (nodes[g.edges[:, 0]] << np.uint64(32)) | nodes[g.edges[:, 1]]
    keep = sample_edgedrop(keys, spec, seed, mu)
    classes = np.argmax(center_logits(g.edges, keep, g.features, sub.center, enc, clf), axis=1)
    return VoteTally(
        counts=dict(Counter(classes.tolist())), mu=mu, target_node=int(sub.nodes[sub.center])
    )


def _node_subgraph(g: Graph, node: int, k_hop: int, sub: KhopSubgraph | None) -> KhopSubgraph:
    """``sub`` when given, after checking that it is centered on ``node``;
    else the node's k-hop subgraph of g."""
    if sub is None:
        return khop_subgraph(g, node, k_hop)
    if int(sub.nodes[sub.center]) != node:
        raise ValueError(f"subgraph is centered on node {int(sub.nodes[sub.center])}, not {node}")
    return sub


def smoothed_predict(
    g: Graph,
    node: int,
    enc: EncoderParams,
    clf: LogRegModel,
    mu: int,
    spec: EdgeDropSpec,
    k_hop: int,
    seed: int,
    sub: KhopSubgraph | None = None,
) -> VoteTally:
    """Vote tally of the smoothed predictor at one node, deterministic given seed.

    ``sub``, if given, is the node's k-hop subgraph of g, already extracted.
    """
    return vote_on_struct_vector(_node_subgraph(g, node, k_hop, sub), enc, clf, mu, spec, seed)


def base_predict(
    g: Graph,
    node: int,
    enc: EncoderParams,
    clf: LogRegModel,
    k_hop: int,
    sub: KhopSubgraph | None = None,
) -> int:
    """Unsmoothed pipeline: classify the node from its clean k-hop subgraph.

    The vote kernel with every edge kept, so smoothing with beta_drop = 0
    reproduces it vote for vote. ``sub``, if given, is the node's k-hop
    subgraph of g, already extracted.
    """
    sub = _node_subgraph(g, node, k_hop, sub)
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
    """Full certification of one node: vote, bound, scan for the certified size.

    The scan stops at k_max, by default min(50, d) with d the subgraph's edge
    count. No rule needs that cap (the `exact` Delta(k) = 1 - beta^k does not
    depend on d), so a node with few subgraph edges can be reported below the
    k its bounds certify; a node with d = 0 is reported at most 0.
    """
    sub = khop_subgraph(g, node, k_hop)
    d = sub.graph.n_edges
    tally = vote_on_struct_vector(sub, enc, clf, mu, spec, seed)
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
