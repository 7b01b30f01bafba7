"""Two-view contrastive training with edgedrop noise injected into one view.

Each epoch draws two stochastic augmentations of the input graph, drops
edges of the first view with the configured noise probability, and descends
the symmetric InfoNCE objective on the projected embeddings. Negatives for
an anchor are all other nodes in both views; pairwise scores are cosine
similarities divided by the temperature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderParams, init_params, relu
from .graph import Graph, normalized_adjacency
from .rng import STREAM_AUGMENT, STREAM_GRADCHECK, STREAM_INIT, STREAM_TRAIN_NOISE, derive_seed

_PARAM_NAMES = ("W1", "W2", "P1", "b1", "P2", "b2")

# Scratch memory for one row block of the InfoNCE log-sum-exp, in bytes.
NCE_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class AugConfig:
    p_edge_drop_view: float = 0.2
    p_feat_mask_view: float = 0.1
    temperature: float = 0.5
    res_beta_drop: float = 0.0

    def __post_init__(self):
        for name in ("p_edge_drop_view", "p_feat_mask_view", "res_beta_drop"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    aug: AugConfig = field(default_factory=AugConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


class TrainingError(RuntimeError):
    """Raised when the loss stops being finite."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}")
        self.epoch = epoch
        self.loss = loss


@dataclass
class TrainResult:
    params: EncoderParams
    losses: list[float]
    wall_ms: list[float]


def augment(g: Graph, p_edge_drop: float, p_feat_mask: float, seed: int, tag: int) -> Graph:
    """One stochastic view: drop edges, zero whole feature columns.

    Deterministic given (seed, tag). The node set is unchanged.
    """
    if not (0.0 <= p_edge_drop <= 1.0 and 0.0 <= p_feat_mask <= 1.0):
        raise ValueError("augmentation probabilities must be in [0, 1]")
    rng = np.random.default_rng([seed, tag])
    keep = rng.random(g.n_edges) >= p_edge_drop
    masked_cols = rng.random(g.f_dim) < p_feat_mask
    features = np.array(g.features)
    features[:, masked_cols] = 0.0
    return Graph(g.n_nodes, g.edges[keep], features, g.labels)


def _drop_edges(g: Graph, p_drop: float, rng: np.random.Generator) -> Graph:
    """Independently remove each edge with p_drop; no-op (no rng use) at 0."""
    if p_drop == 0.0:
        return g
    keep = rng.random(g.n_edges) >= p_drop
    return Graph(g.n_nodes, g.edges[keep], g.features, g.labels)


def _block_lse(E12: np.ndarray, E11: np.ndarray, E22: np.ndarray):
    """Row log-sum-exps of [E12 | E11] and of [E12.T | E22].

    Each block of rows is copied into one contiguous (rows, 2n) buffer, so
    every row is summed in the same pairwise order as a full-width row.
    """
    n = E12.shape[0]
    lse1 = np.empty(n)
    lse2 = np.empty(n)
    rows = max(1, NCE_BLOCK_BYTES // (16 * n))
    buf = np.empty((min(rows, n), 2 * n))
    for lo in range(0, n, rows):
        blk = slice(lo, min(lo + rows, n))
        both = buf[: blk.stop - lo]
        for lse, cross, intra in ((lse1, E12[blk], E11[blk]), (lse2, E12[:, blk].T, E22[blk])):
            both[:, :n] = cross
            both[:, n:] = intra
            m = both.max(axis=1)
            both -= m[:, None]
            np.exp(both, out=both)
            lse[blk] = m + np.log(both.sum(axis=1))
    return lse1, lse2


def _sym_weights(E: np.ndarray, lse: np.ndarray, c: float) -> np.ndarray:
    """c * (w + w.T) for w = exp(E - lse[:, None]), overwriting E.

    E must be exactly symmetric, so w.T[i, j] = exp(E[i, j] - lse[j]) is
    computed elementwise without reading E transposed.
    """
    S = E - lse[:, None]
    np.exp(S, out=S)
    S *= c
    E -= lse
    np.exp(E, out=E)
    E *= c
    S += E
    return S


def _nce_terms(H1: np.ndarray, H2: np.ndarray, tau: float, need_grad: bool):
    """Symmetric InfoNCE loss and, optionally, gradients w.r.t. H1 and H2.

    Anchor i of view 1 scores its positive E12[i, i] against row i of E12 and
    of E11 (self excluded); anchor j of view 2 against column j of E12 and
    row j of E22. The log-sum-exps run one row block of [cross | intra] at a
    time in a scratch buffer of about NCE_BLOCK_BYTES, and the softmax
    weights are recomputed elementwise instead of transposed, so the working
    set is about four n x n arrays.
    """
    if H1.shape != H2.shape:
        raise ValueError("view embeddings must have the same shape")
    n = H1.shape[0]
    r1 = np.linalg.norm(H1, axis=1)
    r2 = np.linalg.norm(H2, axis=1)
    if np.any(r1 == 0.0) or np.any(r2 == 0.0):
        raise ValueError("zero-norm embedding row in contrastive loss")
    N1 = H1 / r1[:, None]
    N2 = H2 / r2[:, None]
    E12 = (N1 @ N2.T) / tau
    E11 = (N1 @ N1.T) / tau  # N @ N.T is exactly symmetric (one triangle, mirrored)
    E22 = (N2 @ N2.T) / tau
    np.fill_diagonal(E11, -np.inf)
    np.fill_diagonal(E22, -np.inf)

    lse1, lse2 = _block_lse(E12, E11, E22)
    loss = float(((lse1 - np.diag(E12)).mean() + (lse2 - np.diag(E12)).mean()) / 2.0)
    if not need_grad:
        return loss, None, None

    # G12 = c * ((w12 - I) + (w21 - I).T), with w21.T[i, j] = exp(E12[i, j] - lse2[j])
    c = 1.0 / (2.0 * n * tau)
    G12 = E12 - lse1[:, None]
    np.exp(G12, out=G12)
    E12 -= lse2
    np.exp(E12, out=E12)
    diag = (np.diag(G12) - 1.0) + (np.diag(E12) - 1.0)
    G12 += E12
    del E12
    np.fill_diagonal(G12, diag)
    G12 *= c
    dN1 = G12 @ N2 + _sym_weights(E11, lse1, c) @ N1
    del E11
    dN2 = G12.T @ N1 + _sym_weights(E22, lse2, c) @ N2

    def through_norm(dN, N, r):
        return (dN - (dN * N).sum(axis=1, keepdims=True) * N) / r[:, None]

    return loss, through_norm(dN1, N1, r1), through_norm(dN2, N2, r2)


def info_nce_loss(H1: np.ndarray, H2: np.ndarray, temperature: float) -> float:
    """Symmetric two-view InfoNCE loss over projected embeddings."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    H1 = np.asarray(H1, dtype=np.float64)
    H2 = np.asarray(H2, dtype=np.float64)
    loss, _, _ = _nce_terms(H1, H2, temperature, need_grad=False)
    return loss


def _forward_cache(p: EncoderParams, A, X: np.ndarray) -> dict:
    T1 = A @ X
    U1 = T1 @ p.W1
    R1 = relu(U1)
    T2 = A @ R1
    Z = T2 @ p.W2
    Q1 = Z @ p.P1 + p.b1
    S1 = relu(Q1)
    H = S1 @ p.P2 + p.b2
    return {"A": A, "T1": T1, "U1": U1, "R1": R1, "T2": T2, "Z": Z, "Q1": Q1, "S1": S1, "H": H}


def _backward(p: EncoderParams, cache: dict, dH: np.ndarray, grads: dict) -> None:
    dS1 = dH @ p.P2.T
    grads["P2"] += cache["S1"].T @ dH
    grads["b2"] += dH.sum(axis=0)
    dQ1 = dS1 * (cache["Q1"] > 0)
    grads["P1"] += cache["Z"].T @ dQ1
    grads["b1"] += dQ1.sum(axis=0)
    dZ = dQ1 @ p.P1.T
    grads["W2"] += cache["T2"].T @ dZ
    dT2 = dZ @ p.W2.T
    dR1 = cache["A"] @ dT2  # A~ is symmetric
    dU1 = dR1 * (cache["U1"] > 0)
    grads["W1"] += cache["T1"].T @ dU1


def loss_and_grads(
    p: EncoderParams, g1: Graph, g2: Graph, temperature: float
) -> tuple[float, dict[str, np.ndarray]]:
    """Full-batch InfoNCE loss over two views plus gradients for all params."""
    A1 = normalized_adjacency(g1)
    A2 = normalized_adjacency(g2)
    c1 = _forward_cache(p, A1, g1.features)
    c2 = _forward_cache(p, A2, g2.features)
    loss, dH1, dH2 = _nce_terms(c1["H"], c2["H"], temperature, need_grad=True)
    grads = {name: np.zeros_like(getattr(p, name)) for name in _PARAM_NAMES}
    _backward(p, c1, dH1, grads)
    _backward(p, c2, dH2, grads)
    return loss, grads


def _epoch_views(g: Graph, cfg: TrainConfig, epoch: int) -> tuple[Graph, Graph]:
    """The two views of one epoch; noise goes into the first view only."""
    aug_seed = derive_seed(cfg.seed, STREAM_AUGMENT)
    gi = augment(g, cfg.aug.p_edge_drop_view, cfg.aug.p_feat_mask_view, aug_seed, 2 * epoch)
    gj = augment(g, cfg.aug.p_edge_drop_view, cfg.aug.p_feat_mask_view, aug_seed, 2 * epoch + 1)
    noise_rng = np.random.default_rng([derive_seed(cfg.seed, STREAM_TRAIN_NOISE), epoch])
    gi = _drop_edges(gi, cfg.aug.res_beta_drop, noise_rng)
    return gi, gj


def train_res(
    g: Graph, cfg: TrainConfig, h_dim: int = 64, d_dim: int = 32, p_dim: int = 32
) -> TrainResult:
    """Train the encoder with Adam on the noisy-view contrastive objective."""
    if g.n_nodes < 2:
        raise ValueError("training needs at least 2 nodes")
    params = init_params(g.f_dim, h_dim, d_dim, p_dim, derive_seed(cfg.seed, STREAM_INIT))
    state_m = {name: np.zeros_like(getattr(params, name)) for name in _PARAM_NAMES}
    state_v = {name: np.zeros_like(getattr(params, name)) for name in _PARAM_NAMES}
    losses: list[float] = []
    wall_ms: list[float] = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        gi, gj = _epoch_views(g, cfg, epoch)
        loss, grads = loss_and_grads(params, gi, gj, cfg.aug.temperature)
        if not np.isfinite(loss):
            raise TrainingError(epoch, loss)
        t = epoch + 1
        corr1 = 1.0 - cfg.adam_beta1**t
        corr2 = 1.0 - cfg.adam_beta2**t
        updated = {}
        for name in _PARAM_NAMES:
            gr = grads[name]
            state_m[name] = cfg.adam_beta1 * state_m[name] + (1 - cfg.adam_beta1) * gr
            state_v[name] = cfg.adam_beta2 * state_v[name] + (1 - cfg.adam_beta2) * gr * gr
            step = cfg.learning_rate * (state_m[name] / corr1) / (
                np.sqrt(state_v[name] / corr2) + cfg.adam_eps
            )
            updated[name] = getattr(params, name) - step
            if not np.all(np.isfinite(updated[name])):
                raise TrainingError(epoch, loss)
        params = EncoderParams(**updated)
        losses.append(loss)
        wall_ms.append((time.perf_counter() - t0) * 1e3)
    return TrainResult(params=params, losses=losses, wall_ms=wall_ms)


def grad_check(
    p: EncoderParams, g: Graph, cfg: TrainConfig, h: float, n_probes: int = 60
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The loss is the epoch-0 objective of cfg (fixed views, fixed noise), so
    it is a pure function of the parameters. At least 50 coordinates are
    probed, chosen deterministically from cfg.seed.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    n_probes = max(50, n_probes)
    gi, gj = _epoch_views(g, cfg, epoch=0)
    _, grads = loss_and_grads(p, gi, gj, cfg.aug.temperature)

    def loss_at(params: EncoderParams) -> float:
        loss, _ = loss_and_grads(params, gi, gj, cfg.aug.temperature)
        return loss

    sizes = [(name, getattr(p, name).size) for name in _PARAM_NAMES]
    total = sum(s for _, s in sizes)
    rng = np.random.default_rng(derive_seed(cfg.seed, STREAM_GRADCHECK))
    flat_choices = rng.choice(total, size=min(n_probes, total), replace=False)
    worst = 0.0
    for flat in flat_choices:
        offset = int(flat)
        for name, size in sizes:
            if offset < size:
                break
            offset -= size
        base = getattr(p, name)
        idx = np.unravel_index(offset, base.shape)

        def shifted(delta):
            arrays = {n: np.array(getattr(p, n)) for n in _PARAM_NAMES}
            arrays[name][idx] += delta
            return EncoderParams(**arrays)

        numeric = (loss_at(shifted(+h)) - loss_at(shifted(-h))) / (2.0 * h)
        analytic = grads[name][idx]
        rel = abs(analytic - numeric) / max(abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def write_train_log(path, result: TrainResult, config_hash: str) -> None:
    """Training log CSV: epoch, loss, wall-time-ms."""
    lines = [f"# config_hash={config_hash}", "epoch,loss,wall_ms"]
    for i, (loss, ms) in enumerate(zip(result.losses, result.wall_ms)):
        lines.append(f"{i},{loss!r},{ms:.3f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
