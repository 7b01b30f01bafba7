"""Two-view contrastive training with edgedrop noise injected into one view.

Each epoch draws two stochastic augmentations of the input graph, drops
edges of the first view with the configured noise probability, and descends
the symmetric InfoNCE objective on the projected embeddings. Negatives for
an anchor are all other nodes in both views; pairwise scores are cosine
similarities divided by the temperature.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import AugConfig, TrainConfig
from .encoder import EncoderParams, forward_cache, forward_tail, init_params
from .graph import Graph, normalized_adjacency
from .rng import STREAM_AUGMENT, STREAM_GRADCHECK, STREAM_INIT, STREAM_TRAIN_NOISE, derive_seed

if TYPE_CHECKING:
    from concurrent.futures import Executor

_PARAM_NAMES = ("W1", "W2", "P1", "b1", "P2", "b2")

# Scratch memory for one row block of InfoNCE scores, in bytes.
NCE_BLOCK_BYTES = 1 << 20
# Fewest nodes at which train_res runs the two InfoNCE passes on two threads.
# Below it the hand-off costs more than the second thread saves: on 2 cores
# with one BLAS thread the pool lost at 100-200 nodes and won from 250-450 on.
NCE_POOL_MIN_NODES = 400


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


def _anchor_pass(B, B_tau, tau, terms, dB, S_buf, prod):
    """InfoNCE terms of the anchors in one view and their gradient.

    The anchors are N = B[n:]; anchor i scores against every row of the keys
    B = [other; N] with its own row of N masked out, so each row of a
    (rows, 2n) score block is a whole softmax row: the block's exponentials
    give both its log-sum-exps and its weights. Writes the per-anchor terms
    lse_i - pos_i into terms (n) and adds the gradient of their sum / (2n)
    w.r.t. B into dB (2n, p). The score blocks go to S_buf (rows, 2n) and
    each block's key gradient to prod (2n, p), so a pass allocates only
    block-sized arrays. Calls numpy only, so the two views' passes can run
    on two threads, each with its own S_buf and prod.
    """
    n = terms.shape[0]
    N = B[n:]
    c = 1.0 / (2.0 * n * tau)
    rows = S_buf.shape[0]
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        A = N[lo:hi]
        S = np.matmul(A, B_tau.T, out=S_buf[: hi - lo])
        r = np.arange(hi - lo)
        pos = S[r, lo + r]
        S[r, n + lo + r] = -np.inf
        m = S.max(axis=1)
        S -= m[:, None]
        np.exp(S, out=S)
        s = S.sum(axis=1)
        terms[lo:hi] = m + np.log(s) - pos
        # the block's score gradient is w * S for w = c / s, once the
        # positive's entry holds exp(pos - m) - s
        S[r, lo + r] -= s
        w = (c / s)[:, None]
        dB[n + lo : n + hi] += (S @ B) * w
        dB += np.matmul(S.T, A * w, out=prod)


def _nce_terms(H1: np.ndarray, H2: np.ndarray, tau: float, executor: Executor | None = None):
    """Symmetric InfoNCE loss and its gradients w.r.t. H1 and H2.

    Anchor i of view 1 scores its positive N1[i] . N2[i] / tau against every
    other row of N2 and N1; anchors of view 2 likewise with the views
    swapped. Both views read their keys from one stack C = [N2; N1; N2]:
    view 1's are C[:2n] and view 2's C[n:]. Each view is one pass over row
    blocks of about NCE_BLOCK_BYTES (see _anchor_pass), so no n x n array
    exists, and every array a pass writes is allocated here. With an
    executor the two passes run concurrently; their results are combined in
    a fixed order, so the output does not depend on it.
    """
    if H1.shape != H2.shape:
        raise ValueError("view embeddings must have the same shape")
    n, p = H1.shape
    r1 = np.linalg.norm(H1, axis=1)
    r2 = np.linalg.norm(H2, axis=1)
    if np.any(r1 == 0.0) or np.any(r2 == 0.0):
        raise ValueError("zero-norm embedding row in contrastive loss")
    C = np.empty((3 * n, p))
    N2 = np.divide(H2, r2[:, None], out=C[:n])
    N1 = np.divide(H1, r1[:, None], out=C[n : 2 * n])
    C[2 * n :] = N2
    C_tau = C / tau
    terms = np.empty((2, n))
    dB1, dB2 = np.zeros((2 * n, p)), np.zeros((2 * n, p))
    rows = min(n, max(1, NCE_BLOCK_BYTES // (16 * n)))
    # a score block and a product buffer for each pass that runs at the same time
    at_once = 1 if executor is None else 2
    S_buf = np.empty((at_once, rows, 2 * n))
    prod = np.empty((at_once, 2 * n, p))
    mapper = map if executor is None else executor.map
    list(mapper(
        _anchor_pass,
        (C[: 2 * n], C[n:]),
        (C_tau[: 2 * n], C_tau[n:]),
        (tau, tau),
        terms,
        (dB1, dB2),
        (S_buf[0], S_buf[-1]),
        (prod[0], prod[-1]),
    ))
    loss = float((terms[0].mean() + terms[1].mean()) / 2.0)
    del C_tau, S_buf, prod  # freed before through_norm's temporaries
    dB1[n:] += dB2[:n]  # dN1
    dB1[:n] += dB2[n:]  # dN2
    del dB2

    def through_norm(dN, N, r):
        dN -= (dN * N).sum(axis=1, keepdims=True) * N
        dN /= r[:, None]
        return dN

    return loss, through_norm(dB1[n:], N1, r1), through_norm(dB1[:n], N2, r2)


def _view_cache(p: EncoderParams, g: Graph) -> dict:
    """One view's forward cache as training keeps it: besides H, only A, T1,
    U1_pos and T2, which _backward reads. Z goes before the next view's
    forward runs; _backward rebuilds it and S1 from T2."""
    cache = forward_cache(p, normalized_adjacency(g), g.features)
    del cache["Z"]
    return cache


def _backward(p: EncoderParams, cache: dict, dH: np.ndarray, grads: dict) -> None:
    Z, S1 = forward_tail(p, cache["T2"])  # rebuilt, not kept through InfoNCE
    dS1 = dH @ p.P2.T
    grads["P2"] += S1.T @ dH
    grads["b2"] += dH.sum(axis=0)
    dS1 *= S1 > 0  # dQ1: S1 = relu(Q1) is positive exactly where Q1 is
    grads["P1"] += Z.T @ dS1
    grads["b1"] += dS1.sum(axis=0)
    dZ = dS1 @ p.P1.T
    grads["W2"] += cache["T2"].T @ dZ
    dT2 = dZ @ p.W2.T
    dR1 = cache["A"] @ dT2  # A~ is symmetric
    dR1 *= cache["U1_pos"]  # dU1
    grads["W1"] += cache["T1"].T @ dR1


def loss_and_grads(
    p: EncoderParams, g1: Graph, g2: Graph, temperature: float, executor: Executor | None = None
) -> tuple[float, dict[str, np.ndarray]]:
    """Full-batch InfoNCE loss over two views plus gradients for all params.

    An executor, if given, runs the two InfoNCE anchor passes concurrently.
    """
    c1, c2 = _view_cache(p, g1), _view_cache(p, g2)
    loss, dH1, dH2 = _nce_terms(c1.pop("H"), c2.pop("H"), temperature, executor)
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


def _usable_cpus() -> int:
    """How many CPUs this process may run on (``taskset -c 0`` makes it one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def train_res(
    g: Graph,
    cfg: TrainConfig,
    h_dim: int = 64,
    d_dim: int = 32,
    p_dim: int = 32,
) -> TrainResult:
    """Train the encoder with Adam on the noisy-view contrastive objective.

    On graphs of at least NCE_POOL_MIN_NODES nodes, in a process that may
    run on two or more CPUs, the two InfoNCE anchor passes of each step run
    on two threads; the result is bit-identical either way.
    """
    if g.n_nodes < 2:
        raise ValueError("training needs at least 2 nodes")
    params = init_params(g.f_dim, h_dim, d_dim, p_dim, derive_seed(cfg.seed, STREAM_INIT))
    state_m = {name: np.zeros_like(getattr(params, name)) for name in _PARAM_NAMES}
    state_v = {name: np.zeros_like(getattr(params, name)) for name in _PARAM_NAMES}
    losses: list[float] = []
    wall_ms: list[float] = []
    executor = nullcontext()
    if g.n_nodes >= NCE_POOL_MIN_NODES and _usable_cpus() >= 2:
        # imported here, as it loads logging: other stages and serial training need neither
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(2)
    with executor as pool:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            gi, gj = _epoch_views(g, cfg, epoch)
            loss, grads = loss_and_grads(params, gi, gj, cfg.aug.temperature, pool)
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
