"""Two-layer GCN encoder with a two-layer projection head.

Forward computation (relu nonlinearities, A~ the normalized adjacency):

    Z = A~ @ relu(A~ @ X @ W1) @ W2
    H = relu(Z @ P1 + b1) @ P2 + b2

The contrastive objective operates on H; downstream evaluation uses Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .config import DEPTH  # forward's propagation steps, which the config checks k_hop against
from .graph import Graph, normalized_adjacency


@dataclass(frozen=True)
class EncoderParams:
    W1: np.ndarray  # f_dim x h_dim
    W2: np.ndarray  # h_dim x d_dim
    P1: np.ndarray  # d_dim x p_dim
    b1: np.ndarray  # p_dim
    P2: np.ndarray  # p_dim x p_dim
    b2: np.ndarray  # p_dim

    def __post_init__(self):
        arrays = {}
        for name in ("W1", "W2", "P1", "b1", "P2", "b2"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        W1, W2, P1, b1, P2, b2 = (arrays[n] for n in ("W1", "W2", "P1", "b1", "P2", "b2"))
        if W1.ndim != 2 or W2.ndim != 2 or P1.ndim != 2 or P2.ndim != 2:
            raise ValueError("weight matrices must be 2-D")
        if W1.shape[1] != W2.shape[0]:
            raise ValueError("W1/W2 shape mismatch")
        if W2.shape[1] != P1.shape[0]:
            raise ValueError("W2/P1 shape mismatch")
        p_dim = P1.shape[1]
        if b1.shape != (p_dim,) or P2.shape != (p_dim, p_dim) or b2.shape != (p_dim,):
            raise ValueError("projection head shapes inconsistent")

    @property
    def f_dim(self) -> int:
        return int(self.W1.shape[0])

    @property
    def h_dim(self) -> int:
        return int(self.W1.shape[1])

    @property
    def d_dim(self) -> int:
        return int(self.W2.shape[1])

    @property
    def p_dim(self) -> int:
        return int(self.P1.shape[1])

    def as_dict(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in ("W1", "W2", "P1", "b1", "P2", "b2")}


@dataclass(frozen=True)
class Embeddings:
    Z: np.ndarray  # n_nodes x d_dim
    H: np.ndarray  # n_nodes x p_dim


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def init_params(f_dim: int, h_dim: int, d_dim: int, p_dim: int, seed: int) -> EncoderParams:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    for name, dim in (("f_dim", f_dim), ("h_dim", h_dim), ("d_dim", d_dim), ("p_dim", p_dim)):
        if dim < 1:
            raise ValueError(f"{name} must be >= 1")
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return EncoderParams(
        W1=glorot(f_dim, h_dim),
        W2=glorot(h_dim, d_dim),
        P1=glorot(d_dim, p_dim),
        b1=np.zeros(p_dim),
        P2=glorot(p_dim, p_dim),
        b2=np.zeros(p_dim),
    )


def forward_tail(p: EncoderParams, T2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward pass from T2 = A~ @ relu(A~ @ X @ W1) on: the output
    Z = T2 @ W2 and the projection head's hidden layer S1 = relu(Z @ P1 + b1).

    Training's backward pass calls it again rather than keep Z and S1, and
    gets the same arrays from the same products.
    """
    Z = T2 @ p.W2
    S1 = Z @ p.P1 + p.b1
    np.maximum(S1, 0.0, out=S1)
    return Z, S1


def forward_cache(p: EncoderParams, A, X: np.ndarray) -> dict:
    """The forward pass over adjacency A and features X: the outputs Z and H
    plus what the backward pass reads.

    The relus run in place. ``U1_pos`` is the mask ``U1 > 0`` of the first
    pre-activation U1 = T1 @ W1, which equals ``relu(U1) > 0``. S1 is not
    kept: :func:`forward_tail` rebuilds it from ``T2``.
    """
    T1 = A @ X
    R1 = T1 @ p.W1
    U1_pos = R1 > 0
    np.maximum(R1, 0.0, out=R1)
    T2 = A @ R1
    Z, S1 = forward_tail(p, T2)
    H = S1 @ p.P2 + p.b2
    return {"A": A, "T1": T1, "U1_pos": U1_pos, "T2": T2, "Z": Z, "H": H}


def forward(g: Graph, p: EncoderParams) -> Embeddings:
    """Evaluate the encoder on every node of g."""
    if g.f_dim != p.f_dim:
        raise ValueError(f"graph has {g.f_dim} features, encoder expects {p.f_dim}")
    cache = forward_cache(p, normalized_adjacency(g), g.features)
    Z, H = cache["Z"], cache["H"]
    if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(H))):
        raise FloatingPointError("non-finite encoder output")
    return Embeddings(Z=Z, H=H)


def save_params(path, p: EncoderParams) -> None:
    write_checkpoint(
        path,
        "encoder",
        {"f_dim": p.f_dim, "h_dim": p.h_dim, "d_dim": p.d_dim, "p_dim": p.p_dim},
        p.as_dict(),
    )


def load_params(path) -> EncoderParams:
    scalars, tensors = read_checkpoint(path, "encoder")
    params = EncoderParams(**{name: tensors[name] for name in ("W1", "W2", "P1", "b1", "P2", "b2")})
    for key in ("f_dim", "h_dim", "d_dim", "p_dim"):
        if scalars[key] != getattr(params, key):
            raise ValueError(f"{path}: recorded {key} does not match tensor shapes")
    return params
