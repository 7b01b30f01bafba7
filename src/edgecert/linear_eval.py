"""L2-regularized multinomial logistic regression on frozen embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint


@dataclass(frozen=True)
class LogRegModel:
    W: np.ndarray  # n_classes x d_dim
    b: np.ndarray  # n_classes
    l2: float
    converged: bool = True

    def __post_init__(self):
        W = np.ascontiguousarray(self.W, dtype=np.float64)
        b = np.ascontiguousarray(self.b, dtype=np.float64)
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise ValueError("W must be n_classes x d_dim with matching bias")
        if W.shape[0] < 2:
            raise ValueError("need at least 2 classes")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite model parameters")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def n_classes(self) -> int:
        return int(self.W.shape[0])

    @property
    def d_dim(self) -> int:
        return int(self.W.shape[1])


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _objective(W, b, Z, Y, l2):
    logits = Z @ W.T + b
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ce = -log_probs[np.arange(Z.shape[0]), Y].mean()
    return ce + 0.5 * l2 * float((W * W).sum())


def fit_logreg(
    Z_train: np.ndarray,
    labels,
    l2: float = 1e-4,
    max_iters: int = 500,
    tol: float = 1e-6,
    seed: int = 0,
) -> LogRegModel:
    """Full-batch gradient descent with backtracking line search.

    Minimizes mean cross-entropy + (l2/2)*||W||^2 from a zero start until the
    gradient norm drops below tol or max_iters is reached (the model then
    carries converged=False). The seed parameter is accepted for interface
    stability; the solver itself is deterministic. Every class in
    0..max(label) must appear at least once.
    """
    del seed
    Z = np.ascontiguousarray(Z_train, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.int64)
    if Z.ndim != 2 or Y.shape != (Z.shape[0],):
        raise ValueError("Z_train must be 2-D with one label per row")
    if l2 < 0:
        raise ValueError("l2 must be non-negative")
    classes = np.unique(Y)
    n_classes = int(Y.max()) + 1 if Y.size else 0
    if n_classes < 2:
        raise ValueError("need at least 2 classes in the training labels")
    if classes.size != n_classes:
        missing = sorted(set(range(n_classes)) - set(classes.tolist()))
        raise ValueError(f"classes missing from training labels: {missing}")

    n, d = Z.shape
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), Y] = 1.0

    f = _objective(W, b, Z, Y, l2)
    step = 1.0
    converged = False
    for _ in range(max_iters):
        P = _softmax(Z @ W.T + b)
        resid = (P - onehot) / n
        gW = resid.T @ Z + l2 * W
        gb = resid.sum(axis=0)
        gnorm = float(np.sqrt((gW * gW).sum() + (gb * gb).sum()))
        if gnorm < tol:
            converged = True
            break
        # Armijo backtracking; loss sequence is non-increasing by construction.
        step = min(step * 2.0, 1e6)
        decrement = gnorm * gnorm
        while True:
            W_new = W - step * gW
            b_new = b - step * gb
            f_new = _objective(W_new, b_new, Z, Y, l2)
            if f_new <= f - 1e-4 * step * decrement:
                break
            step *= 0.5
            if step < 1e-20:
                W_new, b_new, f_new = W, b, f
                break
        assert f_new <= f + 1e-15, "descent violated on a convex objective"
        W, b, f = W_new, b_new, f_new
    return LogRegModel(W=W, b=b, l2=l2, converged=converged)


def predict_proba(m: LogRegModel, z) -> np.ndarray:
    """Softmax class probabilities for one embedding vector."""
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.shape != (m.d_dim,):
        raise ValueError(f"expected embedding of dim {m.d_dim}, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite embedding")
    return _softmax(m.W @ z + m.b)


def predict(m: LogRegModel, z) -> int:
    """Most probable class; ties break toward the smallest class id."""
    return int(np.argmax(predict_proba(m, z)))


def logits_many(m: LogRegModel, Z: np.ndarray) -> np.ndarray:
    """Row-wise class logits ``Z @ W.T + b`` for a matrix of embeddings."""
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != m.d_dim:
        raise ValueError(f"expected n x {m.d_dim} embeddings, got {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise ValueError("non-finite embedding")
    return Z @ m.W.T + m.b


def predict_many(m: LogRegModel, Z: np.ndarray) -> np.ndarray:
    """Row-wise predictions for a matrix of embeddings."""
    return np.argmax(logits_many(m, Z), axis=1)


def save_logreg(path, m: LogRegModel) -> None:
    write_checkpoint(
        path,
        "logreg",
        {"l2": m.l2, "converged": m.converged, "n_classes": m.n_classes, "d_dim": m.d_dim},
        {"W": m.W, "b": m.b},
    )


def load_logreg(path) -> LogRegModel:
    scalars, tensors = read_checkpoint(path, "logreg")
    model = LogRegModel(
        W=tensors["W"], b=tensors["b"], l2=scalars["l2"], converged=scalars["converged"]
    )
    if scalars.get("n_classes") != model.n_classes or scalars.get("d_dim") != model.d_dim:
        raise ValueError(f"{path}: recorded dims do not match tensor shapes")
    return model
