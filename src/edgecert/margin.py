"""Latent-space robustness diagnostics: cosine margins, reverse-Weibull tail
fit, and the induced positive-sample probability.

The margin of a positive representation against a negative is half the
cosine distance, (1 - s)/2, so margins live in [0, 1]. Fitting a Weibull to
the smallest margins gives the extreme-value tail model

    P(positive | similarity s) = exp(-((1 - s)/a)^sigma)

which is exposed as an analysis tool; certification itself votes through the
downstream classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, cosine_sim, forward
from .graph import Graph
from .rng import STREAM_AUGMENT, derive_seed
from .trainer import augment


class DegenerateFitError(ValueError):
    """Margin sample carries no usable spread for a Weibull fit."""


@dataclass(frozen=True)
class WeibullFit:
    a: float  # scale
    sigma: float  # shape
    lambda_used: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValueError("scale must be finite and positive")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("shape must be finite and positive")


def margin_distances(z_pos, negatives) -> np.ndarray:
    """Half cosine distances (1 - s)/2 between z_pos and each negative."""
    out = np.empty(len(negatives))
    for i, z_neg in enumerate(negatives):
        out[i] = (1.0 - cosine_sim(z_pos, z_neg)) / 2.0
    return np.clip(out, 0.0, 1.0)


def fit_reverse_weibull(samples, lam: int) -> WeibullFit:
    """Maximum-likelihood two-parameter Weibull fit to the lam smallest margins.

    The shape is found by root finding on the profile-likelihood equation
    (to 1e-8); the scale then has a closed form. Requires at least two
    distinct positive values among the lam smallest samples; non-positive
    margins carry no likelihood and are excluded.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if lam < 1 or lam > samples.size:
        raise ValueError(f"lambda must be in [1, {samples.size}]")
    smallest = np.sort(samples)[:lam]
    x = smallest[smallest > 0.0]
    if np.unique(x).size < 2:
        raise DegenerateFitError("need at least two distinct positive margins")
    y = np.log(x)
    y_mean = y.mean()

    def profile(sigma):
        # d/dsigma of the profiled log-likelihood, computed in log space
        w = sigma * y
        shift = w.max()
        e = np.exp(w - shift)
        weighted = (e * y).sum() / e.sum()
        return weighted - 1.0 / sigma - y_mean

    lo, hi = 1e-2, 10.0
    while profile(lo) > 0 and lo > 1e-12:
        lo /= 4.0
    while profile(hi) < 0 and hi < 1e12:
        hi *= 4.0
    if not (profile(lo) < 0 < profile(hi)):
        raise DegenerateFitError("profile likelihood has no root")
    from scipy.optimize import brentq
    from scipy.special import logsumexp

    sigma = float(brentq(profile, lo, hi, xtol=1e-8))
    log_scale = (logsumexp(sigma * y) - np.log(x.size)) / sigma
    return WeibullFit(a=float(np.exp(log_scale)), sigma=sigma, lambda_used=lam)


def positive_prob(s: float, fit: WeibullFit) -> float:
    """exp(-((1 - s)/a)^sigma) for a cosine similarity s in [-1, 1]."""
    if not (-1.0 <= s <= 1.0):
        raise ValueError("similarity must be in [-1, 1]")
    return float(np.exp(-(((1.0 - s) / fit.a) ** fit.sigma)))


def latent_robust_check(z, z_pos, negatives) -> bool:
    """True iff z is strictly more similar to z_pos than to every negative."""
    if len(negatives) == 0:
        raise ValueError("need at least one negative sample")
    s_pos = cosine_sim(z, z_pos)
    s_neg = max(cosine_sim(z, z_neg) for z_neg in negatives)
    return s_pos > s_neg


@dataclass(frozen=True)
class ProbeRow:
    node_id: int
    s_pos: float
    max_s_neg: float
    latent_robust: bool
    positive_prob: float


def probe_nodes(
    g: Graph,
    enc: EncoderParams,
    nodes,
    seed: int,
    p_edge_drop: float = 0.2,
    p_feat_mask: float = 0.1,
    lam: int | None = None,
) -> list[ProbeRow]:
    """Latent robustness diagnostic per node.

    Positives are the node's embedding under one stochastic view; negatives
    are the other nodes of that view. The tail fit is per anchor, over the
    lam smallest margins (default min(100, n_negatives)).
    """
    z_clean = forward(g, enc).Z
    view = augment(g, p_edge_drop, p_feat_mask, derive_seed(seed, STREAM_AUGMENT), 0)
    z_view = forward(view, enc).Z
    rows = []
    for node in nodes:
        node = int(node)
        z = z_clean[node]
        z_pos = z_view[node]
        negatives = [z_view[j] for j in range(g.n_nodes) if j != node]
        s_pos = cosine_sim(z, z_pos)
        max_s_neg = max(cosine_sim(z, zn) for zn in negatives)
        margins = margin_distances(z_pos, negatives)
        lam_node = min(100, len(negatives)) if lam is None else lam
        try:
            fit = fit_reverse_weibull(margins, lam_node)
            prob = positive_prob(s_pos, fit)
        except DegenerateFitError:
            prob = float("nan")
        rows.append(
            ProbeRow(
                node_id=node,
                s_pos=s_pos,
                max_s_neg=max_s_neg,
                latent_robust=s_pos > max_s_neg,
                positive_prob=prob,
            )
        )
    return rows


def write_probe_report(path, rows, config_hash: str) -> None:
    """Probe report CSV: node_id, s_pos, max_s_neg, latent_robust, positive_prob."""
    lines = [f"# config_hash={config_hash}", "node_id,s_pos,max_s_neg,latent_robust,positive_prob"]
    for r in rows:
        lines.append(
            f"{r.node_id},{r.s_pos!r},{r.max_s_neg!r},{r.latent_robust},{r.positive_prob!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
