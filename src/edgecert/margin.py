"""Reverse-Weibull tail fit of latent margins, and the induced positive-sample
probability.

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
