"""Randomized edgedrop noise, the certification slack Delta, and a Monte-Carlo
collision oracle.

Convention used throughout: ``beta_drop`` is the per-edge probability that an
existing edge is *removed* by the noise. Under independent drops, the
probability that at least one of k freshly added edges survives is exactly
``1 - beta_drop**k``; the looser combinatorial bound keeps a binomial ratio in
front of the same ``beta_drop**k`` factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .graph import StructVector


@dataclass(frozen=True)
class EdgeDropSpec:
    """Per-edge drop probability in [0, 1)."""

    beta_drop: float

    def __post_init__(self):
        if not (0.0 <= self.beta_drop < 1.0):
            raise ValueError("beta_drop must be in [0, 1)")


@dataclass(frozen=True)
class NoiseDraw:
    """Slot indices toggled by one noise draw (sorted, unique)."""

    toggled: np.ndarray

    def __post_init__(self):
        toggled = np.asarray(self.toggled, dtype=np.int64).ravel()
        if (toggled[1:] <= toggled[:-1]).any():
            raise ValueError("toggled slots must be strictly increasing")
        toggled.setflags(write=False)
        object.__setattr__(self, "toggled", toggled)


@dataclass(frozen=True)
class DeltaPolicy:
    """How the certification slack is evaluated.

    mode="exact" uses the collision probability of the sampler itself,
    1 - beta_drop**k. mode="paper" uses the binomial-ratio bound with the
    retained edge count e; e_fixed pins e, otherwise e = round(d*(1-beta)).
    """

    mode: str = "exact"
    e_fixed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "paper"):
            raise ValueError(f"unknown delta mode {self.mode!r}")
        if self.e_fixed is not None:
            if self.mode != "paper":
                raise ValueError("e_fixed only applies to the paper mode")
            if self.e_fixed < 0:
                raise ValueError("e_fixed must be non-negative")


def sample_edgedrop(
    v: StructVector, spec: EdgeDropSpec, seed: int, draw_index: int
) -> NoiseDraw:
    """Drop each present slot independently with probability beta_drop.

    Absent slots are never toggled. The draw is a pure function of
    (seed, draw_index).
    """
    rng = np.random.default_rng([seed, draw_index])
    mask = rng.random(v.present.size) < spec.beta_drop
    return NoiseDraw(v.present[mask])


def sample_flip(
    v: StructVector, p_flip: float, seed: int, draw_index: int
) -> NoiseDraw:
    """Toggle every slot in the universe (present or absent) with p_flip."""
    if not (0.0 <= p_flip <= 1.0):
        raise ValueError("p_flip must be in [0, 1]")
    rng = np.random.default_rng([seed, draw_index])
    mask = rng.random(v.universe) < p_flip
    return NoiseDraw(np.nonzero(mask)[0].astype(np.int64))


def apply_xor(v: StructVector, eps: NoiseDraw) -> StructVector:
    """Symmetric difference of present slots and toggled slots."""
    if eps.toggled.size and eps.toggled[-1] >= v.universe:
        raise ValueError("toggled slot outside the universe")
    return StructVector(v.universe, np.setxor1d(v.present, eps.toggled))


def delta_exact(k: int, spec: EdgeDropSpec) -> float:
    """Exact collision probability 1 - beta_drop**k for k added edges."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 0.0
    return 1.0 - spec.beta_drop**k


def delta_paper(d: int, e: int, k: int, spec: EdgeDropSpec) -> float:
    """Binomial-ratio bound 1 - C(d,e)/C(d+k,e) * beta_drop**k.

    Evaluated in log space (log-gamma binomials) and clamped to [0, 1].
    """
    if not (0 <= e <= d):
        raise ValueError("need 0 <= e <= d")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 0.0
    if spec.beta_drop == 0.0:
        return 1.0
    log_ratio = (
        gammaln(d + 1)
        - gammaln(d - e + 1)
        - gammaln(d + k + 1)
        + gammaln(d + k - e + 1)
    )
    value = 1.0 - np.exp(log_ratio + k * np.log(spec.beta_drop))
    return float(min(1.0, max(0.0, value)))


def delta_bound(k: int, d: int, policy: DeltaPolicy, spec: EdgeDropSpec) -> float:
    """Delta(k) for a structure vector with d present edges under a policy."""
    if policy.mode == "exact":
        return delta_exact(k, spec)
    if policy.e_fixed is not None:
        e = min(policy.e_fixed, d)
    else:
        e = int(round(d * (1.0 - spec.beta_drop)))
    return delta_paper(d, e, k, spec)


def mc_collision_estimate(
    v: StructVector,
    delta_slots,
    spec: EdgeDropSpec,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of P((v' xor eps) intersects delta).

    v' = v with the k delta slots added; each trial drops every edge of v'
    independently and records whether any delta slot survives. Returns the
    estimate and its standard error sqrt(p(1-p)/trials).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    delta = np.asarray(delta_slots, dtype=np.int64).ravel()
    delta = np.unique(delta)
    if delta.size:
        if delta[0] < 0 or delta[-1] >= v.universe:
            raise ValueError("delta slot outside the universe")
        if np.intersect1d(delta, v.present).size:
            raise ValueError("delta slots must be disjoint from v.present")
    if delta.size == 0:
        return 0.0, 0.0
    perturbed = np.union1d(v.present, delta)
    delta_idx = np.searchsorted(perturbed, delta)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    chunk = max(1, int(2e7) // max(1, perturbed.size))
    while done < trials:
        m = min(chunk, trials - done)
        dropped = rng.random((m, perturbed.size)) < spec.beta_drop
        survived_any = ~dropped[:, delta_idx].all(axis=1)
        hits += int(survived_any.sum())
        done += m
    est = hits / trials
    se = float(np.sqrt(est * (1.0 - est) / trials))
    return est, se
