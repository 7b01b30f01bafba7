"""Randomized edgedrop noise, the certification slack Delta, and a Monte-Carlo
collision oracle.

Convention used throughout: ``beta_drop`` is the per-edge probability that an
existing edge is *removed* by the noise. Under independent drops, the
probability that at least one of k freshly added edges survives is exactly
``1 - beta_drop**k``; the looser combinatorial bound keeps a binomial ratio in
front of the same ``beta_drop**k`` factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DeltaPolicy, EdgeDropSpec
from .graph import StructVector
from .rng import STREAM_EDGEDROP, derive_seed


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


# splitmix64 increment and finalizer multipliers (Steele, Lea and Flood,
# "Fast splittable pseudorandom number generators", OOPSLA 2014)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer, applied to the uint64 array x in place; tmp is scratch."""
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= _MUL1
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= _MUL2
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp


def sample_edgedrop(keys, spec: EdgeDropSpec, seed: int, mu: int) -> np.ndarray:
    """(mu, d) keep mask of mu edgedrop draws over the d edges with these keys.

    Draw i = 1..mu drops edge j iff U(s, i, keys[j]) < beta_drop, where U is
    the top 53 bits of the counter-based hash mix(mix(s ^ key) + i * gamma)
    times 2**-53 (mix is the splitmix64 finalizer, gamma its increment) and
    s is the low 64 bits of ``derive_seed(seed, STREAM_EDGEDROP)``. A bit
    depends only on (seed, draw, key), so an edge keeps the same bits in
    every subgraph that holds it under the same key.
    """
    if mu < 1:
        raise ValueError("mu must be >= 1")
    s = np.uint64(derive_seed(seed, STREAM_EDGEDROP) & 0xFFFF_FFFF_FFFF_FFFF)
    state = np.asarray(keys, dtype=np.uint64).ravel() ^ s
    _mix64(state, np.empty_like(state))
    x = state + np.arange(1, mu + 1, dtype=np.uint64)[:, None] * _GAMMA
    tmp = np.empty_like(x)
    _mix64(x, tmp)
    # (x >> 11) * 2**-53 < beta  <=>  x >> 11 < ceil(beta * 2**53), exactly
    np.right_shift(x, np.uint64(11), out=tmp)
    return tmp >= np.uint64(math.ceil(spec.beta_drop * 2.0**53))


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
        math.lgamma(d + 1)
        - math.lgamma(d - e + 1)
        - math.lgamma(d + k + 1)
        + math.lgamma(d + k - e + 1)
    )
    value = 1.0 - math.exp(log_ratio + k * math.log(spec.beta_drop))
    return min(1.0, max(0.0, value))


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
