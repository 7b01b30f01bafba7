"""Experiment config: the flat ``key = value`` schema, its parse, and the stage
specs built from it.

This module imports only ``rng`` and the standard library, so every CLI
stage can read and check its config without loading the modules of the
other stages. Each spec is defined here once; its stage module imports it
back (``noise.EdgeDropSpec``, ``trainer.TrainConfig``, ``attack.AttackSpec``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .rng import STREAM_ATTACK_SPEC, derive_seed

# Propagation steps in encoder.forward: a node's output reads its DEPTH-hop neighbourhood.
DEPTH = 2


class _BadValue(ValueError):
    """A value that config key ``key`` does not take; parse_config adds its line."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise _BadValue(name, f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class EdgeDropSpec:
    """Per-edge drop probability in [0, 1)."""

    beta_drop: float

    def __post_init__(self):
        if not (0.0 <= self.beta_drop < 1.0):
            raise ValueError("beta_drop must be in [0, 1)")


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
        _require_positive("temperature", self.temperature)


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
        _require_positive("learning_rate", self.learning_rate)
        _require_positive("adam_eps", self.adam_eps)
        for name in ("adam_beta1", "adam_beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")


@dataclass(frozen=True)
class AttackSpec:
    mode: str  # "targeted" or "global"
    budget: int = 0  # per-node edge budget (targeted)
    rate: float = 0.0  # fraction of |E| to inject (global)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("targeted", "global"):
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")


CONFIG_VERSION = 1

# Flat key = value schema with defaults; resolve_config gives each value its default's type.
CONFIG_DEFAULTS: dict[str, object] = {
    "config_version": CONFIG_VERSION,
    "seed": 0,
    # dataset: "sbm" generates a fixture; "files" loads the text formats
    "dataset": "sbm",
    "edge_path": "",
    "feature_path": "",
    "label_path": "",
    "sbm_blocks": 2,
    "sbm_nodes_per_block": 50,
    "sbm_p_in": 0.2,
    "sbm_p_out": 0.01,
    "sbm_feature_dim": 8,
    "sbm_center_scale": 1.0,
    "sbm_feature_noise_sd": 1.0,
    # transductive split fractions (must sum to 1)
    "train_frac": 0.1,
    "val_frac": 0.1,
    "test_frac": 0.8,
    # encoder dims
    "h_dim": 64,
    "d_dim": 32,
    "p_dim": 32,
    # training
    "epochs": 200,
    "learning_rate": 1e-3,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
    "p_edge_drop_view": 0.2,
    "p_feat_mask_view": 0.1,
    "temperature": 0.5,
    # smoothing / certification
    "beta_drop": 0.5,
    "mu": 200,
    "alpha": 0.001,
    "k_grid": "0,1,2,3,4,5,6",
    "delta_mode": "exact",
    "delta_e_fixed": "",
    "k_hop": 2,
    # linear evaluation
    "l2": 1e-4,
    "logreg_max_iters": 500,
    "logreg_tol": 1e-6,
    # attack
    "attack_mode": "targeted",
    "attack_budget": 5,
    "attack_rate": 0.1,
    "attack_num_targets": 0,  # 0 = all test nodes
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved config: its typed values and the stage specs built from them."""

    raw: dict[str, object]
    edgedrop: EdgeDropSpec
    delta_policy: DeltaPolicy
    k_grid: list[int]
    train_config: TrainConfig
    attack_spec: AttackSpec

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def seed(self) -> int:
        return self.raw["seed"]


def _not_a(key: str, shown: str, kind: type) -> _BadValue:
    return _BadValue(key, f"{key} = {shown} is not a valid {kind.__name__}")


def _typed(key: str, value, kind: type):
    """value as kind; an int key also rejects a number that is not integral."""
    try:
        typed = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise _not_a(key, repr(value), kind) from None
    if kind is int and not isinstance(value, str) and typed != value:
        raise _not_a(key, repr(value), kind)
    return typed


def _int_list(key: str, text: str) -> list[int]:
    """Comma-separated ints; empty items are skipped."""
    items = []
    for tok in text.split(","):
        if tok.strip():
            try:
                items.append(int(tok))
            except ValueError:
                raise _not_a(key, f"{text!r}: {tok!r}", int) from None
    return items


def parse_config(path) -> ExperimentConfig:
    """Read a flat key = value config file; see resolve_config."""
    values = {}
    linenos = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            values[key] = value.strip()
            linenos[key] = lineno
    try:
        return resolve_config(values)
    except _BadValue as err:
        # a key left at its default has no line
        where = f"{path}:{linenos[err.key]}" if err.key in linenos else str(path)
        raise ValueError(f"{where}: {err}") from None


def resolve_config(values: dict) -> ExperimentConfig:
    """Typed and checked config from key -> value pairs; missing keys take their defaults.

    Each value takes the type of its CONFIG_DEFAULTS entry, and the stage specs
    are built here, so a value that a later stage would reject fails now. A
    value that does not convert, or that its key does not take, names its key.
    """
    for key in values:
        if key not in CONFIG_DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
    r = {key: _typed(key, values.get(key, default), type(default))
         for key, default in CONFIG_DEFAULTS.items()}
    if r["config_version"] != CONFIG_VERSION:
        raise _BadValue("config_version", f"unsupported config_version {r['config_version']}")
    for key in ("train_frac", "val_frac", "test_frac", "sbm_p_in"):
        if not 0.0 <= r[key] <= 1.0:
            raise _BadValue(key, f"{key} must be in [0, 1], got {r[key]!r}")
    if abs(r["train_frac"] + r["val_frac"] + r["test_frac"] - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    if not 0.0 <= r["sbm_p_out"] <= r["sbm_p_in"]:
        raise _BadValue("sbm_p_out", f"sbm_p_out must be in [0, sbm_p_in], got {r['sbm_p_out']!r}")
    if not 0.0 <= r["sbm_feature_noise_sd"] < math.inf:
        raise _BadValue(
            "sbm_feature_noise_sd",
            f"sbm_feature_noise_sd must be finite and >= 0, got {r['sbm_feature_noise_sd']!r}",
        )
    if not -math.inf < r["sbm_center_scale"] < math.inf:
        raise _BadValue(
            "sbm_center_scale", f"sbm_center_scale must be finite, got {r['sbm_center_scale']!r}"
        )
    _require_positive("logreg_tol", r["logreg_tol"])
    for key, least in (("mu", 1), ("h_dim", 1), ("d_dim", 1), ("p_dim", 1),
                       ("logreg_max_iters", 1), ("attack_num_targets", 0), ("seed", 0),
                       ("sbm_blocks", 1), ("sbm_nodes_per_block", 1), ("sbm_feature_dim", 1)):
        if r[key] < least:
            raise _BadValue(key, f"{key} must be >= {least}, got {r[key]!r}")
    if not r["l2"] >= 0.0:
        raise _BadValue("l2", "l2 must be >= 0")
    if not (0.0 < r["alpha"] < 1.0):
        raise _BadValue("alpha", "alpha must be in (0, 1)")
    if r["dataset"] not in ("sbm", "files"):
        raise _BadValue("dataset", f"unknown dataset kind {r['dataset']!r}")
    if r["k_hop"] < DEPTH:
        raise _BadValue(
            "k_hop",
            f"k_hop must be >= {DEPTH}, the encoder's depth; "
            f"k_hop = {r['k_hop']} cuts off the receptive field",
        )
    k_grid = _int_list("k_grid", r["k_grid"])
    if any(k < 0 for k in k_grid):
        raise _BadValue("k_grid", "k_grid entries must be >= 0")
    e_fixed = r["delta_e_fixed"]
    return ExperimentConfig(
        raw=r,
        edgedrop=EdgeDropSpec(r["beta_drop"]),
        delta_policy=DeltaPolicy(
            r["delta_mode"], None if e_fixed == "" else _typed("delta_e_fixed", e_fixed, int)
        ),
        k_grid=k_grid,
        train_config=TrainConfig(
            epochs=r["epochs"],
            learning_rate=r["learning_rate"],
            adam_beta1=r["adam_beta1"],
            adam_beta2=r["adam_beta2"],
            adam_eps=r["adam_eps"],
            seed=r["seed"],
            aug=AugConfig(
                p_edge_drop_view=r["p_edge_drop_view"],
                p_feat_mask_view=r["p_feat_mask_view"],
                temperature=r["temperature"],
                res_beta_drop=r["beta_drop"],
            ),
        ),
        attack_spec=AttackSpec(
            mode=r["attack_mode"],
            budget=r["attack_budget"],
            rate=r["attack_rate"],
            seed=derive_seed(r["seed"], STREAM_ATTACK_SPEC),
        ),
    )


def config_lines(cfg: ExperimentConfig) -> str:
    return "\n".join(f"{k} = {cfg.raw[k]}" for k in sorted(cfg.raw)) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_lines(cfg).encode("utf-8")).hexdigest()
