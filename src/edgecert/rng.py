"""Deterministic seed derivation for named randomness streams.

Every random decision in the pipeline flows from one root seed through a
named sub-stream, so any stage can be replayed in isolation.
"""

from __future__ import annotations

import numpy as np

# Stream ids are part of the reproducibility contract; never renumber.
STREAM_DATASET = 1
STREAM_SPLIT = 2
STREAM_INIT = 3
STREAM_AUGMENT = 4
STREAM_TRAIN_NOISE = 5
STREAM_CERTIFY = 6
STREAM_ATTACK = 7  # reserved: no stream uses it; do not reuse
STREAM_GRADCHECK = 8
STREAM_TARGETS = 9
STREAM_EDGEDROP = 10
# the attack spec's seed, and the votes of the attack stage's evaluation
STREAM_ATTACK_SPEC = 100
STREAM_ATTACK_EVAL = 101


def derive_seed(root: int, *path: int) -> int:
    """Map (root, *path) to a 128-bit integer seed.

    Uses numpy's SeedSequence entropy mixing, which is stable across
    platforms and numpy versions. All path entries must be non-negative.
    """
    entropy = [int(root), *map(int, path)]
    for part in entropy:
        if part < 0:
            raise ValueError("seed path entries must be non-negative")
    ss = np.random.SeedSequence(entropy=entropy)
    return int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little")


def stream_rng(root: int, *path: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (root, *path)."""
    return np.random.default_rng(derive_seed(root, *path))
