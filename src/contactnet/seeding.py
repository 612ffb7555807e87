"""Deterministic random-stream derivation.

Every random stream in the package is derived from a master seed plus an
integer index path (a counter-based split, never sequential reseeding), so
results are independent of execution order.
"""

from __future__ import annotations

import numpy as np


def seed_sequence(master_seed: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for (master_seed, path). Distinct paths give independent streams."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(path))


def derived_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Fresh Generator for (master_seed, path)."""
    return np.random.default_rng(seed_sequence(master_seed, *path))


def derived_seed(master_seed: int, *path: int) -> int:
    """Collapse (master_seed, path) into a single integer usable as a new master seed."""
    state = seed_sequence(master_seed, *path).generate_state(1, dtype=np.uint64)
    return int(state[0])
