"""Deterministic stream derivation for reproducible sampling.

Every random draw in the package comes from a counter-based Philox generator
whose 128-bit key is a pure function of (master_seed, role, indices...). The
mixing chain is splitmix64, fixed here so that streams are stable across
platforms and numpy versions (no reliance on Python's randomized hash or on
SeedSequence entropy pooling).

Roles keep logically distinct streams apart: campaign blocks (each campaign
under its own role path, as a stability test's two sides are), scalar draws
and a permutation test's shuffles never share a key even under the same
master seed.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Role tags for key derivation. Values are arbitrary but frozen.
ROLE_BLOCK = 2
ROLE_SCALAR = 3
ROLE_PERMUTE = 4


def splitmix64(z: int) -> int:
    """One splitmix64 finalizer round on a 64-bit integer."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_key(master_seed: int, *path: int) -> np.ndarray:
    """Derive a 2x64-bit Philox key from a master seed and an index path.

    The path is folded element by element through splitmix64, so any change in
    any coordinate yields an unrelated key.
    """
    z = splitmix64(master_seed & _MASK64)
    for part in path:
        z = splitmix64(z ^ splitmix64(part & _MASK64))
    return np.array([z, splitmix64(z ^ 0xD6E8FEB86659FD93)], dtype=np.uint64)


def make_generator(master_seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the stream identified by (master_seed, *path)."""
    return np.random.Generator(np.random.Philox(key=derive_key(master_seed, *path)))
