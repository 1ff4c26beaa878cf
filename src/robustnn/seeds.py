"""Deterministic 64-bit seed derivation.

Monte Carlo runs must be reproducible and order-independent: every trial's
generator is seeded from the user's base seed plus structural indices (cell
index, trial index), never from shared mutable state.  Parallel and serial
executions therefore see identical streams.

The mixing function is fixed bit-exactly so that documented seeds can be
replayed from any implementation:

    mix64(x): the SplitMix64 finalizer on x mod 2**64,
        z = (x + 0x9E3779B97F4A7C15) mod 2**64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
        return z ^ (z >> 31)

    derive_seed(base, i1, i2, ..., ik):
        state = mix64(base)
        for each index i (taken mod 2**64):
            state = mix64(state ^ i)
        return state

The result is used directly as a numpy default_rng seed.
"""

from __future__ import annotations

__all__ = ["derive_seed"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer; a fixed 64-bit avalanche permutation."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base: int, *indices: int) -> int:
    """Derive a child seed from ``base`` and any number of integer indices.

    Distinct index tuples give (with overwhelming probability) distinct
    streams; the same tuple always gives the same seed.
    """
    state = mix64(int(base) & _MASK64)
    for ix in indices:
        state = mix64(state ^ (int(ix) & _MASK64))
    return state
