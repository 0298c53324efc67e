"""Deterministic 64-bit RNG with a portable, documented algorithm.

SplitMix64: a tiny, fast generator whose outputs are fully specified by the
seed, so derivation logs replay exactly on any platform or Python version.
The stdlib random module is avoided here on purpose; its Mersenne Twister
stream is stable in practice but its convenience methods are not part of the
log format contract.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Sequential SplitMix64 stream seeded with an arbitrary integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n
