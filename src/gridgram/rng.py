"""Deterministic 64-bit RNG with a portable, documented algorithm.

SplitMix64: a tiny, fast generator whose outputs are fully specified by the
seed, so derivation logs replay exactly on any platform or Python version.
The stdlib random module is avoided here on purpose; its Mersenne Twister
stream is stable in practice but its convenience methods are not part of the
log format contract.

Output k (from 1) of seed s is ``mix(s + k * GAMMA mod 2^64)``, so the
stream is computed in blocks: ``draws`` packs ``_K`` consecutive states
into the 128-bit lanes of one integer and runs the finaliser on every lane
at once. A lane's product stays below 2^128, so no carry reaches the next
lane, and every output is the one the scalar formula gives.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from itertools import chain

SPAN = 1 << 64  # below(n) is defined for 1 <= n <= SPAN
_MASK = SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_K = 256  # outputs per block


@cache
def _lane_constants() -> tuple[int, int, int]:
    """Per lane j: 1, j * GAMMA, and the low-64-bit mask, each built from bytes.

    Built on the first draw of a process, in O(_K).
    """
    one, ramp = bytearray(16 * _K), bytearray(16 * _K)
    one[::16] = b"\x01" * _K
    ramp[::16] = bytes(range(_K))
    return (
        int.from_bytes(one, "little"),
        int.from_bytes(ramp, "little") * _GAMMA,
        int.from_bytes((b"\xff" * 8 + bytes(8)) * _K, "little"),
    )


def _blocks(seed: int):
    """The stream of ``seed`` as arrays of ``_K`` outputs."""
    one, ramp, lane = _lane_constants()
    state = (seed + _GAMMA) & _MASK  # the state of the next output
    size = 16 * _K
    swap = sys.byteorder == "big"
    while True:
        z = (state * one + ramp) & lane
        z ^= z >> 30 & lane
        z = z * _MIX1 & lane
        z ^= z >> 27 & lane
        z = z * _MIX2 & lane
        # The high half of each lane takes stray bits here; only low halves are read.
        z ^= z >> 31
        out = array("Q", z.to_bytes(size, "little"))
        if swap:
            out.byteswap()
        yield out[::2]
        state = (state + _K * _GAMMA) & _MASK


def draws(seed: int):
    """A callable returning the next raw 64-bit output of ``seed``'s stream."""
    return chain.from_iterable(_blocks(seed)).__next__


class SplitMix64:
    """Sequential SplitMix64 stream seeded with an arbitrary integer."""

    __slots__ = ("_draw",)

    def __init__(self, seed: int):
        self._draw = draws(seed)

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        return self._draw()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (no modulo bias).

        A draw ``v`` is kept when ``v - v % n <= 2^64 - n``, which is the
        README's ``v < 2^64 - (2^64 mod n)`` without the modulo.
        """
        if not 1 <= n <= SPAN:
            raise ValueError(f"below() needs 1 <= n <= 2**64, got {n}")
        while True:
            v = self.next_u64()
            r = v % n
            if v - r <= SPAN - n:
                return r
