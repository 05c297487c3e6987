"""Counter-based pseudo-random generator used for all seeded randomness.

The generator is SplitMix64: state advances by the constant 0x9E3779B97F4A7C15
and each output is a finalized mix of the new state.  It is trivially
reimplementable in any language from this description, which keeps seeded
instance generation reproducible across ports.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit stream seeded by a single integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def coin(self) -> bool:
        """Fair coin: the top bit of the next output."""
        return self.next_u64() >> 63 == 1

    def unit(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next_u64() / float(1 << 64)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def sample(self, population: int, count: int) -> list[int]:
        """Choose `count` distinct values from range(population)."""
        if count > population:
            raise ValueError("sample larger than population")
        pool = list(range(population))
        for i in range(count):
            j = i + self.below(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]
