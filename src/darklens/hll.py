"""HyperLogLog distinct-count sketch with 2^14 registers (standard error 0.81%).

Nothing in darklens uses it: the event builder counts destinations exactly.
It stays only because bench/layers.py patches Hll.estimate.
"""
from __future__ import annotations

import math

_MASK64 = 0xFFFFFFFFFFFFFFFF

# 2^-r lookup for every possible register value.
_POW2NEG = [2.0 ** -r for r in range(65)]


# The low PRECISION hash bits pick one of REGISTERS registers; the other
# 64 - PRECISION bits give the item's rank.
PRECISION = 14
REGISTERS = 1 << PRECISION


class Hll:
    __slots__ = ("registers",)

    def __init__(self):
        self.registers = bytearray(REGISTERS)

    def add_int(self, value: int) -> None:
        # splitmix64 finalizer, inline: cheap and well distributed for
        # sequential ints.
        h = (value + 0x9E3779B97F4A7C15) & _MASK64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
        j = h & (REGISTERS - 1)
        # rank = position of the leftmost 1 bit in the remaining 64 - PRECISION bits
        rank = (64 - PRECISION) - (h >> PRECISION).bit_length() + 1
        if rank > self.registers[j]:
            self.registers[j] = rank

    def estimate(self) -> int:
        m = REGISTERS
        alpha = 0.7213 / (1.0 + 1.079 / m)
        total = 0.0
        zeros = 0
        for r in self.registers:
            total += _POW2NEG[r]
            if r == 0:
                zeros += 1
        raw = alpha * m * m / total
        if raw <= 2.5 * m and zeros:
            raw = m * math.log(m / zeros)
        elif raw > (1 << 32) / 30.0:
            raw = -(1 << 32) * math.log(1.0 - raw / (1 << 32))
        return int(round(raw))
