"""numpy's seeded PCG64 stream in pure Python, for the verify suites.

``PCG64(entropy)`` draws exactly what
``numpy.random.Generator(numpy.random.PCG64(numpy.random.SeedSequence(entropy)))``
draws through ``uniform`` and ``integers``, call for call, so that a verify
report does not depend on whether numpy is installed.  The parts reproduced are
SeedSequence's entropy mixing and ``generate_state(4, uint64)``, the PCG64
XSL-RR 128/64 step and output, numpy's 53-bit doubles, and its Lemire rejection
on 32-bit draws (two per 64-bit output, the second one buffered).
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 2.0 ** -53

# SeedSequence's hash and mix constants; its pool holds 4 words of 32 bits.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _uint32_words(entropy) -> list[int]:
    """Each integer as its 32-bit words, least significant first (0 is one word)."""
    words = []
    for n in entropy:
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _M32)
        n >>= 32
        while n:
            words.append(n & _M32)
            n >>= 32
    return words


def _mix_pool(words: list[int]) -> list[int]:
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state64(pool: list[int], n_words: int) -> list[int]:
    hash_const = _INIT_B
    halves = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        halves.append(value ^ (value >> 16))
    return [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(n_words)]


class PCG64:
    """The seeded stream; draws ``uniform`` floats and ``integers`` below 2**32 wide."""

    __slots__ = ("_state", "_inc", "_buffered")

    def __init__(self, entropy) -> None:
        s0, s1, i0, i1 = _generate_state64(_mix_pool(_uint32_words(entropy)), 4)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        # PCG's seeding: from state 0 one step gives inc; add the seed, step again.
        self._state = (self._inc + (s0 << 64 | s1)) & _M128
        self._step()
        self._buffered = None

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next64(self) -> int:
        self._step()
        state = self._state
        value = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._buffered is not None:
            value, self._buffered = self._buffered, None
            return value
        value = self._next64()
        self._buffered = value >> 32
        return value & _M32

    def uniform(self, low: float, high: float, size: int | None = None):
        """A float in [low, high), or a list of ``size`` of them."""
        span = high - low
        if size is None:
            return low + span * ((self._next64() >> 11) * _TWO_M53)
        return [low + span * ((self._next64() >> 11) * _TWO_M53) for _ in range(size)]

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high); the width high - low is at most 2**32."""
        rng = high - low - 1
        if rng < 0:
            raise ValueError("low >= high")
        if rng > _M32:
            raise ValueError("integers() supports ranges of at most 2**32 values")
        if rng == 0:
            return low
        excl = rng + 1
        m = self._next32() * excl
        if m & _M32 < excl:
            threshold = (_M32 - rng) % excl
            while m & _M32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)
