"""numpy's ``Generator(PCG64(seed))`` in pure Python, for the draws that
``generator.generate_instance`` makes.

``PCG64Stream(seed)`` gives the same numbers as numpy's generator, bit for
bit, and leaves its state at the same place:

- seeding through ``SeedSequence(seed)``, whose four pool words give the
  128-bit state and increment;
- PCG-XSL-RR 128/64 words (O'Neill, "PCG: a family of simple fast
  space-efficient statistically good algorithms for random number
  generation", 2014): step the LCG, then rotate the xor of its halves;
- doubles as ``(word >> 11) * 2**-53``;
- bounded integers by Lemire's method (Lemire, "Fast random integer
  generation in an interval", ACM TOMACS 2019), on the 32-bit halves of a
  word when the range fits in 32 bits. Those halves share numpy's one-half
  buffer, which doubles bypass, and a range of 0 returns 0 without a draw;
- ``permutation`` by a shuffle with masked rejection;
- sampling without replacement by Floyd's algorithm and a Lemire shuffle,
  or by a tail shuffle when ``pop > 10000 and size > pop // 50``;
- weighted sampling by a left-to-right cdf and ``bisect_right``.

Each method allocates its result list before it draws, so an absurd size
fails at once with ``MemoryError``. The module imports no numpy: it is what
lets ``ostflow gen`` start without it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for an int seed."""
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    return [lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])]


class PCG64Stream:
    """The stream of ``numpy.random.Generator(numpy.random.PCG64(seed))``.

    ``integers``, ``random``, ``permutation``, ``sample`` and ``weighted``
    return lists equal to numpy's ``integers(high, size=size)``,
    ``random(size)``, ``permutation(n)``, ``choice(pop, size,
    replace=False)`` and ``choice(len(p), size, p=p)``.
    """

    def __init__(self, seed: int):
        # pcg64_set_seed: the state steps from 0, adds the seed, steps again
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        start = (self._inc + (s_hi << 64 | s_lo)) & _MASK128
        self._state = (start * _MULTIPLIER + self._inc) & _MASK128
        self._half = None  # the upper half of a word whose lower half was drawn

    def next64(self) -> int:
        """One 64-bit word: step, then output the new state."""
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        rot = state >> 122
        word = (state >> 64 ^ state) & _MASK64
        return (word >> rot | word << (-rot & 63)) & _MASK64

    def next32(self) -> int:
        """One 32-bit half: the buffered upper half, or a new word's lower half."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self.next64()
        self._half = word >> 32
        return word & _MASK32

    def _below(self, high: int) -> int:
        """One integer in [0, high) by Lemire's method; 0 without a draw at
        high == 1."""
        if high == 1:
            return 0
        bits, draw = (32, self.next32) if high <= 1 << 32 else (64, self.next64)
        if high == 1 << bits:
            return draw()
        mask = (1 << bits) - 1
        product = draw() * high
        if product & mask < high:
            threshold = (1 << bits) % high
            while product & mask < threshold:
                product = draw() * high
        return product >> bits

    def _shuffle(self, data: list, first: int) -> None:
        """Swap each of data[-1], ..., data[first] with a Lemire-drawn entry
        at or below it (numpy's ``_shuffle_int``)."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._below(i + 1)
            data[i], data[j] = data[j], data[i]

    def integers(self, high: int, size: int) -> list[int]:
        """``size`` integers uniform on [0, high)."""
        out = [0] * size
        for i in range(size):
            out[i] = self._below(high)
        return out

    def random(self, size: int) -> list[float]:
        """``size`` doubles uniform on [0, 1)."""
        out = [0.0] * size
        for i in range(size):
            out[i] = (self.next64() >> 11) * 2.0**-53
        return out

    def permutation(self, n: int) -> list[int]:
        """A random ordering of 0..n-1: each swap index is drawn by masked
        rejection (numpy's ``random_interval``)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self.next32 if i <= _MASK32 else self.next64
            j = draw() & mask
            while j > i:
                j = draw() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def sample(self, pop: int, size: int) -> list[int]:
        """``size`` distinct integers from [0, pop), in random order."""
        if pop > 10000 and size > pop // 50:
            out = list(range(pop))
            self._shuffle(out, max(pop - size, 1))
            return out[pop - size :]
        out = [0] * size
        seen = set()
        for k, j in enumerate(range(pop - size, pop)):
            value = self._below(j + 1)
            if value in seen:
                value = j
            seen.add(value)
            out[k] = value
        self._shuffle(out, 1)
        return out

    def weighted(self, p, size: int) -> list[int]:
        """``size`` indexes into ``p``, each drawn with probability p[i]."""
        cdf = list(accumulate(p))
        cdf = [c / cdf[-1] for c in cdf]
        out = self.random(size)
        for i, u in enumerate(out):
            out[i] = bisect_right(cdf, u)
        return out
