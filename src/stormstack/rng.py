"""Deterministic random streams with a fully pinned bit-level contract.

Every stochastic choice in the toolkit (synthetic data, dataset balancing,
splitting, parameter initialization, batch shuffling) flows through the
SplitMix64 generator defined here, so a run is reproduced exactly by its
seed, on any platform.

Contract, fixed for cross-run and cross-implementation stability:

* state advance: ``state += 0x9E3779B97F4A7C15`` (mod 2^64); output is the
  64-bit finalizer ``mix64`` applied to the new state.
* uniform doubles: ``(draw >> 11) * 2**-53``, giving [0, 1).
* gaussians: Box-Muller on draw pairs, ``u1 = ((a >> 11) + 1) * 2**-53``
  (so u1 is in (0, 1]), ``u2 = (b >> 11) * 2**-53``,
  ``z0 = sqrt(-2 ln u1) cos(2 pi u2)``, ``z1 = ... sin(...)``.  A block
  request for n gaussians consumes ``2 * ceil(n / 2)`` draws and discards
  the unused half of an odd final pair; scalar requests instead bank the
  sine half and return it on the next scalar call, so repeated
  ``normal()`` matches ``normal_block`` value for value.
* bounded ints: ``draw % n`` (n is tiny next to 2^64; the modulo bias is
  below 1e-13 for every n used here).
* shuffling: Fisher-Yates, high index down; partial selection swaps the
  front of the index array.
"""

import math

import numpy as np

from .errors import UsageError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2POW53 = 2.0 ** -53


def mix64(z: int) -> int:
    """Finalizing mix of SplitMix64 (variant 13 of the MurmurHash3 family)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


class SplitMix64:
    """Sequential generator; scalar and block draws share one stream.

    Block draws are vectorized with numpy uint64 arithmetic and produce
    exactly the same values the scalar path would, because output i only
    depends on ``seed + (i + 1) * GOLDEN``.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare_normal = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def u64_block(self, n: int) -> np.ndarray:
        if n < 0:
            raise UsageError(f"block size must be nonnegative, got {n}")
        with np.errstate(over="ignore"):
            idx = np.arange(1, n + 1, dtype=np.uint64)
            z = np.uint64(self._state) + np.uint64(_GOLDEN) * idx
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GOLDEN) & _MASK
        return z

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _INV_2POW53

    def uniform_block(self, n: int) -> np.ndarray:
        return (self.u64_block(n) >> np.uint64(11)).astype(np.float64) * _INV_2POW53

    def normal(self) -> float:
        # Scalar draws hand out the halves of each Box-Muller pair in
        # order: the first call consumes two raw draws and banks the
        # sine half, the next call returns the banked value without
        # touching the stream.  The banked half survives interleaved
        # draws of other kinds, so two normal() calls always match
        # normal_block(2) run from the same point in the stream.
        if self._spare_normal is not None:
            value = self._spare_normal
            self._spare_normal = None
            return value
        pair = self.normal_block(2)
        self._spare_normal = float(pair[1])
        return float(pair[0])

    def normal_block(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        draws = self.u64_block(2 * pairs)
        a = (draws[0::2] >> np.uint64(11)).astype(np.float64)
        b = (draws[1::2] >> np.uint64(11)).astype(np.float64)
        u1 = (a + 1.0) * _INV_2POW53
        u2 = b * _INV_2POW53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise UsageError(f"randbelow requires a positive bound, got {n}")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def choose_indices(self, n_total: int, n_take: int) -> list:
        """Uniform sample without replacement via a partial Fisher-Yates pass.

        Returns n_take distinct indices from range(n_total), in selection
        order (callers wanting stable relative order sort the result).
        """
        if not 0 <= n_take <= n_total:
            raise UsageError(
                f"cannot take {n_take} of {n_total} indices without replacement"
            )
        idx = list(range(n_total))
        for i in range(n_take):
            j = i + self.randbelow(n_total - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:n_take]


def subseed(seed: int, index: int) -> int:
    """Derived seed for unit-of-work ``index``: first output of a stream
    seeded with ``seed XOR index``.  Serial and parallel generation agree
    as long as every unit draws only from its own derived stream.
    """
    return SplitMix64((seed & _MASK) ^ (index & _MASK)).next_u64()
