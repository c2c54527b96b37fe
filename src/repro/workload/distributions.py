"""Key choosers: the request distributions used by the YCSB core workloads.

Each chooser maps a draw from a random stream to a *key index* in
``[0, item_count)``.  The implementations follow the standard YCSB generator
semantics:

* :class:`UniformKeyChooser` -- every key equally likely;
* :class:`ZipfianGenerator` -- classic Zipf over ``[0, n)`` with the
  Gray et al. rejection-free inversion used by YCSB (constant ``theta``,
  default 0.99), favouring *low* indices;
* :class:`ScrambledZipfianKeyChooser` -- zipfian popularity spread over the
  whole key space by hashing, so popular keys are not clustered (YCSB's
  default ``requestdistribution=zipfian``);
* :class:`LatestKeyChooser` -- zipfian over recency: the most recently
  inserted keys are the most popular (YCSB workload D).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

__all__ = [
    "KeyChooser",
    "UniformKeyChooser",
    "ZipfianGenerator",
    "ScrambledZipfianKeyChooser",
    "LatestKeyChooser",
]

_FNV_OFFSET_BASIS_64 = 0xCBF29CE484222325
_FNV_PRIME_64 = 0x100000001B3
_MASK_64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer's 8 little-endian bytes (YCSB's ``fnvhash64``)."""
    data = int(value).to_bytes(8, "little", signed=False)
    hashed = _FNV_OFFSET_BASIS_64
    for byte in data:
        hashed ^= byte
        hashed = (hashed * _FNV_PRIME_64) & _MASK_64
    return hashed


class KeyChooser(ABC):
    """Chooses key indices according to some popularity distribution."""

    def __init__(self, item_count: int) -> None:
        if item_count < 1:
            raise ValueError(f"item_count must be >= 1, got {item_count!r}")
        self._item_count = int(item_count)

    @property
    def item_count(self) -> int:
        """Current size of the key space."""
        return self._item_count

    @abstractmethod
    def next_index(self, rng: np.random.Generator) -> int:
        """Draw one key index in ``[0, item_count)``."""

    def grow(self, new_item_count: int) -> None:
        """Inform the chooser that keys were inserted (key space grew).

        The default implementation just widens the range; distributions that
        precompute constants override it.
        """
        if new_item_count < self._item_count:
            raise ValueError("key space cannot shrink")
        self._item_count = int(new_item_count)


class UniformKeyChooser(KeyChooser):
    """Every key in ``[0, item_count)`` is equally likely."""

    def next_index(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self._item_count))


class ZipfianGenerator(KeyChooser):
    """Zipf-distributed indices over ``[0, item_count)`` (low indices popular).

    Implements the constant-time inversion method used by YCSB (after Gray et
    al., "Quickly Generating Billion-Record Synthetic Databases"), with
    exponent ``theta`` (YCSB's ``ZIPFIAN_CONSTANT`` = 0.99).
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta!r}")
        self.theta = float(theta)
        self._recompute_constants()

    def _zeta(self, n: int) -> float:
        # Direct summation; n is at most a few million in simulation runs and
        # the constant is computed once (and incrementally on grow()).
        indices = np.arange(1, n + 1, dtype=float)
        return float(np.sum(1.0 / np.power(indices, self.theta)))

    def _recompute_constants(self) -> None:
        n = self._item_count
        self._zetan = self._zeta(n)
        self._zeta2theta = self._zeta(2) if n >= 2 else self._zetan
        self._alpha = 1.0 / (1.0 - self.theta)
        denominator = 1.0 - self._zeta2theta / self._zetan
        if denominator <= 0.0:
            # n <= 2: the inversion in next_index() always resolves to the
            # first two branches, so eta is never used; any finite value works.
            self._eta = 0.0
        else:
            self._eta = (1.0 - (2.0 / n) ** (1.0 - self.theta)) / denominator

    def grow(self, new_item_count: int) -> None:
        old = self._item_count
        super().grow(new_item_count)
        if new_item_count != old:
            self._recompute_constants()

    def next_index(self, rng: np.random.Generator) -> int:
        u = float(rng.random())
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        index = int(self._item_count * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(index, self._item_count - 1)


class ScrambledZipfianKeyChooser(KeyChooser):
    """Zipfian popularity scattered uniformly over the key space via hashing.

    This is YCSB's default request distribution: the *set* of popular keys is
    spread across the whole key range instead of being the lowest indices, so
    partitioning does not concentrate the hot keys on one node.
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        self._zipf = ZipfianGenerator(item_count, theta=theta)
        # fnv1a_64(raw) % n is pure in (raw, n); the zipfian draw
        # concentrates on few raw values, so memoizing it removes the
        # Python hash loop from the per-operation path.  Cleared on grow()
        # (the modulus changes).
        self._scramble_cache: dict = {}

    def grow(self, new_item_count: int) -> None:
        grew = new_item_count != self._item_count
        super().grow(new_item_count)
        self._zipf.grow(new_item_count)
        if grew:
            self._scramble_cache.clear()

    def next_index(self, rng: np.random.Generator) -> int:
        raw = self._zipf.next_index(rng)
        cached = self._scramble_cache.get(raw)
        if cached is None:
            cached = self._scramble_cache[raw] = fnv1a_64(raw) % self._item_count
        return cached


class LatestKeyChooser(KeyChooser):
    """Most recently inserted keys are the most popular (YCSB workload D).

    A zipfian draw is interpreted as a distance back from the newest key.
    """

    def __init__(self, item_count: int, theta: float = 0.99) -> None:
        super().__init__(item_count)
        self._zipf = ZipfianGenerator(item_count, theta=theta)

    def grow(self, new_item_count: int) -> None:
        super().grow(new_item_count)
        self._zipf.grow(new_item_count)

    def next_index(self, rng: np.random.Generator) -> int:
        newest = self._item_count - 1
        offset = self._zipf.next_index(rng)
        return max(0, newest - offset)


def make_key_chooser(
    name: str,
    item_count: int,
    *,
    theta: float = 0.99,
) -> KeyChooser:
    """Factory used by :class:`~repro.workload.workloads.WorkloadConfig`.

    Accepted names: ``uniform``, ``zipfian`` (scrambled, YCSB default),
    ``zipfian_clustered``, ``latest``.
    """
    name = name.lower()
    if name == "uniform":
        return UniformKeyChooser(item_count)
    if name == "zipfian":
        return ScrambledZipfianKeyChooser(item_count, theta=theta)
    if name == "zipfian_clustered":
        return ZipfianGenerator(item_count, theta=theta)
    if name == "latest":
        return LatestKeyChooser(item_count, theta=theta)
    raise ValueError(f"unknown request distribution {name!r}")
