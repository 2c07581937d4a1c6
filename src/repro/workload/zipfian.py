"""Zipfian key-popularity generator.

YCSB's request keys follow a Zipfian distribution; the paper uses a skew
factor of 0.9 over half a million records.  This implementation uses the
classic Gray et al. "quick and portable" rejection-inversion approximation
also used by the reference YCSB generator: it precomputes the harmonic
normalisation constant ``zeta(n, theta)`` and maps uniform samples to
ranks, so sampling is O(1) per request after O(n) setup (the setup is
cached per (n, theta) pair because the scaling experiments reuse it).
A workload asks for a whole batch's ranks in one call.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

_ZETA_CACHE: Dict[Tuple[int, float], float] = {}


def _zeta(n: int, theta: float) -> float:
    """Compute (and cache) the generalised harmonic number ``H_{n,theta}``."""
    key = (n, theta)
    cached = _ZETA_CACHE.get(key)
    if cached is not None:
        return cached
    total = 0.0
    for i in range(1, n + 1):
        total += 1.0 / (i ** theta)
    _ZETA_CACHE[key] = total
    return total


class ZipfianGenerator:
    """Samples integer ranks in ``[0, num_items)`` with Zipfian skew.

    Args:
        num_items: size of the key space (paper: 500 000).
        theta: skew factor in ``[0, 1)``; 0 is uniform, 0.99 extremely
            skewed (paper: 0.9).
        seed: seed for the private RNG so runs are reproducible.
    """

    def __init__(self, num_items: int, theta: float = 0.9, seed: int = 42) -> None:
        if num_items < 1:
            raise ValueError("num_items must be positive")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be in [0, 1)")
        self.num_items = num_items
        self.theta = theta
        self._rng = random.Random(seed)
        self._zeta_n = _zeta(num_items, theta)
        self._zeta_2 = _zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta) if theta > 0 else 1.0
        #: A uniform ``u`` with ``u * zeta_n`` below 1.0 draws rank 0, below
        #: this rank 1.
        self._second_rank_below = 1.0 + 0.5 ** theta
        # For num_items <= 2 the eta expression degenerates to 0/0 (both the
        # numerator and ``1 - zeta_2/zeta_n`` vanish); any finite value works
        # because sample_many() resolves ranks 0 and 1 before eta is consulted.
        eta_denominator = 1.0 - self._zeta_2 / self._zeta_n
        self._eta = (
            (1.0 - (2.0 / num_items) ** (1.0 - theta)) / eta_denominator
            if theta > 0 and eta_denominator != 0.0
            else 1.0
        )

    def sample_many(self, count: int,
                    where: Optional[Callable[[int], bool]] = None,
                    max_tries: int = 64) -> List[int]:
        """Draw *count* ranks in one loop; rank 0 is the most popular item.

        With *where* given, each rank is drawn again until it satisfies the
        predicate (rejection sampling): sharded workloads draw a popular key
        that routes to one consensus group this way, and with S shards
        roughly 1/S of draws qualify.  After *max_tries* rejections in a row
        the rank is the most popular one that satisfies it (possible only
        for tiny keyspaces where a shard owns very few ranks), which keeps
        the draw count bounded and deterministic.
        """
        num_items, last = self.num_items, self.num_items - 1
        uniform = self.theta == 0.0
        random, randrange = self._rng.random, self._rng.randrange
        zeta_n, second, eta, alpha = (self._zeta_n, self._second_rank_below,
                                      self._eta, self._alpha)
        ranks: List[int] = []
        append = ranks.append
        tries = 0
        while len(ranks) < count:
            if uniform:
                rank = randrange(num_items)
            else:
                u = random()
                uz = u * zeta_n
                if uz < 1.0:
                    rank = 0
                elif uz < second:
                    rank = 1
                else:
                    rank = min(int(num_items * ((eta * u - eta + 1.0) ** alpha)),
                               last)
            if where is None or where(rank):
                append(rank)
                tries = 0
            elif (tries := tries + 1) == max_tries:
                for rank in range(num_items):
                    if where(rank):
                        break
                else:
                    raise ValueError("no rank satisfies the predicate")
                append(rank)
                tries = 0
        return ranks
