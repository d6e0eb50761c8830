"""Seeded Zipf object-popularity sampler for transactional workloads.

Datacenter request traffic is popularity-skewed: a handful of hot
objects absorb most operations (pmsim models its KV/bookstore/bank
transaction mixes exactly this way).  A Zipf(``alpha``) law over a
ranked object table reproduces the shape; ``alpha`` around 1.1 gives
the classic 80/20 concentration, smaller exponents flatten towards
uniform and larger ones sharpen the head.

The sampler is *incremental*: each thread owns one seeded sampler and
draws object ranks as its program generator runs, so workload memory
stays O(objects) rather than O(operations) and per-thread streams are
independent yet reproducible.  It is also the only Zipf sampler in the
package; the service load test replays a trace drawn from it.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List

#: Default exponent of the txn family: pronounced head, non-trivial tail.
DEFAULT_ALPHA = 1.1


def zipf_weights(num_objects: int, alpha: float) -> List[float]:
    """Unnormalized Zipf weights for ranks ``1..n`` (rank 0 hottest)."""
    if num_objects < 1:
        raise ValueError(f"need at least one object, got {num_objects}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return [1.0 / (rank ** alpha) for rank in range(1, num_objects + 1)]


class ZipfSampler:
    """Deterministic stream of Zipf-distributed object ranks.

    Rank 0 is the hottest object.  The same ``(num_objects, alpha,
    seed)`` triple always yields the same sample sequence, so workload
    behaviour is a pure function of the workload seed.
    """

    __slots__ = ("num_objects", "alpha", "seed", "_rng", "_cum")

    def __init__(self, num_objects: int, alpha: float = DEFAULT_ALPHA,
                 seed: int = 0) -> None:
        self.num_objects = num_objects
        self.alpha = alpha
        self.seed = seed
        self._rng = random.Random(seed)
        self._cum = list(itertools.accumulate(zipf_weights(num_objects,
                                                           alpha)))

    def top_probability(self) -> float:
        """Probability mass of the hottest object (monotone in alpha)."""
        return (1.0 if self.num_objects == 1
                else self._cum[0] / self._cum[-1])

    def sample(self) -> int:
        """Draw one object rank in ``[0, num_objects)``."""
        point = self._rng.random() * self._cum[-1]
        return bisect.bisect_right(self._cum, point)

    def sample_distinct(self, count: int) -> List[int]:
        """Draw ``count`` *distinct* ranks (hot objects still favoured).

        Rejection-sampled, so the marginal popularity of each slot keeps
        the Zipf skew — the bank workload's two-account transfers hit
        hot-account pairs far more often than uniform choice would.
        """
        if count > self.num_objects:
            raise ValueError(f"cannot draw {count} distinct objects "
                             f"from {self.num_objects}")
        drawn: List[int] = []
        while len(drawn) < count:
            rank = self.sample()
            if rank not in drawn:
                drawn.append(rank)
        return drawn
