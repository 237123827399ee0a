"""Sparse sentence vectors and their exact cosine, which the redundancy cap
and lexrank's near-threshold pairs decide by."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class SentenceVector:
    """Sparse non-negative token weights; zero entries are never stored."""

    weights: dict[str, float]
    _norm: float | None = field(default=None, repr=False, compare=False)

    def norm(self) -> float:
        if self._norm is None:
            self._norm = math.sqrt(math.fsum(w * w for w in self.weights.values()))
        return self._norm

    def __bool__(self) -> bool:
        return bool(self.weights)


def cosine_similarity(a: SentenceVector, b: SentenceVector) -> float:
    """Cosine of two sparse vectors; 0 when either is empty.

    Sums use ``math.fsum`` so the result is independent of key order,
    which keeps the similarity exactly symmetric.
    """
    if not a or not b:
        return 0.0
    if len(b.weights) < len(a.weights):
        a, b = b, a
    dot = math.fsum(
        w * b.weights[t] for t, w in a.weights.items() if t in b.weights
    )
    if dot == 0.0:
        return 0.0
    return min(1.0, dot / (a.norm() * b.norm()))
