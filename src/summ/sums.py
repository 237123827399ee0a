"""Float sums whose bits do not depend on the Python version."""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, as the builtin ``sum`` adds
    floats on Python 3.10 and 3.11; Python 3.12's ``sum`` compensates a
    float sum, which can round it differently."""
    return reduce(operator.add, values, 0.0)
