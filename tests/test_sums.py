import math
import random
import sys

import pytest

from summ.sums import left_sum


def test_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the left-to-right sum is 0.0,
    # while a compensated or exact sum keeps the 1.0
    values = [1e16, 1.0, -1e16]
    assert left_sum(values) == 0.0
    assert math.fsum(values) == 1.0
    assert left_sum(iter([0.5, 0.25, 0.125])) == 0.875
    assert left_sum([]) == 0.0


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="the builtin sum compensates from 3.12 on")
def test_is_the_builtin_float_sum_before_python_3_12():
    rng = random.Random(5)
    for _ in range(500):
        values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20) for _ in range(rng.randint(0, 12))]
        assert left_sum(values).hex() == float(sum(values)).hex()
