import math

import metrics
from ops import OpResult
from workloads import MARCH


def test_percentile_interpolates_finite_values():
    assert metrics.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0


def test_failed_op_counts_as_infinite():
    inf = math.inf
    # one failure out of three sorts last and leaves the median finite
    assert metrics.percentile([1.0, inf, 3.0], 50) == 3.0
    # a rank that touches a failure is a miss, never an interpolated number
    assert metrics.percentile([1.0, 2.0, inf, inf], 50) == inf
    assert metrics.percentile([1.0, 2.0, 3.0, inf], 99) == inf
    assert metrics.percentile([1.0, 2.0, 3.0, inf], 50) == 2.5


def _op(wall, ok=True, setup=0.25, rss=50.0):
    op = OpResult(MARCH[0], False, wall, setup, rss)
    op.ok = ok
    return op


def test_end_to_end_counts_failures_against_attempts():
    ops = [_op(4.0), _op(4.2), _op(9.0, ok=False), _op(4.1, rss=80.0)]
    table = metrics.end_to_end(ops)
    assert table["op_s_p50"][0] == 4.15  # the failure sorts above 4.2
    assert table["error_rate"][0] == 0.25
    assert table["peak_rss_mb"][0] == 80.0
    assert table["setup_s"] == (0.25, "s", 4)
    # throughput only over the successful ops
    assert table["steps_per_s"][0] == 3 * 5000 / (4.0 + 4.2 + 4.1)
    assert "trials_per_s" not in table


def test_traced_ops_are_left_out_of_end_to_end():
    traced = _op(100.0)
    traced.traced = True
    table = metrics.end_to_end([_op(1.0), traced])
    assert table["op_s_p50"] == (1.0, "s", 1)
