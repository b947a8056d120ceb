"""Every name the traced benchmark wraps exists in the package.

The traced run (`perfbench/run.py --trace 1`) wraps public functions and the
names consuming modules imported.  Installing those wraps here makes a
renamed or deleted name fail the test suite instead of the traced run.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from cbfforge import filters, hj  # noqa: E402
from probe import install_wraps  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_benchmark_wraps_install_and_unwrap():
    original = filters.q_from_value
    tracer = Tracer()
    try:
        install_wraps(tracer)
        assert filters.q_from_value is not original
    finally:
        tracer.unwrap_all()
    assert filters.q_from_value is original is hj.q_from_value
