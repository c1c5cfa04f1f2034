"""Machine-speed probe.

A fixed task that mixes what ``evmt`` spends its time on: formatting and
parsing floats in the interpreter, sorting and searching a 2.4 MB array,
and many small numpy calls.  The benchmark runs it before and after each
timed operation and scales the operation by the mean of the two times.
"""

from __future__ import annotations

import time

import numpy as np

_X = np.random.default_rng(12345).random(300_000)
_SORTED = np.sort(_X)
_FLOATS = _X[:20_000].tolist()
_SMALL = _X[:256]


def probe_once():
    start = time.perf_counter()
    text = [repr(v) for v in _FLOATS]
    [float(v) for v in text]
    np.sort(_X)
    np.searchsorted(_SORTED, _X)
    for _ in range(2000):
        np.count_nonzero(_SMALL < 0.5)
    return time.perf_counter() - start
