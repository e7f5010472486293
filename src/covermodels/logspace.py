"""Scalar arithmetic in log space, in pure Python.

The engine and the local models combine one or two log values at a
time, where a numpy or scipy call costs far more in dispatch than in
arithmetic. ``logaddexp`` follows the branch structure of numpy's
``np.logaddexp``, so it returns the same values on the same inputs.
"""

from __future__ import annotations

import math
from functools import reduce

_LOG2 = math.log(2.0)


def logaddexp(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) for floats a and b."""
    if a == b:
        # also equal infinities, which the difference would turn into nan
        return a + _LOG2
    d = a - b
    if d > 0:
        return a + math.log1p(math.exp(-d))
    if d <= 0:
        return b + math.log1p(math.exp(d))
    return d  # a or b is nan


def logsumexp(values) -> float:
    """log(sum(exp(v))) over a nonempty iterable of floats, folded left."""
    return reduce(logaddexp, values)


def log1mexp(a: float) -> float:
    """log(1 - exp(a)) for a <= 0, stable on both ends."""
    if a >= 0.0:
        return -math.inf
    if a > -_LOG2:
        return math.log(-math.expm1(a))
    return math.log1p(-math.exp(a))
