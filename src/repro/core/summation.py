"""One pinned floating-point summation order for every output path.

The builtin :func:`sum` is not a fixed function of its inputs across
interpreters: from Python 3.12 it adds floats with Neumaier
compensation, so ``sum([0.1] * 10)`` is ``0.9999999999999999`` on
3.10/3.11 and ``1.0`` on 3.12.  A result byte that depends on such a
sum therefore depends on the Python version.  Neither
:func:`numpy.sum` (pairwise) nor :func:`math.fsum` (correctly rounded)
reproduces the historical left-to-right order either.

The helpers here add strictly left to right, ``((0 + v0) + v1) + ...``,
on every interpreter — bit-identical to the uncompensated builtin
:func:`sum` of Python <= 3.11, which the golden result digests were
generated with.  The ``determinism`` lint rule flags builtin
:func:`sum` over floats in the seeded layers and points here.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable

import numpy as np

__all__ = ["prefix_sums", "sequential_sum"]


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Left-to-right running sums of a 1-D float array.

    Entry ``k`` is bit-identical to ``sequential_sum(values[:k + 1])``:
    :func:`numpy.cumsum` accumulates sequentially, and adding ``0.0``
    turns the ``-0.0`` an all-``-0.0`` head would carry into the
    ``0.0`` an integer-zero start gives.
    """
    return np.cumsum(values, dtype=float) + 0.0


def sequential_sum(values: Iterable[float] | np.ndarray) -> float:
    """``((0 + v0) + v1) + ...`` — the float sum of every output path."""
    if isinstance(values, np.ndarray):
        return float(prefix_sums(values)[-1]) if values.size else 0.0
    return float(functools.reduce(operator.add, values, 0.0))
