"""Bandwidth-sharing solvers.

Two classic disciplines are provided:

``max_min_fair_share``
    Progressive filling: every demand receives an equal share until it is
    satisfied; leftover capacity is redistributed among the unsatisfied.
    This is the standard model for fair queueing on links, memory
    controllers and disks, and is the default throughout the simulator.
    It runs as a plain loop on the list it is given: its callers hand it
    one socket's or one filesystem pool's 1–16 demands, where numpy's
    per-call cost would dominate the arithmetic.

``proportional_share``
    Capacity is split proportionally to demand.  Used by the ablation
    benchmark to show how the sharing discipline changes the shape of the
    STREAM-vs-membw sweep (Fig. 4).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ResourceError


def _validate(capacity: float, demands: Sequence[float]) -> list[float]:
    """``demands`` as a list of floats, or :class:`ResourceError`."""
    if capacity < 0 or math.isnan(capacity):
        raise ResourceError(f"capacity must be >= 0, got {capacity}")
    if getattr(demands, "ndim", 1) != 1:
        raise ResourceError("demands must be a 1-D sequence")
    try:
        values = [float(d) for d in demands]
    except (TypeError, ValueError):
        raise ResourceError("demands must be a 1-D sequence of numbers") from None
    for d in values:
        # ``not`` catches NaN, which fails every comparison.
        if not 0.0 <= d < math.inf:
            raise ResourceError("demands must be non-negative and finite")
    return values


def max_min_fair_share(capacity: float, demands: Sequence[float]) -> list[float]:
    """Allocate ``capacity`` to ``demands`` by progressive filling.

    Returns a list of grants, one per demand, with three invariants:

    * no demand receives more than it asked for,
    * the grants sum to ``min(capacity, sum(demands))``,
    * any unsatisfied demand receives at least as much as every other
      demand's grant (max-min fairness).

    One pass in ascending (stable) demand order: a demand that fits
    under the current equal share is granted fully, and the first that
    does not caps itself and everyone after it at the share.  There are
    no tolerance thresholds, so the invariants hold at any magnitude.

    Bit-for-bit equal to :func:`max_min_fair_share_reference`, which does
    the same float operations in the same order;
    ``tests/resources/test_fairshare_vectorized.py`` pins that equality.
    The all-satisfied total is summed left to right, the same double as
    the reference's ``ndarray.sum`` below 8 demands; from 8 on numpy sums
    pairwise, so only a total within rounding of ``capacity`` could take
    the other branch.
    """
    values = _validate(capacity, demands)
    # Not sum(): from Python 3.12 it compensates, and ndarray.sum does not.
    total = 0.0
    for d in values:
        total += d
    if total <= capacity:
        return values
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    grants = values[:]
    remaining = float(capacity)
    for pos, i in enumerate(order):
        level = remaining / (n - pos)
        if values[i] > level:
            for j in order[pos:]:
                grants[j] = level
            break
        remaining -= values[i]
    return grants


def max_min_fair_share_reference(
    capacity: float, demands: Sequence[float]
) -> list[float]:
    """Numpy reference for :func:`max_min_fair_share`.

    Kept as the ground truth the production loop is tested against; do
    not call it from production paths.
    """
    arr = np.array(_validate(capacity, demands))
    n = arr.size
    if n == 0:
        return []
    total = float(arr.sum())
    if total <= capacity:
        return [float(d) for d in arr]
    grants = np.zeros(n)
    remaining = float(capacity)
    order = np.argsort(arr, kind="stable")
    for pos, i in enumerate(order):
        level = remaining / (n - pos)
        if arr[i] <= level:
            grants[i] = arr[i]
            remaining -= float(arr[i])
        else:
            grants[order[pos:]] = level
            break
    return [float(g) for g in grants]


def proportional_share(capacity: float, demands: Sequence[float]) -> list[float]:
    """Split ``capacity`` proportionally to demand (capped at the demand)."""
    # numpy's pairwise total sets every grant's scale; a left-to-right
    # sum would move grants by an ulp from 8 demands on.
    arr = np.array(_validate(capacity, demands))
    total = float(arr.sum())
    # total == 0 implies total <= capacity (both validated non-negative),
    # so the all-satisfied branch also covers the no-demand case.
    if total <= capacity:
        return [float(d) for d in arr]
    grants = arr * (capacity / total)
    return [float(g) for g in np.minimum(grants, arr)]
