"""Seeded property tests for the max-min share solver.

:func:`max_min_fair_share` is a sorted-waterfilling loop on plain lists;
:func:`max_min_fair_share_reference` does the same float operations on
a numpy array and stays as the oracle.  These tests pin exact float
equality between the two on random cases across magnitude regimes, plus
the classic fairness properties on the production path itself.
"""

import numpy as np
import pytest

from repro.errors import ResourceError
from repro.resources.fairshare import (
    max_min_fair_share,
    max_min_fair_share_reference,
)
from repro.sim.rng import spawn_rng

TRIALS = 120


def _demand_vectors(seed: int, trials: int = TRIALS):
    """Yield (capacity, demands) pairs across the interesting regimes.

    Magnitudes span 1e-9..1e12, with deliberate ties and zeros — the
    regimes where a sloppy vectorization would diverge from the scalar
    loop (tie-order in the stable sort, zero demands, huge totals).
    """
    rng = spawn_rng(seed, "fairshare:vectorized")
    for trial in range(trials):
        n = int(rng.integers(1, 33))
        scale = 10.0 ** float(rng.uniform(-9, 12))
        demands = [float(d) for d in rng.uniform(0.0, 10.0, size=n) * scale]
        if trial % 3 == 0 and n >= 2:
            # Plant exact ties: stable argsort order must not matter.
            demands[n // 2] = demands[0]
        if trial % 5 == 0:
            demands[int(rng.integers(0, n))] = 0.0
        capacity = float(rng.uniform(0.0, 1.5) * sum(demands)) + 1e-9
        yield capacity, demands


class TestExactEqualityWithScalarReference:
    def test_bitwise_equal_on_random_cases(self):
        for capacity, demands in _demand_vectors(seed=70):
            fast = max_min_fair_share(capacity, demands)
            slow = max_min_fair_share_reference(capacity, demands)
            # Exact float equality, not approx: the two solvers must be
            # byte-interchangeable inside the rate model.
            assert fast == slow
            assert max_min_fair_share(capacity, np.asarray(demands)) == slow

    def test_bitwise_equal_on_adversarial_edges(self):
        cases = [
            (0.0, [1.0, 2.0]),  # zero capacity, all level-capped
            (1e-9, [0.0, 0.0, 5.0]),  # zeros sort first
            (10.0, [10.0]),  # single demand, exactly satisfied
            (5.0, [5.0, 5.0]),  # tie at the break point
            (1e300, [1e300, 1e300]),  # near-overflow magnitudes
            (3.0, [1.0, 1.0, 1.0, 1.0]),  # equal demands, oversubscribed
            # Dyadic totals exactly equal to the capacity: every summation
            # order gives the same double, so both take the fast path.
            (1.75, [0.25, 1.0, 0.5]),
            (12.375, [0.5, 1.25, 0.125, 2.0, 1.0, 0.75, 1.5, 0.25, 2.5,
                      0.375, 1.125, 1.0]),
        ]
        for capacity, demands in cases:
            assert max_min_fair_share(capacity, demands) == (
                max_min_fair_share_reference(capacity, demands)
            )

    def test_empty_and_validation_behaviour_unchanged(self):
        assert max_min_fair_share(5.0, []) == []
        assert max_min_fair_share_reference(5.0, []) == []
        for bad in (
            [-1.0],
            [float("nan")],
            [float("inf")],
            np.ones((2, 2)),  # 2-D input
            [[1.0, 2.0], [3.0, 4.0]],
        ):
            with pytest.raises(ResourceError):
                max_min_fair_share(1.0, bad)
            with pytest.raises(ResourceError):
                max_min_fair_share_reference(1.0, bad)


class TestVectorizedProperties:
    def test_permutation_invariance(self):
        rng = spawn_rng(71, "fairshare:vectorized")
        for capacity, demands in _demand_vectors(seed=71, trials=40):
            grants = max_min_fair_share(capacity, demands)
            order = [int(i) for i in rng.permutation(len(demands))]
            permuted = max_min_fair_share(capacity, [demands[i] for i in order])
            for j, i in enumerate(order):
                assert permuted[j] == grants[i]

    def test_capacity_saturation(self):
        for capacity, demands in _demand_vectors(seed=72, trials=40):
            grants = max_min_fair_share(capacity, demands)
            assert all(g <= d for g, d in zip(grants, demands))
            if sum(demands) <= capacity:
                assert grants == demands
            else:
                assert sum(grants) == pytest.approx(capacity, rel=1e-12)

    def test_equal_demands_get_equal_grants(self):
        rng = spawn_rng(73, "fairshare:vectorized")
        for _ in range(40):
            n = int(rng.integers(2, 17))
            demand = float(rng.uniform(1.0, 10.0))
            capacity = float(rng.uniform(0.5, 2.0)) * demand * n
            grants = max_min_fair_share(capacity, [demand] * n)
            assert len(set(grants)) == 1
