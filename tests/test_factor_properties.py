"""Property tests of budgeted factorization: whatever the budget, factor()
reconstructs its input, lists only probable primes, leaves no prime below
the trial bound in the cofactor, and calls itself complete exactly when the
cofactor is 1.  Through a factor cache it returns, cold, warm and after a
reload, exactly what the budget computes without one.
"""

import os
import tempfile
from functools import lru_cache
from math import gcd, isqrt, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dynzsig.cli import FactorCache  # noqa: E402
from dynzsig.divisibility import (  # noqa: E402
    FactorBudget,
    _factor_uncached,
    decimal_digits,
    factor,
    is_probable_prime,
)


@lru_cache(maxsize=None)
def primorial_below(bound: int) -> int:
    """Product of the primes p < bound, by a plain sieve."""
    alive = [True] * max(bound, 2)
    alive[0] = alive[1] = False
    for p in range(2, isqrt(bound) + 1):
        if alive[p]:
            alive[p * p :: p] = [False] * len(range(p * p, bound, p))
    return prod(p for p in range(bound) if alive[p])


budgets = st.builds(
    FactorBudget,
    trial_bound=st.sampled_from([2, 3, 50, 1000, 10_000, 1_000_000]),
    rho_rounds=st.integers(1, 3000),
    rho_digit_limit=st.integers(5, 40),
    seed=st.integers(1, 5),
)
# products of a few factors of mixed sizes reach repeated primes, rho splits
# and leftovers over the digit limit far more often than uniform integers do
numbers = st.lists(
    st.one_of(st.integers(1, 10**4), st.integers(1, 10**9), st.integers(1, 10**30)),
    min_size=1,
    max_size=5,
).map(prod)


@settings(max_examples=200, deadline=None)
@given(n=numbers, budget=budgets)
@example(n=12, budget=FactorBudget(trial_bound=2))
@example(n=10000019**2 * 30000023, budget=FactorBudget(trial_bound=50))
@example(n=6 * (10**49 + 9), budget=FactorBudget(rho_digit_limit=30))
@example(n=10007 * 999983 * (10**49 + 9), budget=FactorBudget(rho_digit_limit=30))
@example(n=2 * 999983, budget=FactorBudget(trial_bound=1000))
@example(n=297467, budget=FactorBudget(rho_digit_limit=5))
def test_factor_properties(n, budget):
    fa = factor(n, budget)
    assert fa.reconstruct() == n
    assert all(is_probable_prime(p) and e >= 1 for p, e in fa.factors.items())
    assert list(fa.factors) == sorted(fa.factors)
    assert gcd(fa.cofactor, primorial_below(budget.trial_bound)) == 1
    assert fa.complete == (fa.cofactor == 1)
    # a cofactor within the digit limit is what rho failed on: never a prime
    if fa.cofactor > 1 and decimal_digits(fa.cofactor) <= budget.rho_digit_limit:
        assert not is_probable_prime(fa.cofactor)


# budgets this small leave a cofactor on most products of three or more factors
small_budgets = st.builds(
    FactorBudget,
    trial_bound=st.sampled_from([2, 50, 1000]),
    rho_rounds=st.integers(1, 64),
    rho_digit_limit=st.integers(5, 40),
    seed=st.integers(1, 5),
)


@settings(max_examples=100, deadline=None)
@given(n=numbers, budget=small_budgets)
@example(n=2 * 1000000000039 * 3000000000013, budget=FactorBudget(trial_bound=1000, rho_rounds=20))
def test_cached_factor_equals_uncached(n, budget):
    expected = _factor_uncached(n, budget)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "factors.jsonl")
        cache = FactorCache(path)
        assert factor(n, budget, cache) == expected  # cold: computed and stored
        # warm, then read back from the file by a new handle
        for held in (cache, FactorCache(path)):
            assert held.warnings == []
            assert held.get(n, budget) == expected
            assert factor(n, budget, held) == expected
