"""Property tests of budgeted factorization: whatever the budget, factor()
reconstructs its input, lists only probable primes, leaves no prime below
the trial bound in the cofactor, and calls itself complete exactly when the
cofactor is 1.  Through a factor cache it returns, cold, warm and after a
reload, exactly what the budget computes without one, and the cache loads
and answers as the eager loader it replaced does.
"""

import json
import os
import sys
import tempfile
from dataclasses import asdict
from functools import lru_cache
from math import gcd, isqrt, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dynzsig.cli import FactorCache  # noqa: E402
from dynzsig.divisibility import (  # noqa: E402
    FactorBudget,
    Factorization,
    _factor_uncached,
    decimal_digits,
    factor,
    is_probable_prime,
)
from oracles import EagerFactorCache  # noqa: E402


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


# composites with their complete factorizations: two of 6 digits, so one
# digit count holds two composites, 3^3000 and 7 * 3^3000 (1,432 and 1,433
# digits), and 2^17000 (5,118 digits), past the int<->str limit the
# differential loads under
_LIMIT = 5000
_POOL = {
    6: {2: 1, 3: 1},
    12: {2: 2, 3: 1},
    458330: {2: 1, 5: 1, 45833: 1},
    999998: {2: 1, 31: 1, 127: 2},
    2 * 1000000000039 * 3000000000013: {2: 1, 1000000000039: 1, 3000000000013: 1},
    3**3000: {3: 3000},
    7 * 3**3000: {3: 3000, 7: 1},
    2**17000: {2: 17000},
}
_BUDGETS = (FactorBudget(), FactorBudget(trial_bound=1000, rho_rounds=20))
_CORRUPT = ["not json", "{", "[1, 2]", '"6"', "null", '{"composite": "6"}', '{"composite": "6", "factors": 3, "complete": true}']
_HAS_LIMIT = hasattr(sys, "set_int_max_str_digits")


def _decimal_texts(numbers) -> dict[int, str]:
    if not _HAS_LIMIT:
        return {n: str(n) for n in numbers}
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return {n: str(n) for n in numbers}
    finally:
        sys.set_int_max_str_digits(saved)


_TEXTS = _decimal_texts(_POOL)


@st.composite
def cache_lines(draw):
    """One line of a cache file: a valid complete or partial line, or one
    that is budgetless, tampered, corrupt or over the limit, or whose
    composite text is not canonical."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_CORRUPT))
    # most lines name one of a few composites, so that two lines often hold the
    # same one under the same tag, and differ in their factors when partial
    n = draw(st.sampled_from([6, 12, 999998]) | st.sampled_from(sorted(_POOL)))
    s = _TEXTS[n]
    texts = [s, s, s, "+" + s, "0" + s, " " + s, s[0] + "_" + s[1:], "-" + s, "6x", ""]
    text = draw(st.sampled_from(texts + [n] if n < 10**6 else texts))
    complete = draw(st.sampled_from([True, True, False, False, False, 0, 1, None]))
    full = sorted(_POOL[n].items())
    if complete:
        factors = full
    else:  # a sub-multiset of the factors, which may be all of them
        factors = [(p, k) for p, e in full if (k := draw(st.integers(0, e)))]
    tamper = draw(st.sampled_from(["none"] * 6 + ["prime", "p<2", "e<1", "all", "empty"]))
    if tamper == "prime":
        factors = factors + [(11, 1)]
    elif tamper == "p<2":
        factors = factors + [(draw(st.sampled_from([0, 1])), 1)]
    elif tamper == "e<1":
        factors = factors + [(13, draw(st.sampled_from([0, -1])))]
    elif tamper == "all":
        factors = full
    elif tamper == "empty":
        factors = []
    line = {"composite": text, "factors": [[str(p), e] for p, e in factors]}
    if complete is not None:
        line["complete"] = complete
    budget = draw(st.sampled_from([0, 0, 1, None, "other"]))
    if budget is not None:
        line["budget"] = {"seed": 9} if budget == "other" else asdict(_BUDGETS[budget])
    return json.dumps(line)


def _line(text, factors, budget=None) -> str:
    line = {"complete": budget is None, "composite": text, "factors": [[str(p), e] for p, e in factors]}
    if budget is not None:
        line["budget"] = asdict(budget)
    return json.dumps(line)


# stores run on terms below the limit, as the CLI's do
_STORES = st.tuples(st.sampled_from([n for n in sorted(_POOL) if n < 10**_LIMIT]), st.booleans(), st.sampled_from([0, 1]))


@pytest.mark.skipif(not _HAS_LIMIT, reason="no int<->str limit")
@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(cache_lines(), max_size=12),
    ops=st.lists(st.one_of(st.sampled_from(sorted(_POOL)), _STORES), max_size=6),
)
@example(  # the first line wins, though the int() of its "+6" is made when the cache opens
    lines=[_line("+6", [[3, 1]], _BUDGETS[0]), _line("6", [[2, 1]], _BUDGETS[0]), _line("6", [[3, 1]], _BUDGETS[0])],
    ops=[6],
)
@example(lines=[_line("6", [[2, 1]], _BUDGETS[0]), _line("+6", [[3, 1]], _BUDGETS[0])], ops=[6])
@example(lines=[_line("6", [[2, 1]], _BUDGETS[1]), _line("6", [[2, 1], [3, 1]])], ops=[(6, False, 1), 6])
def test_cache_loads_and_answers_as_the_eager_loader(lines, ops):
    """The same warnings in the same order, and the same get answer for every
    composite at both budgets after any mix of lookups and stores; a store
    first meets a digit count nobody has looked up, a lookup after it one
    the store converted."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            caches = []
            for name, kind in (("lazy.jsonl", FactorCache), ("eager.jsonl", EagerFactorCache)):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("".join(line + "\n" for line in lines))
                caches.append(kind(path))
            lazy, eager = caches
            assert lazy.warnings == eager.warnings
            for op in ops:
                if isinstance(op, int):
                    assert [lazy.get(op, b) for b in _BUDGETS] == [eager.get(op, b) for b in _BUDGETS]
                else:
                    n, complete, b = op
                    p = min(_POOL[n])
                    fact = Factorization(dict(_POOL[n])) if complete else Factorization({p: 1}, n // p)
                    lazy.store(n, fact, _BUDGETS[b])
                    eager.store(n, Factorization(dict(fact.factors), fact.cofactor), _BUDGETS[b])
            answers = [[cache.get(n, b) for n in sorted(_POOL) for b in _BUDGETS] for cache in caches]
            assert answers[0] == answers[1]
            with open(lazy.path) as a, open(eager.path) as b:
                assert a.read() == b.read()
    finally:
        sys.set_int_max_str_digits(saved)
