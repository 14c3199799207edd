import decimal
import random
import time
import tracemalloc
from fractions import Fraction
from math import prod

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the split differential below needs hypothesis
    st = None

from dynzsig import divisibility
from dynzsig.divisibility import (
    _CHUNK,
    FactorBudget,
    Factorization,
    IdealPair,
    PrimitiveSplit,
    _prime_chunks,
    decimal_digits,
    factor,
    is_probable_prime,
    prime_to_s_norm,
    primitive_split,
    rigid_check,
    valuation,
    valuation_table,
)
from dynzsig.heights import PlaceSet
from dynzsig.ratfield import _EXACT, Polynomial, _to_decimal
from dynzsig.zsigmondy import FamilyFactor, FamilySpec, family_build, valuation_stability_check
from oracles import (
    brent_rho,
    has_primitive_divisor,
    ideal_pair,
    nonprimitive_bound_check,
    prime_chunks,
    primitive_split_by_terms,
    valuation_by_division,
)

S_INF = PlaceSet()


def naive_factor(n):
    """Independent trial-division oracle (no probabilistic machinery)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def orbit_terms(c, N):
    """Numerators of the critical orbit of z^2 + c at 0."""
    x = Fraction(0)
    terms = []
    for _ in range(N):
        x = x * x + c
        terms.append(abs(x.numerator))
    return terms


# --- ideal_pair ------------------------------------------------------------


def test_ideal_pair_examples():
    assert ideal_pair(Fraction(26, 5)) == ideal_pair("26/5")
    assert (ideal_pair(Fraction(26, 5)).A, ideal_pair(Fraction(26, 5)).B) == (26, 5)
    assert (ideal_pair(-7).A, ideal_pair(-7).B) == (7, 1)
    assert (ideal_pair(0).A, ideal_pair(0).B) == (0, 1)


def test_ideal_pair_constructor_checks_its_input():
    for A, B in ((4, 2), (-1, 1), (1, 0), (0, 2)):
        with pytest.raises(ValueError):
            IdealPair(A, B)
    assert IdealPair.coprime(26, 5) == IdealPair(26, 5)
    assert hash(IdealPair.coprime(26, 5)) == hash(IdealPair(26, 5))


# --- factor ----------------------------------------------------------------


def test_factor_spec_example():
    fa = factor(458330)
    assert fa.factors == {2: 1, 5: 1, 45833: 1}
    assert fa.complete
    assert naive_factor(458330) == fa.factors


def test_factor_one():
    fa = factor(1)
    assert fa.factors == {} and fa.cofactor == 1


def _next_prime(start):
    n = start | 1
    while not is_probable_prime(n):
        n += 2
    return n


def test_factor_semiprime_beyond_budget():
    p = _next_prime(10**39 + 57)
    q = _next_prime(10**39 + 10**20)
    n = p * q
    fa = factor(n, FactorBudget(rho_rounds=2000))
    assert fa.cofactor == n
    assert fa.factors == {}
    assert fa.reconstruct() == n


def test_factor_reconstruction_on_randoms():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randrange(1, 10**18)
        fa = factor(n)
        assert fa.complete, n
        assert fa.reconstruct() == n
        for p in fa.factors:
            assert is_probable_prime(p)


def test_factor_matches_oracle_on_smalls():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randrange(2, 10**9)
        assert factor(n).factors == naive_factor(n)


def test_factor_deterministic_given_seed():
    n = _next_prime(10**20) * _next_prime(2 * 10**20) * 7
    a = factor(n, FactorBudget(seed=5))
    b = factor(n, FactorBudget(seed=5))
    assert a.factors == b.factors and a.cofactor == b.cofactor


def test_brent_rho_returns_what_the_abs_form_returns():
    # each q differs only in sign mod n from the product of |x - y|, so every
    # gcd, and with it every campaign's factor or 1, is the same
    odd_composites = [n for n in range(9, 600, 2) if any(n % p == 0 for p in range(3, int(n**0.5) + 1, 2))]
    for n in odd_composites:
        for rounds in (1, 7, 200):
            for seed in (1, 2):
                assert divisibility._brent_rho(n, rounds, seed) == brent_rho(n, rounds, seed), (n, rounds, seed)
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randrange(10**4, 10**9) | 1
        n *= rng.randrange(10**4, 10**9) | 1
        rounds, seed = rng.choice((10, 100, 2000)), rng.randint(1, 9)
        assert divisibility._brent_rho(n, rounds, seed) == brent_rho(n, rounds, seed), (n, rounds, seed)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


# Exact (factors, cofactor) of factor() as computed before its trial division
# became a single chunked pass; together the rows reach every branch: trial
# bounds below 1e4, prime remainders below trial_bound^2, Brent-rho splits and
# exhausted campaigns, and leftovers over rho_digit_limit.
P7A, P7B, P7C = 10000019, 30000023, 50000017
P20A, P20B = 10000000000000000051, 30000000000000000041
P40A, P40B = 10**39 + 81, 7 * 10**39 + 153
P50 = 10**49 + 9
PRIMES_10007_10193 = [q for q in range(10007, 10200) if is_probable_prime(q)]

FACTOR_REGRESSIONS = {
    "one": (1, {}, {}, 1),
    "two": (2, {}, {2: 1}, 1),
    "mersenne-prime": (2**61 - 1, {}, {2**61 - 1: 1}, 1),
    "prime-rest-below-1e8": (2**3 * 10007, {}, {2: 3, 10007: 1}, 1),
    "prime-rest-above-bound": (7 * 1000003, {}, {7: 1, 1000003: 1}, 1),
    "prime-rest-above-1e8": (2 * 100000007, {}, {2: 1, 100000007: 1}, 1),
    "bound-1000-prime-rest": (2 * 999983, {"trial_bound": 1000}, {2: 1, 999983: 1}, 1),
    "prime-rest-over-digit-limit": (297467, {"rho_digit_limit": 5}, {297467: 1}, 1),
    "bound-50-prime-rest-over-digit-limit": (
        2251, {"trial_bound": 50, "rho_digit_limit": 3}, {2251: 1}, 1
    ),
    "bound-2": (12, {"trial_bound": 2}, {2: 2, 3: 1}, 1),
    "bound-2-odd": (3 * 5 * 7 * 7, {"trial_bound": 2}, {3: 1, 5: 1, 7: 2}, 1),
    "bound-3": (30030, {"trial_bound": 3}, {2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 1}, 1),
    "bound-50-rho": (
        2**5 * 3**2 * 53 * 59 * 61, {"trial_bound": 50}, {2: 5, 3: 2, 53: 1, 59: 1, 61: 1}, 1
    ),
    "bound-9000-rho": (2**10 * 9973 * 10007, {"trial_bound": 9000}, {2: 10, 9973: 1, 10007: 1}, 1),
    "rho-square": (P7A**2 * P7B, {}, {P7A: 2, P7B: 1}, 1),
    "rho-three-primes": (P7A * P7B * P7C, {}, {P7A: 1, P7B: 1, P7C: 1}, 1),
    "rho-seed-2": (101 * P7A * P7B, {"seed": 2}, {101: 1, P7A: 1, P7B: 1}, 1),
    "rho-exhausted": (P20A * P20B, {"rho_rounds": 50}, {}, P20A * P20B),
    "rho-exhausted-small-primes": (
        2**3 * 3 * P20A * P20B, {"rho_rounds": 50}, {2: 3, 3: 1}, P20A * P20B
    ),
    "rho-splits-then-exhausted": (P7A * P20A * P20B, {"rho_rounds": 20000}, {P7A: 1}, P20A * P20B),
    "over-digit-limit-composite": (
        2**4 * 1000003 * P40A * P40B, {"rho_digit_limit": 30}, {2: 4}, 1000003 * P40A * P40B
    ),
    "over-digit-limit-prime": (6 * P50, {"rho_digit_limit": 30}, {2: 1, 3: 1}, P50),
    "over-digit-limit-trial-strips-all": (
        3 * prod(PRIMES_10007_10193),
        {"rho_digit_limit": 20},
        {3: 1, **{q: 1 for q in PRIMES_10007_10193}},
        1,
    ),
    "over-digit-limit-after-trial": (
        10**60 + 1, {"rho_digit_limit": 40}, {73: 1, 137: 1}, (10**60 + 1) // (73 * 137)
    ),
    "300-digits": (
        10**299 + 7,
        {"rho_rounds": 2000},
        {353: 1, 4397: 1, 267739: 1},
        (10**299 + 7) // (353 * 4397 * 267739),
    ),
}


@pytest.mark.parametrize(
    "n, budget, factors, cofactor", FACTOR_REGRESSIONS.values(), ids=FACTOR_REGRESSIONS.keys()
)
def test_factor_regression_table(n, budget, factors, cofactor):
    fa = factor(n, FactorBudget(**budget))
    assert (fa.factors, fa.cofactor) == (factors, cofactor)
    assert list(fa.factors) == sorted(factors)


def test_factor_lists_primes_certified_by_trial_division():
    # trial division to 1e6 proves any remainder below 1e12 prime, however
    # many digits rho_digit_limit allows; this one used to stay a cofactor
    fa = factor(2 * 1000000007, FactorBudget(rho_digit_limit=5))
    assert (fa.factors, fa.cofactor) == ({2: 1, 1000000007: 1}, 1)
    # above 1e12 the remainder may be composite and stays untested
    fa = factor(2 * 1000003 * 1000000007, FactorBudget(rho_digit_limit=5))
    assert (fa.factors, fa.cofactor) == ({2: 1}, 1000003 * 1000000007)


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(44)
    tight = FactorBudget(trial_bound=50, rho_digit_limit=10, rho_rounds=500)
    cases = [(rng.randrange(2, 10**20), FactorBudget()) for _ in range(60)]
    cases += [
        (rng.randrange(10**7, 10**8) * rng.randrange(10**7, 10**8), FactorBudget(rho_rounds=20))
        for _ in range(60)
    ]
    cases += [(prod(rng.randrange(2, 10**8) for _ in range(3)), tight) for _ in range(60)]
    for n, budget in cases:
        fa = factor(n, budget)
        expected = sympy.factorint(n)
        for p, e in fa.factors.items():
            assert expected.pop(p) == e, (n, p)
        assert fa.cofactor == prod(p**e for p, e in expected.items()), n
        assert all(p >= budget.trial_bound for p in expected), n


# --- the trial-division table ------------------------------------------------

TABLE_BOUNDS = [*range(3001), 7171, 65536, 100001, 10**6, 10**6 + 1]


def _as_lists(table):
    return [(group.tolist(), product) for group, product in table]


def test_prime_table_equals_the_direct_sieve():
    for bound in TABLE_BOUNDS:
        table = _prime_chunks.__wrapped__(bound)
        assert _as_lists(table) == _as_lists(prime_chunks(bound)), bound
        assert all(len(group) == _CHUNK for group, _ in table[:-1]), bound


def test_factor_splits_across_chunk_boundaries_as_the_oracle_table(monkeypatch):
    table = prime_chunks(10**6)
    for k in (0, 1, len(table) // 2, len(table) - 2):
        p, q = table[k][0][-1], table[k + 1][0][0]
        n = p * q * 1000003
        with monkeypatch.context() as m:
            m.setattr(divisibility, "_prime_chunks", prime_chunks)
            expected = factor(n)
        fa = factor(n)
        assert (fa.factors, fa.cofactor) == (expected.factors, expected.cofactor)
        assert (fa.factors, fa.cofactor) == ({p: 1, q: 1, 1000003: 1}, 1)


def test_prime_table_build_memory():
    # the table at 10^6 holds about 0.5 MB: primes at 4 bytes each and the
    # chunk products; its build peaks at about 1.4 MB, the odd-only sieve and
    # the full prime array included
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = _prime_chunks.__wrapped__(10**6)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, (group for group, _ in table))) == 78498
    assert held - base < 0.6e6
    assert peak - base < 1.6e6


# --- valuation ---------------------------------------------------------------


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(12, 5) == 0
    assert valuation(2196324, 2) == 2  # 1482^2 = (2*3*13*19)^2


def test_valuation_consistency_with_factor():
    rng = random.Random(44)
    for _ in range(100):
        n = rng.randrange(2, 10**12)
        fa = factor(n)
        assert prod(p ** valuation(n, p) for p in fa.factors) * fa.cofactor == n


def test_valuation_of_a_large_prime_power_takes_few_divisions():
    # one division by p per unit of valuation took 4.7 s here
    n = 10**60000
    start = time.perf_counter()
    assert valuation(n, 2) == 60000
    assert time.perf_counter() - start < 0.5


if st is not None:

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 10**40),
        st.sampled_from([2, 3, 10, 97, 2**61 - 1]) | st.integers(2, 10**9),
        st.integers(0, 700),
    )
    def test_valuation_matches_division_one_step_at_a_time(m, p, e):
        # exponents on both sides of each power of two, and cofactors m that p may divide
        n = m * p**e
        assert valuation(n, p) == valuation_by_division(n, p)


# --- prime_to_s_norm ---------------------------------------------------------


def test_prime_to_s_norm_examples():
    assert prime_to_s_norm(12, PlaceSet.from_primes([2])) == 3
    assert prime_to_s_norm(12, S_INF) == 12
    assert prime_to_s_norm(458330, PlaceSet.from_primes([2, 5])) == 45833


# --- primitive_split ---------------------------------------------------------


def test_primitive_split_orbit_example():
    split = primitive_split(26, [1, 2, 5])
    assert (split.primitive_part, split.nonprimitive_part) == (13, 2)


def test_primitive_split_unit():
    split = primitive_split(1, [])
    assert (split.primitive_part, split.nonprimitive_part) == (1, 1)


def test_primitive_split_full_power_stripped():
    split = primitive_split(8, [2])
    assert (split.primitive_part, split.nonprimitive_part) == (1, 8)


def test_has_primitive_divisor_examples():
    assert has_primitive_divisor(26, [1, 2, 5])
    assert not has_primitive_divisor(1, [])
    assert not has_primitive_divisor(8, [2])


def test_primitive_split_matches_oracle_on_random_sequences():
    # synthetic histories built from a small prime pool force heavy sharing
    rng = random.Random(45)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(60):
        history = [
            prod(rng.choice(pool) ** rng.randint(0, 3) for _ in range(3)) or 1
            for _ in range(rng.randint(0, 5))
        ]
        A = prod(rng.choice(pool) ** rng.randint(0, 4) for _ in range(4)) * rng.choice(
            [1, 29, 31 * 29, 37**2]
        )
        split = primitive_split(A, history)
        expected = 1
        for p, e in naive_factor(A).items():
            if all(t % p for t in history):
                expected *= p**e
        assert split.primitive_part == expected
        assert split.primitive_part * split.nonprimitive_part == A


if st is not None:
    _SHARED = [2, 3, 5, 7, 10007, 2**31 - 1, 2**61 - 1]

    @st.composite
    def shared_histories(draw):
        """A term and its history built on a few shared primes, at exponents up
        to 400 on either side, times cofactors of up to 40 digits."""
        primes = draw(st.lists(st.sampled_from(_SHARED), min_size=1, max_size=4, unique=True))

        def build(top):
            return prod(p ** draw(st.integers(0, top)) for p in primes) * draw(st.integers(1, 10**40))

        return build(400), [build(300) for _ in range(draw(st.integers(0, 5)))]

    @settings(max_examples=150, deadline=None)
    @given(shared_histories())
    def test_primitive_split_matches_the_term_gcd_loop(case):
        A, history = case
        assert primitive_split(A, history) == primitive_split_by_terms(A, history)

    @settings(max_examples=150, deadline=None)
    @given(shared_histories())
    def test_primitive_split_of_a_decimal_term_equals_the_int_split(case):
        # a term held as an exact Decimal, as build_sequence's deep terms are,
        # is split by remainders against the int history
        A, history = case
        with decimal.localcontext(_EXACT):
            split = primitive_split(_to_decimal(A), history)
        assert isinstance(split.primitive_part, decimal.Decimal) and type(split.nonprimitive_part) is int
        assert PrimitiveSplit(int(split.primitive_part), split.nonprimitive_part) == primitive_split(A, history)


def test_primitive_split_matches_factorization_oracle():
    # prime p is primitive iff it divides no earlier term; exponent is full
    for c in (1, 2, -3):
        terms = orbit_terms(c, 7)
        for n, A in enumerate(terms, 1):
            if A >= 10**12:
                continue
            split = primitive_split(A, terms[: n - 1])
            expected_primitive = 1
            for p, e in naive_factor(A).items():
                if all(t % p for t in terms[: n - 1]):
                    expected_primitive *= p**e
            assert split.primitive_part == expected_primitive
            assert split.primitive_part * split.nonprimitive_part == A


# --- rigid_check -------------------------------------------------------------


def test_rigid_check_critical_orbit():
    report = rigid_check([1, 2, 5, 26, 677, 458330], S_INF)
    assert report.verified
    assert report.untested_primes == []
    assert report.violations == []
    assert report.checked_pairs == 15


def test_rigid_check_constant_sequence():
    report = rigid_check([6, 6, 6, 6], S_INF)
    assert report.verified


def test_rigid_check_adversarial_violation():
    report = rigid_check([2, 4], S_INF)
    assert not report.verified
    assert any(
        v.condition == 2 and v.prime == 2 and v.indices == (1, 2) and v.valuations == (1, 2)
        for v in report.violations
    )


def test_rigid_check_lists_unfactored_cofactors():
    p = _next_prime(10**39 + 57)
    q = _next_prime(10**39 + 10**20)
    hard = p * q
    report = rigid_check([2, hard], S_INF, FactorBudget(rho_rounds=100))
    assert report.untested_primes == [hard]
    # the report may verify the exposed primes, but never silently drops these
    assert report.verified or report.violations


def test_rigid_check_ignores_places_in_s():
    # ord_2 jumps 1 -> 2, but 2 is inside S so it is not tested
    report = rigid_check([2, 4], PlaceSet.from_primes([2]))
    assert report.verified


TIGHT = FactorBudget(trial_bound=100, rho_rounds=10, rho_digit_limit=10)


def test_valuation_table_reads_valuations_inside_cofactors():
    p, q, r, s = 1000003, 1000033, 1000037, 1000039
    budget = FactorBudget(trial_bound=100, rho_digit_limit=15)
    # rho splits p*q (13 digits); p*r*s has 19 digits and stays a cofactor
    vals, untested = valuation_table([p * q, p * r * s], S_INF, budget)
    assert vals == {p: [1, 1], q: [1, 0]}
    assert untested == [p * r * s]
    vals, _ = valuation_table([p * q, p * r * s], PlaceSet.from_primes([p]), budget)
    assert vals == {q: [1, 0]}


def test_rigid_check_cofactors_are_unchanged():
    # the cofactor lists these checks reported before they shared valuation_table
    terms = orbit_terms(1, 9)
    report = rigid_check(terms, S_INF, TIGHT)
    assert report.untested_primes == [
        5123570461,
        1697226451765622153377,
        389454095383059289911940689098769786090558241,
    ]
    assert report.verified and report.checked_pairs == 36
    budget = FactorBudget(trial_bound=1000, rho_rounds=100, rho_digit_limit=20)
    report = rigid_check(terms, PlaceSet.from_primes([2, 5]), budget)
    assert report.untested_primes == [
        1697226451765622153377,
        765135747314458329885934556186188184853749,
    ]
    assert report.verified


def test_valuation_stability_cofactors_are_unchanged():
    pair = FamilySpec((FamilyFactor(Polynomial.one(), 2, 2), FamilyFactor(Polynomial.one(), 3, 2)))
    report = valuation_stability_check(family_build(pair), S_INF, 4, budget=TIGHT)
    assert report.untested_cofactors == [
        495630438292081,
        133491624690711879623259393968605850076287909379211915649960252899933445729170712364546610013761,
    ]
    assert report.ranks == {2: 1, 3: 1, 7: 3, 11: 3, 13: 2, 19: 2, 67: 3}
    assert report.failures == []


# --- nonprimitive_bound_check -------------------------------------------------


def _splits(terms):
    return [primitive_split(A, terms[:i]) for i, A in enumerate(terms)]


def test_nonprimitive_bound_orbit_index_four():
    terms = [1, 2, 5, 26]
    splits = _splits(terms)
    assert splits[3].nonprimitive_part == 2
    assert nonprimitive_bound_check(4, splits, S_INF)


def test_nonprimitive_bound_trivial_cases():
    terms = [1, 3]
    splits = _splits(terms)
    assert nonprimitive_bound_check(2, splits, S_INF)


def test_nonprimitive_bound_holds_for_rigid_orbits():
    for c in (1, 2, -3):
        terms = orbit_terms(c, 8)
        splits = _splits(terms)
        for n in range(2, 9):
            assert nonprimitive_bound_check(n, splits, S_INF), (c, n)


# --- misc --------------------------------------------------------------------


def test_decimal_digits_exact():
    assert decimal_digits(0) == 1
    assert decimal_digits(9) == 1
    assert decimal_digits(10) == 2
    assert decimal_digits(10**100 - 1) == 100
    assert decimal_digits(10**100) == 101
    for k in range(1, 400):
        for n in (10**k - 1, 10**k, 10**k + 1, 2**k - 1, 2**k, 2**k + 1):
            assert decimal_digits(n) == decimal_digits(-n) == len(str(n))
    # past 400 digits: 10^k - 1, 10^k and 10^k + 1 have a log10 within the
    # margin of an integer and take the exact loop; the estimate decides the rest
    for k in [*range(400, 5001, 97), 9_999, 10_000, 50_000, 100_000]:
        power = 10**k
        assert decimal_digits(power - 1) == decimal_digits(1 - power) == k
        assert decimal_digits(power) == decimal_digits(power + 1) == decimal_digits(-power - 1) == k + 1
    # the j past 400 whose 2^j come closest to a power of ten (continued-fraction
    # denominators of log10 2), and a sweep to 400,000; checked against the
    # powers of ten that bracket each count
    for j in [485, 2136, 13301, 28738, 42039, 70777, 254370, 325147, *range(400, 400_001, 3989)]:
        n = 2**j
        digits = decimal_digits(n)
        assert 10 ** (digits - 1) <= n - 1 and n + 1 < 10**digits, j
        assert decimal_digits(n - 1) == decimal_digits(n + 1) == digits, j
    # conftest lifts the int->str limit past these sizes
    rng = random.Random(18)
    for _ in range(8):
        n = rng.randrange(10 ** rng.randrange(10_000, 100_000))
        assert decimal_digits(n) == len(str(n))


def test_factorization_reconstruct():
    fa = Factorization({2: 3, 7: 1}, 11)
    assert fa.reconstruct() == 8 * 7 * 11
    assert not fa.complete
