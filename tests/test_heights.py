import math
import random
from fractions import Fraction

import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # the oracle differentials below need hypothesis
    st = None

from dynzsig import heights
from dynzsig.divisibility import factor, prime_to_s_norm, valuation
from dynzsig.heights import (
    ARCHIMEDEAN,
    HeightEstimate,
    Place,
    PlaceSet,
    canonical_height,
    height_comparison_bound,
    local_log_distance,
    log_int,
    map_height,
    sum_local_at_zero,
    weil_height,
)
from dynzsig.ratfield import Polynomial, conjugate
from oracles import (
    RationalMap,
    chordal_log_distance,
    chordal_metric,
    monomial,
    rational_height,
    rational_map_height,
    reverse_map,
)

Z = Polynomial.identity()
ZERO, INF = (0, 1), (1, 0)


# --- log primitive -----------------------------------------------------------


def test_log_int_small_agrees_with_math_log():
    for n in (1, 2, 3, 97, 10**6, 2**52):
        assert log_int(n) == pytest.approx(math.log(n), rel=1e-15)


def test_log_int_large():
    assert log_int(10**500) == pytest.approx(500 * math.log(10), rel=1e-13)
    n = 7**100001
    assert log_int(n) == pytest.approx(100001 * math.log(7), rel=1e-12)


def test_log_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_int(0)


# --- places ------------------------------------------------------------------


def test_place_kinds():
    assert ARCHIMEDEAN.is_archimedean and str(ARCHIMEDEAN) == "inf"
    p = Place(13)
    assert not p.is_archimedean and str(p) == "13"


def test_place_rejects_composite():
    with pytest.raises(ValueError):
        Place(4)


def test_place_set_always_contains_archimedean():
    s = PlaceSet.from_primes([5, 2, 5])
    assert ARCHIMEDEAN in s
    assert s.finite_primes == (2, 5)
    assert len(s) == 3
    assert PlaceSet().finite_primes == ()


def test_place_set_tests_each_prime_once(monkeypatch):
    calls = []
    original = heights.is_probable_prime
    monkeypatch.setattr(heights, "is_probable_prime", lambda n: calls.append(n) or original(n))
    assert PlaceSet.from_primes([5, 2, 3, 5]).finite_primes == (2, 3, 5)
    assert sorted(calls) == [2, 3, 5]


# --- weil and map heights ------------------------------------------------------


def test_weil_height_examples():
    assert weil_height(3, 2) == pytest.approx(math.log(3))
    assert weil_height(-3, 2) == weil_height(3, 2)
    assert weil_height(0, 1) == 0.0
    assert weil_height(1, 26) == pytest.approx(math.log(26))


def test_map_height_examples():
    assert map_height(Polynomial([3, 0, 1])) == pytest.approx(math.log(3))
    assert map_height(Z**2) == 0.0
    mixed = Polynomial([Fraction(1, 3), 0, Fraction(1, 2)])
    assert map_height(mixed) == pytest.approx(math.log(6))


def test_map_height_matches_rational_map_oracle():
    # z^2 / (5 z^2 + 1) is z^2 + 5 reversed
    rm = RationalMap(Z**2, Polynomial([1, 0, 5]))
    assert rm == reverse_map(Polynomial([5, 0, 1]))
    assert map_height(Polynomial([5, 0, 1])) == rational_map_height(rm) == pytest.approx(math.log(5))


if st is not None:
    _COEFF = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**9)),
    )
    _MAPS = st.one_of(
        st.lists(_COEFF, max_size=10).map(Polynomial),  # degree -1 to 9
        st.builds(monomial, st.sampled_from((1, -1)), st.integers(0, 9)),
    )

    @given(_MAPS)
    @example(Polynomial.zero())
    @example(Polynomial([Fraction(-7, 12)]))
    @example(Polynomial([0, Fraction(1, 4), 0, Fraction(-5, 6)]))
    @example(Polynomial([Fraction(1, 8), 0, Fraction(3, 4), Fraction(1, 2)]))
    @settings(max_examples=300, deadline=None)
    def test_map_height_equals_the_oracle_on_random_maps(phi):
        h = map_height(phi)
        assert h == rational_map_height(RationalMap(phi))
        if phi.degree >= 1:
            assert h == rational_map_height(reverse_map(phi))

    @given(_MAPS)
    @example(monomial(-1, 2))
    @example(Polynomial([0, 0, 0, Fraction(1, 3)]))
    @example(Polynomial([Fraction(1, 2), 0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_comparison_bound_is_zero_exactly_for_pure_powers(phi):
        if phi.degree < 2:
            return
        num, den = RationalMap(phi).integer_coefficients()
        pure_power = den == (1,) and abs(num[-1]) == 1 and not any(num[:-1])
        assert pure_power == (phi in (Z**phi.degree, -(Z**phi.degree)))
        assert (height_comparison_bound(phi) == 0.0) == pure_power


# --- chordal metric -------------------------------------------------------------


def test_chordal_archimedean_example():
    assert chordal_metric((1, 1), ZERO, ARCHIMEDEAN) == pytest.approx(1 / math.sqrt(2))
    assert chordal_metric((1, 1), INF, ARCHIMEDEAN) == pytest.approx(1 / math.sqrt(2))


def test_chordal_coincident_points():
    p = (7, 3)
    assert chordal_metric(p, p, ARCHIMEDEAN) == 0.0
    assert chordal_metric(p, p, Place(5)) == 0.0
    assert chordal_metric(p, (-14, -6), Place(7)) == 0.0  # one point, another pair


def test_chordal_finite_example():
    for p in (2, 3, 7):
        assert chordal_metric((p, 1), ZERO, Place(p)) == pytest.approx(1 / p)
        assert chordal_metric((1, p), INF, Place(p)) == pytest.approx(1 / p)


def test_chordal_symmetry_and_range():
    rng = random.Random(21)
    places = [ARCHIMEDEAN, Place(2), Place(5), Place(13)]
    for _ in range(60):
        P = (rng.randint(-30, 30), rng.randint(-30, 30) or 1)
        Q = (rng.randint(-30, 30), rng.randint(-30, 30) or 1)
        for v in places:
            a, b = chordal_metric(P, Q, v), chordal_metric(Q, P, v)
            assert a == pytest.approx(b, abs=1e-15)
            assert 0.0 <= a <= 1.0 + 1e-12


def test_chordal_metric_is_invariant_under_inversion():
    # z -> 1/z swaps the entries of each pair and fixes every chordal distance,
    # so the distance to 0 is the distance of the reciprocals to infinity
    rng = random.Random(24)
    for _ in range(60):
        P = (rng.randint(-30, 30) or 1, rng.randint(-30, 30) or 1)
        for v in (ARCHIMEDEAN, Place(2), Place(3)):
            assert chordal_metric(P, ZERO, v) == pytest.approx(chordal_metric(P[::-1], INF, v), abs=1e-15)


# --- local log-distance ----------------------------------------------------------


def test_local_log_distance_archimedean():
    assert local_log_distance(1, 1, ARCHIMEDEAN) == pytest.approx(0.5 * math.log(2))
    assert local_log_distance(-1, 1, ARCHIMEDEAN) == pytest.approx(0.5 * math.log(2))


def test_local_log_distance_finite_counts_numerator_valuation():
    # y/1 against 0 sees exactly the p-part of y, and so does y/b for b prime to y
    for y, p in ((8, 2), (9, 3), (10, 5), (7, 2)):
        expected = valuation(y, p) * math.log(p)
        assert local_log_distance(y, 1, Place(p)) == pytest.approx(expected)
        assert local_log_distance(-y, 11, Place(p)) == pytest.approx(expected)


def test_local_log_distance_coincident_is_infinite():
    for v in (ARCHIMEDEAN, Place(3)):
        assert math.isinf(local_log_distance(0, 1, v))


if st is not None:
    _PLACES = st.sampled_from([ARCHIMEDEAN] + [Place(p) for p in range(2, 98) if all(p % q for q in range(2, p))])

    @st.composite
    def _coprime_pairs(draw):
        """A signed a and b > 0 in lowest terms, of up to 10^4 digits each,
        a carrying a drawn power of a small prime."""
        rng = draw(st.randoms(use_true_random=False))

        def entry(low):
            if draw(st.booleans()):
                return draw(st.integers(low, 99))
            digits = draw(st.integers(1, 10_000))
            return rng.randrange(10 ** (digits - 1), 10**digits)

        a = entry(0) * draw(st.sampled_from([2, 3, 97])) ** draw(st.integers(0, 300))
        b = entry(1)
        g = math.gcd(a, b)
        return draw(st.sampled_from([1, -1])) * (a // g), b // g

    @given(_coprime_pairs(), _PLACES)
    @example((0, 1), ARCHIMEDEAN)
    @example((0, 1), Place(2))
    @example((-(2**40), 3**30), Place(2))
    @example((10**9999 + 1, 1), ARCHIMEDEAN)
    @example((1, 10**9999), ARCHIMEDEAN)  # the distance itself underflows
    @settings(max_examples=200, deadline=None)
    def test_local_log_distance_equals_the_chordal_oracle(pair, v):
        a, b = pair
        expected = chordal_log_distance(pair, ZERO, v)
        got = local_log_distance(a, b, v)
        if v.is_archimedean and a:
            # each side rounds logs of up to 2.3e4 once or twice: a few ulps of that
            assert got == pytest.approx(expected, rel=0, abs=4e-15 * (1 + math.log(max(abs(a), b))))
        else:
            assert got == expected


# --- sum over places --------------------------------------------------------------


def test_sum_local_examples():
    assert sum_local_at_zero(2, 1, PlaceSet()) == pytest.approx(math.log(math.sqrt(5) / 2))
    assert sum_local_at_zero(2, 1, PlaceSet.from_primes([2])) == pytest.approx(
        math.log(math.sqrt(5) / 2) + math.log(2)
    )
    assert sum_local_at_zero(1, 1, PlaceSet.from_primes([3])) == pytest.approx(0.5 * math.log(2))


def test_sum_local_at_zero_is_infinite_at_zero():
    assert math.isinf(sum_local_at_zero(0, 1, PlaceSet()))


def test_height_bounded_by_all_local_distances():
    # summing over every place dividing the coordinates plus infinity
    rng = random.Random(22)
    for _ in range(100):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(1, 10**6)
        if a == 0:
            continue
        x = Fraction(a, b)
        a, b = x.numerator, x.denominator
        primes = set(factor(abs(a)).factors) | set(factor(b).factors)
        total = sum_local_at_zero(a, b, PlaceSet.from_primes(primes))
        assert weil_height(a, b) <= total + 1e-9


# --- height split identity ----------------------------------------------------------


def height_split_parts(beta: Fraction, S: PlaceSet):
    a, b = abs(beta.numerator), beta.denominator
    finite_sum = sum(valuation(b, p) * math.log(p) for p in S.finite_primes)
    arch = max(0.0, log_int(a) - log_int(b)) if a else 0.0
    return prime_to_s_norm(b, S), finite_sum + arch


def test_height_split_identity_random():
    rng = random.Random(23)
    place_pool = [2, 3, 5, 7, 11, 13]
    for _ in range(100):
        a = rng.randint(-10**9, 10**9) or 1
        b = rng.randint(1, 10**9)
        beta = Fraction(a, b)
        S = PlaceSet.from_primes(rng.sample(place_pool, rng.randint(0, 4)))
        norm_part, local_part = height_split_parts(beta, S)
        # integer part is exact: stripping S primes then multiplying them back
        stripped = beta.denominator
        for p in S.finite_primes:
            stripped //= p ** valuation(beta.denominator, p)
        assert norm_part == stripped
        lhs = rational_height(beta)
        rhs = log_int(norm_part) + local_part
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# --- comparison bound ----------------------------------------------------------------


def test_comparison_bound_zero_for_power_maps():
    for d in (2, 3, 5):
        assert height_comparison_bound(Z**d) == 0.0
    assert height_comparison_bound(Polynomial([0, 0, -1])) == 0.0


def test_comparison_bound_rejects_low_degree():
    with pytest.raises(ValueError):
        height_comparison_bound(Z)


def test_comparison_bound_covers_observed_differences():
    phi = Polynomial([1, 0, 1])
    B = height_comparison_bound(phi)
    for x in (0, 1, 2, 5, 26):
        est = canonical_height(phi, x, 1e-9)
        diff = abs(est.value - rational_height(Fraction(x)))
        assert diff <= B + est.error_bound


def test_comparison_bound_linear_in_map_height():
    # c4 = (2d-1)/(d-1) = 3 at degree 2
    values = {}
    for c in (1, 10, 100, 1000):
        phi = Polynomial([c, 0, 1])
        values[c] = height_comparison_bound(phi)
    for c in (10, 100, 1000):
        growth = (values[c] - values[1]) / (math.log(c) - math.log(1))
        assert growth <= 3.0 + 1e-9


# --- canonical height ------------------------------------------------------------------


def test_canonical_height_power_map_is_exact():
    est = canonical_height(Z**2, 2, 1e-9)
    assert not est.truncated
    assert est.error_bound <= 1e-9
    assert est.value == pytest.approx(math.log(2), abs=1e-9)


def test_canonical_height_preperiodic_is_zero():
    est = canonical_height(Z**2, 1, 1e-9)
    assert est.value == 0.0
    est2 = canonical_height(Z**2, 0, 1e-9)
    assert est2.value == 0.0


def test_canonical_height_functional_equation_example():
    phi = Polynomial([1, 0, 1])
    at0 = canonical_height(phi, 0, 1e-6)
    at1 = canonical_height(phi, 1, 1e-6)
    assert abs(2 * at0.value - at1.value) <= 2 * at0.error_bound + at1.error_bound


def test_canonical_height_functional_equation_random():
    rng = random.Random(24)
    checked = 0
    while checked < 50:
        d = rng.choice([2, 3])
        coeffs = [rng.randint(-5, 5) for _ in range(d)] + [rng.choice([-5, -3, -1, 1, 2, 5])]
        phi = Polynomial(coeffs)
        P = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        est_p = canonical_height(phi, P, 1e-5, digit_budget=20_000)
        est_fp = canonical_height(phi, phi(P), 1e-5, digit_budget=20_000)
        assert abs(est_fp.value - d * est_p.value) <= est_fp.error_bound + d * est_p.error_bound + 1e-12
        checked += 1


def test_canonical_height_conjugation_invariance():
    rng = random.Random(25)
    for _ in range(25):
        d = rng.choice([2, 3])
        coeffs = [rng.randint(-5, 5) for _ in range(d)] + [rng.choice([-2, -1, 1, 3])]
        phi = Polynomial(coeffs)
        alpha = Fraction(rng.randint(-3, 3))
        psi = conjugate(phi, alpha)
        x = Fraction(rng.randint(-4, 4))
        direct = canonical_height(phi, x + alpha, 1e-5, digit_budget=20_000)
        moved = canonical_height(psi, x, 1e-5, digit_budget=20_000)
        assert abs(direct.value - moved.value) <= direct.error_bound + moved.error_bound + 1e-12


def test_canonical_height_wandering_positive():
    phi = Polynomial([1, 0, 1])
    est = canonical_height(phi, 0, 1e-6)
    assert est.value - est.error_bound > 0


def test_canonical_height_budget_flag():
    phi = Polynomial([1, 0, 1])
    est = canonical_height(phi, 0, 1e-9, digit_budget=100)
    assert est.truncated
    assert est.error_bound > 1e-9  # certified but larger than requested


def test_canonical_height_zero_bound_takes_no_steps():
    est = canonical_height(Z**2, 0, 0.5)  # B = 0 for a pure power
    assert est.iterations == 0
    assert est.value == 0.0  # h(0) with no iterations


def test_canonical_height_validates_inputs():
    with pytest.raises(ValueError):
        canonical_height(Z, 1, 1e-6)
    with pytest.raises(ValueError):
        canonical_height(Z**2, 1, 0.0)


def test_height_estimate_validation():
    with pytest.raises(ValueError):
        HeightEstimate(value=1.0, error_bound=-1.0)


# --- reversed map interplay (used by the bound inputs) ----------------------------


def test_reversed_map_height_example():
    # z^2 + c reverses to z^2 / (c z^2 + 1)
    phi = Polynomial([3, 0, 1])
    assert map_height(phi) == rational_map_height(reverse_map(phi)) == pytest.approx(math.log(3))
