"""Differential tests of the integer orbit engine against Fraction-Horner
oracles: the orbit loops the engine replaced, kept here verbatim in spirit.

Orbit pairs, the step and message of a preperiodicity or budget stop, and
every report built on an orbit must come out identical.  The engine's size
lemma is checked on its own, and step counts show that a budget stop builds
no value past the budget.
"""

from fractions import Fraction
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dynzsig import (  # noqa: E402
    DigitBudgetExceeded,
    FactorBudget,
    FamilyFactor,
    FamilySpec,
    HeightEstimate,
    HypothesisViolated,
    IntegerModel,
    PlaceSet,
    Polynomial,
    PreperiodicPoint,
    build_sequence,
    canonical_height,
    conjugate,
    family_build,
    growth_check,
    height_comparison_bound,
    squarefree_decomposition,
    valuation_stability_check,
    wandering_verdict,
)
from dynzsig.divisibility import factor, valuation  # noqa: E402
from oracles import ideal_pair, rational_height  # noqa: E402

# the replaced loops wrote the bit budget as digits * (1 / log10 2) or as
# digits / log10 2; the two agree below 59,632,978 digits, far above any budget
# drawn here, and the engine uses the second
_DIGIT_TO_BITS = 1 / 0.30102999566398120

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
TINY_FACTOR_BUDGET = FactorBudget(trial_bound=2_000, rho_rounds=2_000, rho_digit_limit=30)


# --- oracles ------------------------------------------------------------------------------


def oracle_orbit(phi, start, N, digit_budget=None, track=False):
    """Fraction-Horner orbit: the (numerator, denominator) pairs and the
    (message, step) that stopped it early, if any."""
    x0 = x = Fraction(start)
    seen = {x}
    bit_budget = None if digit_budget is None else int(digit_budget * _DIGIT_TO_BITS) + 1
    pairs = []
    for n in range(1, N + 1):
        x = phi(x)
        if track:
            if x == x0:
                return pairs, (f"orbit returns to the start at step {n}", n)
            if x in seen:
                return pairs, (f"orbit value repeats at step {n}", n)
            seen.add(x)
        if bit_budget is not None and max(x.numerator.bit_length(), x.denominator.bit_length()) > bit_budget:
            return pairs, (f"orbit value at step {n} exceeds {digit_budget} digits", n)
        pairs.append((x.numerator, x.denominator))
    return pairs, None


def engine_orbit(phi, start, N, digit_budget=None, track=False):
    pairs = []
    try:
        for pair in IntegerModel(phi).orbit(start, N, digit_budget, track=track):
            pairs.append(pair)
    except PreperiodicPoint as exc:
        return pairs, (str(exc), exc.index)
    except DigitBudgetExceeded as exc:
        return pairs, (str(exc), len(pairs) + 1)
    return pairs, None


def oracle_canonical_height(phi, P, tol, digit_budget):
    d = phi.degree
    B = height_comparison_bound(phi)
    target = 0
    tail = B
    while tail > tol:
        tail /= d
        target += 1
    x = Fraction(P)
    steps = 0
    truncated = False
    bit_budget = int(digit_budget / 0.30102999566398120) + 1
    while steps < target:
        nxt = phi(x)
        if max(nxt.numerator.bit_length(), nxt.denominator.bit_length()) > bit_budget:
            truncated = True
            break
        x = nxt
        steps += 1
    value = rational_height(x) / d**steps
    error = B / d**steps + 4e-16 * (1.0 + abs(value))
    return HeightEstimate(value=value, error_bound=error, truncated=truncated, iterations=steps)


def oracle_wandering_verdict(phi, alpha, probe, tol):
    lead = abs(phi.coeffs[-1])
    tail_sum = sum(abs(c) for c in phi.coeffs[:-1])
    escape = max(Fraction(1), (1 + tail_sum) / lead)
    height_ceiling = height_comparison_bound(phi) + 1.0
    x = Fraction(alpha)
    seen = {x}
    for _ in range(max(1, probe)):
        x = phi(x)
        if x in seen:
            return "preperiodic"
        seen.add(x)
        if abs(x) > escape or rational_height(x) > height_ceiling:
            return "wandering"
    est = oracle_canonical_height(phi, alpha, tol, 100_000)
    return "wandering" if est.value - est.error_bound > 0 else "unknown"


def oracle_valuation_stability(phi, S, N, budget, digit_budget):
    """(kind of stop, details) of the Fraction-Horner stability check."""
    E = max(mult for _, mult in squarefree_decomposition(phi))
    values, stop = oracle_orbit(phi, 0, N, digit_budget, track=True)
    if stop is not None:
        if "exceeds" in stop[0]:
            return "budget", stop[0]
        return "preperiodic", "0 is preperiodic"
    values = [Fraction(a, b) for a, b in values]
    skip = set(S.finite_primes)
    failures = []
    untested = []
    discovered = set()
    terms = []
    for n, v in enumerate(values, 1):
        den = v.denominator
        for p in skip:
            while den % p == 0:
                den //= p
        if den != 1:
            failures.append(("denominator", 0, n, 1, den))
        A = abs(v.numerator)
        terms.append(A)
        fac = factor(A, budget)
        discovered.update(p for p in fac.factors if p not in skip)
        if not fac.complete:
            untested.append(fac.cofactor)
    vals = {p: [valuation(t, p) for t in terms] for p in sorted(discovered)}
    ranks = {}
    for p, v in vals.items():
        r = next(n for n in range(1, N + 1) if v[n - 1] > 0)
        ranks[p] = r
        for n in range(1, N + 1):
            expected = v[r - 1] if n % r == 0 else 0
            if v[n - 1] != expected:
                failures.append(("valuation", p, n, expected, v[n - 1]))
    dphi = phi.derivative()
    for r in range(1, N + 1):
        prev = values[r - 2] if r >= 2 else Fraction(0)
        dval = dphi(prev)
        if dval == 0:
            continue
        residue = (dval**E / values[r - 1]).denominator
        for p in skip:
            while residue % p == 0:
                residue //= p
        if residue != 1:
            failures.append(("derivative", 0, r, 1, residue))
    return "report", (ranks, failures, sorted(set(untested)))


# --- strategies ---------------------------------------------------------------------------

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
nonzero_rationals = small_rationals.filter(lambda c: c != 0)
starts = st.one_of(st.integers(-3, 3).map(Fraction), small_rationals)


@st.composite
def maps(draw):
    """Degree 2-4 maps with rational coefficients, and a share of z^2 + c with
    c among values whose orbits are often finite."""
    if draw(st.booleans()):
        c = draw(st.sampled_from([0, -1, -2, Fraction(-3, 4), Fraction(1, 4), Fraction(-1, 2), 1]))
        return Polynomial([c, 0, 1])
    d = draw(st.integers(2, 4))
    lower = draw(st.lists(st.one_of(st.just(Fraction(0)), small_rationals), min_size=d, max_size=d))
    return Polynomial(lower + [draw(nonzero_rationals)])


@st.composite
def powerful_maps(draw):
    """c * (z + u)^e1 * (z + v)^e2 of degree 2-4 with every multiplicity >= 2."""
    z = Polynomial.identity()
    c = draw(nonzero_rationals)
    u = draw(small_rationals)
    shape = draw(st.sampled_from([(2,), (3,), (4,), (2, 2)]))
    phi = Polynomial.constant(c) * (z + u) ** shape[0]
    if len(shape) == 2:
        v = draw(small_rationals.filter(lambda v: v != u))
        phi = phi * (z + v) ** shape[1]
    return phi


place_sets = st.sets(st.sampled_from([2, 3, 5, 7]), max_size=3).map(PlaceSet.from_primes)
budgets = st.integers(3, 400)


# --- the engine against the oracle -------------------------------------------------------


@SETTINGS
@given(maps(), starts, st.integers(1, 8), st.one_of(st.none(), budgets), st.booleans())
@example(Polynomial([Fraction(1, 3), 0, -2]), Fraction(1, 5), 6, None, True)  # f_d < 0
@example(Polynomial([Fraction(1, 3), 0, 1]), Fraction(0), 8, 60, True)  # alpha = 0
@example(Polynomial([1, 0, 1]), Fraction(1, 2), 6, None, False)  # k = 1
@example(Polynomial([Fraction(1, 3), Fraction(1, 2), 9]), Fraction(1, 6), 5, None, True)  # 3 | b, 3 | f_d
@example(Polynomial([-1, 0, 1]), Fraction(0), 5, None, True)  # returns to the start
@example(Polynomial([0, 0, 1]), Fraction(-1), 5, None, True)  # repeats
@example(Polynomial([Fraction(1, 7), 0, 1]), Fraction(1, 3), 4, 3, False)  # only the denominator outgrows
# z^2 / 2^20 fixes 2^20, a start past the 4-bit budget whose step-1 lower
# bound (16 bits) is past it too: step 1 is still computed, so track sees the
# return to the start
@example(Polynomial([0, 0, Fraction(1, 2**20)]), Fraction(2**20), 3, 1, True)
@example(Polynomial([0, 0, Fraction(1, 2**20)]), Fraction(2**20), 3, 1, False)
# undecided band: step 5 has the lower bound 107 bits under the budget of 110
# bits, so it is computed, and comes out at 116
@example(Polynomial([Fraction(1, 3), 0, 1]), Fraction(2, 7), 6, 33, True)
def test_engine_orbit_matches_fraction_horner(phi, start, N, digit_budget, track):
    assert engine_orbit(phi, start, N, digit_budget, track) == oracle_orbit(phi, start, N, digit_budget, track)


# --- the size lemma -----------------------------------------------------------------------

# products of powers of small primes: leading coefficients, denominators and
# the b of a pair draw from the same primes, so the reduction divides out a lot
prime_powers = st.lists(st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 60)), max_size=3).map(
    lambda pes: prod(p**e for p, e in pes)
)


@st.composite
def wide_maps(draw):
    """Degree 2-6 maps with rational and zero coefficients, often with a large
    |f_d| and L made of small primes."""

    def coefficient():
        num = draw(st.one_of(prime_powers, st.integers(1, 10**30)))
        den = draw(st.one_of(prime_powers, st.integers(1, 10**12)))
        return Fraction(draw(st.sampled_from((-1, 1))) * num, den)

    d = draw(st.integers(2, 6))
    lower = [coefficient() if draw(st.booleans()) else Fraction(0) for _ in range(d)]
    return Polynomial(lower + [coefficient()])


@st.composite
def coprime_pairs(draw, digits=200):
    """(a, b) with b > 0 coprime to a, up to about `digits` digits, with b
    often divisible by high powers of small primes."""
    b = draw(prime_powers) * draw(st.integers(1, 10 ** (digits // 2)))
    a = draw(st.one_of(st.integers(-1000, 1000), st.integers(-(10**digits), 10**digits)))
    if a == 0:
        return 0, 1
    while (g := gcd(a, b)) > 1:
        a //= g
    return a, b


def _bits(a, b):
    return max(a.bit_length(), b.bit_length())


@settings(max_examples=300, deadline=None)
@given(wide_maps(), coprime_pairs())
# 2^60 z^2 at 1/2^30 is 1: the gcd takes out all of f_d = b^2
@example(Polynomial([0, 0, 2**60]), (1, 2**30))
def test_size_lemma_bounds_every_step(phi, pair):
    model = IntegerModel(phi)
    a, b = pair
    assert _bits(*model(a, b)) >= phi.degree * (_bits(a, b) - 1) - model.drop


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_maps(), coprime_pairs(3000))
# leads 1, -1 and -1/6 with gaps 2 to 5 and a final gap to f_0 = 0, on pairs
# past the Karatsuba cutoff, so that the squarings run on big operands
@example(Polynomial([1, 0, 1]), (3**6000 + 2, 2**1000))
@example(Polynomial([0, Fraction(1, 5), 0, 0, 1]), (7**3000, 5**700))
@example(Polynomial([2, 0, 0, -1]), (-(11**2500), 3))
@example(Polynomial([0, 0, 0, 0, 0, Fraction(-1, 6)]), (5**4000 + 6, 6**900))
@example(Polynomial([Fraction(1, 3), 0, 0, 0, Fraction(7, 2), 0, -1]), (2**9000 + 1, 1))
def test_one_step_is_the_reduced_fraction(phi, pair):
    a, b = pair
    assert gcd(a, b) == 1
    d = phi.degree
    value = sum(c * a**i * b ** (d - i) for i, c in enumerate(phi.coeffs)) / b**d
    assert IntegerModel(phi)(a, b) == (value.numerator, value.denominator)


def _count_steps(monkeypatch):
    calls = [0]
    step = IntegerModel.__call__

    def counted(self, a, b):
        calls[0] += 1
        return step(self, a, b)

    monkeypatch.setattr(IntegerModel, "__call__", counted)
    return calls


def test_truncated_height_builds_no_value_past_the_budget(monkeypatch):
    calls = _count_steps(monkeypatch)
    est = canonical_height(Polynomial([Fraction(1, 3), 0, 1]), Fraction(2, 7), 1e-9)
    assert est.truncated
    assert calls[0] == est.iterations


def test_budget_stopped_sequence_builds_no_value_past_the_budget(monkeypatch):
    calls = _count_steps(monkeypatch)
    with pytest.raises(DigitBudgetExceeded) as info:
        build_sequence(Polynomial([1, 0, 1]), 0, 30, digit_budget=20_000)
    assert calls[0] == len(info.value.partial.records)


@SETTINGS
@given(maps(), starts, st.integers(1, 8), budgets)
@example(Polynomial([-1, 0, 1]), Fraction(0), 5, 100)
@example(Polynomial([Fraction(1, 3), Fraction(1, 2), 4]), Fraction(-1, 8), 6, 400)
def test_build_sequence_matches_fraction_horner(phi, alpha, N, digit_budget):
    values, stop = oracle_orbit(conjugate(phi, alpha), 0, N, digit_budget, track=True)
    try:
        seq = build_sequence(phi, alpha, N, digit_budget=digit_budget)
        got_stop = None
    except (PreperiodicPoint, DigitBudgetExceeded) as exc:
        seq = exc.partial
        got_stop = (str(exc), len(seq.records) + 1)
        if isinstance(exc, PreperiodicPoint):
            assert exc.index == got_stop[1]
    assert got_stop == stop
    assert [(r.value.numerator, r.value.denominator) for r in seq.records] == values
    assert [r.ideal for r in seq.records] == [ideal_pair(Fraction(a, b)) for a, b in values]


@SETTINGS
@given(maps(), starts, st.sampled_from([1e-2, 1e-4, 1e-6, 1e-9]), st.integers(20, 3000))
@example(Polynomial([Fraction(1, 3), 0, 1]), Fraction(2, 7), 1e-9, 2000)
@example(Polynomial([Fraction(1, 3), 0, 1]), Fraction(0), 1e-6, 500)
@example(Polynomial([-2, 0, 1]), Fraction(2), 1e-6, 500)  # fixed point
def test_canonical_height_is_identical(phi, P, tol, digit_budget):
    got = canonical_height(phi, P, tol, digit_budget=digit_budget)
    assert got == oracle_canonical_height(phi, P, tol, digit_budget)


@SETTINGS
@given(maps(), starts, st.integers(1, 12), st.sampled_from([1e-2, 1e-3]))
def test_wandering_verdict_matches_fraction_horner(phi, alpha, probe, tol):
    assert wandering_verdict(phi, alpha, probe, tol) == oracle_wandering_verdict(phi, alpha, probe, tol)


@SETTINGS
@given(powerful_maps(), place_sets, st.integers(1, 4), st.integers(20, 300))
@example(Polynomial([4, 4, 1]) * Polynomial([9, -6, 1]), PlaceSet(), 4, 300)  # (z+2)^2 (z-3)^2
# 1/2 (z-4)^2 (z-3/2)^2: A_1 = 18 shares 3^2 with P^E, so the residue is 2
@example(Polynomial([Fraction(1, 2)]) * Polynomial([16, -8, 1]) * Polynomial([Fraction(9, 4), -3, 1]), PlaceSet(), 3, 300)
def test_valuation_stability_matches_fraction_horner(phi, S, N, digit_budget):
    kind, want = oracle_valuation_stability(phi, S, N, TINY_FACTOR_BUDGET, digit_budget)
    try:
        report = valuation_stability_check(phi, S, N, budget=TINY_FACTOR_BUDGET, digit_budget=digit_budget)
    except HypothesisViolated as exc:
        assert (kind, want) == ("preperiodic", exc.reason)
        return
    except DigitBudgetExceeded as exc:
        assert (kind, want) == ("budget", str(exc))
        return
    failures = [(f.kind, f.prime, f.index, f.expected, f.got) for f in report.failures]
    assert (kind, want) == ("report", (report.ranks, failures, report.untested_cofactors))


def oracle_growth_orbit(phi, N, digit_budget):
    coeffs = [int(c) for c in phi.coeffs]
    bit_budget = int(digit_budget * _DIGIT_TO_BITS) + 1
    orbit = []
    x = 0
    for n in range(1, N + 1):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        x = acc
        if x.bit_length() > bit_budget:
            return orbit, f"orbit value at step {n} exceeds {digit_budget} digits"
        orbit.append(x)
    return orbit, None


family_factors = st.builds(
    FamilyFactor,
    inner=st.integers(1, 3).map(Polynomial.constant),
    offset=st.integers(-5, 5).filter(lambda a: a != 0),
    exponent=st.integers(2, 3),
)


@SETTINGS
@given(st.tuples(family_factors, family_factors), st.integers(1, 4), st.integers(5, 2000))
def test_growth_orbit_matches_integer_horner(factors, N, digit_budget):
    spec = FamilySpec(factors)
    try:
        phi = family_build(spec)
    except HypothesisViolated:
        return
    orbit, stop = oracle_growth_orbit(phi, N, digit_budget)
    try:
        report = growth_check(spec, N, digit_budget=digit_budget)
    except DigitBudgetExceeded as exc:
        assert (exc.partial, str(exc)) == (orbit, stop)
        return
    assert stop is None
    assert report.first_term == orbit[0]
    square_ok = orbit[0] ** 2 >= 4 and all(abs(orbit[n - 1]) > orbit[n - 2] ** 2 for n in range(2, N + 1))
    assert report.square_growth_ok == square_ok
    assert report.orbit_digits == [len(str(abs(v))) for v in orbit]  # all below 10,000 bits


# --- the residue orbit and the escape test ------------------------------------------------


@st.composite
def residue_orbits(draw):
    """A map, a start, the number of orbit values to skip from it, a number
    of steps and a modulus: 1, the check prime 2^30 - 35, a prime power, or
    a multiple of the model's k."""
    phi = draw(st.one_of(maps(), powerful_maps()))
    start = draw(st.one_of(st.just(Fraction(0)), starts))
    steps = draw(st.integers(1, 8))
    skip = draw(st.integers(0, 8 - steps))
    k = IntegerModel(phi).k
    modulus = draw(
        st.one_of(
            st.sampled_from([1, 2**30 - 35]),
            st.tuples(st.sampled_from([2, 3, 5, 7, 2**30 - 35]), st.integers(1, 40)).map(lambda pe: pe[0] ** pe[1]),
            st.integers(1, 10**6).map(lambda c: c * k),
        )
    )
    return phi, start, skip, steps, modulus


@SETTINGS
@given(residue_orbits())
@example((Polynomial([1, 0, 2]), Fraction(0), 0, 8, 2**30 - 35))  # sparse, lead 2: k = 2
@example((Polynomial([0, Fraction(1, 5), 0, 0, 1]), Fraction(0), 2, 4, 5**12))  # gap 3, f_0 = 0, k = 5
@example((Polynomial([Fraction(1, 3), Fraction(1, 2), 9]), Fraction(0), 3, 5, 54))  # dense, k = 54, modulus k
@example((Polynomial([Fraction(-3, 4), 0, 1]), Fraction(0), 1, 7, 1))  # modulus 1
@example((Polynomial([-1, 0, 1]), Fraction(0), 0, 6, 2**30 - 35))  # a cycle of 0 and -1
# -2z^4 + 3z^3 - 2z - 1 at -1/2: F(-1, 2) = -8 and L * b^4 = 16, so the step
# divides by 8, more than k = 2, and the residues mod 3 * 2^5 must allow it
@example((Polynomial([-1, -2, 0, 3, -2]), Fraction(-1, 2), 0, 1, 3))
def test_orbit_mod_is_the_exact_orbit_reduced(case):
    phi, start, skip, steps, modulus = case
    x, exact = start, []
    for _ in range(skip + steps):
        x = phi(x)
        exact.append((x.numerator, x.denominator))
    a, b = exact[skip - 1] if skip else (start.numerator, start.denominator)
    got = list(IntegerModel(phi).orbit_mod(a, b, steps, modulus))
    assert got == [(a % modulus, b % modulus) for a, b in exact[skip:]]


@settings(max_examples=200, deadline=None)
@given(wide_maps(), coprime_pairs(40))
@example(Polynomial([1, 0, 1]), (2, 1))  # on the radius 2
@example(Polynomial([1, 0, 1]), (-5, 2))
@example(Polynomial([0, 0, 3]), (1, 1))  # radius 1, as 1/3 < 1
@example(Polynomial([0, 0, 3]), (3, 2))
@example(Polynomial([Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 6)]), (-11, 1))  # radius 11 = (1 + 5/6) * 6
def test_escapes_is_the_escape_radius(phi, pair):
    a, b = pair
    radius = max(Fraction(1), (1 + sum(abs(c) for c in phi.coeffs[:-1])) / abs(phi.lead))
    assert IntegerModel(phi).escapes(a, b) == (abs(Fraction(a, b)) > radius)
