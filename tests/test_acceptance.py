"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The second product-family instance needs ~1.8e5-digit terms at
n = 6, which is over the 1e5-digit default budget, so those criteria
exercise both the honest budget-exhaustion path at 1e5 digits and the full
n <= 6 run at a raised 2.5e5-digit budget.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from dynzsig.cli import RunConfig, run_subcommand
from dynzsig.divisibility import (
    primitive_split,
    rigid_check,
)
from dynzsig.heights import (
    PlaceSet,
    canonical_height,
    height_comparison_bound,
    log_int,
    sum_local_at_zero,
    valuation,
    weil_height,
)
from dynzsig.ratfield import Polynomial, conjugate
from dynzsig.zsigmondy import (
    DigitBudgetExceeded,
    FamilyFactor,
    FamilySpec,
    build_sequence,
    check_term_lower_bound,
    check_term_upper_bound,
    family_build,
    fixed_or_wandering,
    growth_check,
    is_close_approach,
    valuation_stability_check,
    zsigmondy_bound,
    zsigmondy_set,
    BoundInputs,
    history_predicate,
    startup_predicate,
)
from oracles import nonprimitive_bound_check, rational_height

S_INF = PlaceSet()
SQUARE_PLUS_ONE = Polynomial([1, 0, 1])

PAIR_FAMILY = FamilySpec(
    (FamilyFactor(Polynomial.one(), 2, 2), FamilyFactor(Polynomial.one(), 3, 2))
)
CUBIC_FAMILY = FamilySpec(
    (FamilyFactor(Polynomial([2, 0, 1]), 3, 2), FamilyFactor(Polynomial.one(), 5, 3))
)
RAISED_BUDGET = 250_000  # the cubic family reaches ~1.8e5 digits at n = 6


def naive_factor(n):
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


@pytest.fixture(scope="module")
def family_sequences():
    pair = build_sequence(family_build(PAIR_FAMILY), 0, 6)
    cubic = build_sequence(family_build(CUBIC_FAMILY), 0, 6, digit_budget=RAISED_BUDGET)
    return {"pair": pair, "cubic": cubic}


@pytest.fixture(scope="module")
def quadratic_orbits():
    out = {}
    for c in (1, 2, -3):
        out[c] = build_sequence(Polynomial([c, 0, 1]), 0, 8 if c == 1 else 7)
    return out


def test_criterion_1_zsigmondy_instance():
    start = time.monotonic()
    seq = build_sequence(SQUARE_PLUS_ONE, 0, 8)
    assert zsigmondy_set(seq, 8) == {1}
    terms = seq.terms()
    for n in range(2, 9):
        assert seq.record(n).split.primitive_part > 1
    # cross-check the gcd-stripped split against full factorization
    for n, A in enumerate(terms, 1):
        if A >= 10**12:
            continue
        expected = 1
        for p, e in naive_factor(A).items():
            if all(t % p for t in terms[: n - 1]):
                expected *= p**e
        assert seq.record(n).split.primitive_part == expected
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 (zsigmondy set of z^2+1 over n<=8): PASS ({elapsed:.2f}s)")


def test_criterion_2_family_emptiness(family_sequences):
    start = time.monotonic()
    for name in ("pair", "cubic"):
        seq = family_sequences[name]
        assert zsigmondy_set(seq, 6) == set()
        terms = seq.terms()
        for n in range(1, len(terms)):
            assert terms[n].bit_length() > 2 * terms[n - 1].bit_length() - 2
    assert growth_check(PAIR_FAMILY, 6).passed
    assert growth_check(CUBIC_FAMILY, 6, digit_budget=RAISED_BUDGET).passed
    # at the stated 1e5-digit budget the cubic instance stops honestly at n=5
    with pytest.raises(DigitBudgetExceeded) as err:
        build_sequence(family_build(CUBIC_FAMILY), 0, 6, digit_budget=100_000)
    partial = err.value.partial
    assert len(partial.records) == 5
    assert zsigmondy_set(partial, 5) == set()
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 (product-family Zsigmondy sets empty, n<=6): PASS ({elapsed:.2f}s)")


def test_criterion_3_rigid_divisibility(quadratic_orbits):
    for c in (1, 2, -3):
        seq = quadratic_orbits[c]
        report = rigid_check(seq.terms()[:7], S_INF)
        assert report.verified, c
        assert report.violations == [], c
        assert report.untested_primes == [], c
    print("\nACCEPTANCE 3 (rigid divisibility for z^2+c, c in {1,2,-3}): PASS")


def test_criterion_4_nonprimitive_bound(family_sequences, quadratic_orbits):
    sequences = [quadratic_orbits[1], quadratic_orbits[2], quadratic_orbits[-3]]
    sequences += [family_sequences["pair"], family_sequences["cubic"]]
    checked = 0
    for seq in sequences:
        N = len(seq.records)
        splits = [seq.record(n).split for n in range(1, N + 1)]
        for n in range(2, min(N, 8) + 1):
            if any(n % i == 0 for i in range(2, n)):  # composite indices
                assert nonprimitive_bound_check(n, splits, S_INF), (str(seq.phi), n)
                checked += 1
    assert checked >= 10
    print(f"\nACCEPTANCE 4 (non-primitive part bound at composite n): PASS ({checked} checks)")


def test_criterion_5_canonical_height():
    est = canonical_height(Polynomial([0, 0, 1]), 2, 1e-9)
    assert abs(est.value - math.log(2)) <= 1e-9
    assert est.error_bound <= 1e-9

    rng = random.Random(2024)
    samples = []
    while len(samples) < 50:
        d = rng.choice([2, 3])
        coeffs = [rng.randint(-5, 5) for _ in range(d)] + [rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])]
        phi = Polynomial(coeffs)
        P = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        samples.append((phi, P))

    for phi, P in samples:
        d = phi.degree
        est_p = canonical_height(phi, P, 1e-5, digit_budget=20_000)
        est_fp = canonical_height(phi, phi(P), 1e-5, digit_budget=20_000)
        assert (
            abs(est_fp.value - d * est_p.value)
            <= est_fp.error_bound + d * est_p.error_bound + 1e-12
        )

    for phi, P in samples:
        alpha = Fraction(random.Random(hash((str(phi), P)) & 0xFFFF).randint(-3, 3))
        psi = conjugate(phi, alpha)
        direct = canonical_height(phi, P + alpha, 1e-5, digit_budget=20_000)
        moved = canonical_height(psi, P, 1e-5, digit_budget=20_000)
        assert abs(direct.value - moved.value) <= direct.error_bound + moved.error_bound + 1e-12
    print("\nACCEPTANCE 5 (canonical height: exactness, functional equation, conjugation): PASS")


def test_criterion_6_height_split_and_local_inequality():
    rng = random.Random(6171)
    pool = [2, 3, 5, 7, 11, 13, 17]
    for _ in range(200):
        a = rng.randint(-10**9, 10**9) or 3
        b = rng.randint(1, 10**9)
        beta = Fraction(a, b)
        S = PlaceSet.from_primes(rng.sample(pool, rng.randint(0, 5)))
        # exact integer part: stripping the S primes is a clean division
        stripped = beta.denominator
        for p in S.finite_primes:
            stripped //= p ** valuation(beta.denominator, p)
        finite = sum(valuation(beta.denominator, p) * math.log(p) for p in S.finite_primes)
        arch = max(0.0, log_int(abs(beta.numerator)) - log_int(beta.denominator))
        lhs = rational_height(beta)
        rhs = log_int(stripped) + finite + arch
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

        # local-distance sum over all relevant places dominates the height
        a, b = beta.numerator, beta.denominator
        relevant = set(naive_factor(abs(a))) | set(naive_factor(b))
        total = sum_local_at_zero(a, b, PlaceSet.from_primes(relevant))
        assert weil_height(a, b) <= total + 1e-9
    print("\nACCEPTANCE 6 (height split identity and local-sum inequality, 200 samples): PASS")


def test_criterion_7_section3_machinery():
    for c in (1, 2):
        phi = Polynomial([c, 0, 0, 1])
        seq = build_sequence(phi, 0, 8)
        B = height_comparison_bound(phi)
        hhat0 = canonical_height(seq.centered, 0, 1e-6)
        for n in range(1, 9):
            assert check_term_upper_bound(seq, n, B, hhat0), (c, n)
            assert check_term_lower_bound(seq, n, S_INF, B, hhat0), (c, n)
        members = [n for n in range(1, 9) if is_close_approach(seq, n, S_INF, hhat0)]
        cutoff = max(members, default=0) + 1
        assert cutoff <= 8
        assert all(n in members for n in range(1, cutoff))  # members form an initial run here
        assert not any(is_close_approach(seq, n, S_INF, hhat0) for n in range(cutoff, 9))
    print("\nACCEPTANCE 7 (term bounds and close-approach decay for z^3+1, z^3+2): PASS")


def test_criterion_8_bound_value_and_enumerations():
    inputs = BoundInputs(
        d=3, h_reversed=1.0, hhat0=1.0, comparison_bound=1.0, gamma=1.0, s_size=1
    )
    breakdown = zsigmondy_bound(inputs)
    assert abs(breakdown.total - 11.52371901428583) < 1e-6

    rng = random.Random(88)
    for _ in range(30):
        d = rng.choice([3, 4, 5, 7])
        B = rng.uniform(0.0, 80.0)
        h0 = rng.uniform(0.02, 4.0)
        bd = zsigmondy_bound(
            BoundInputs(
                d=d,
                h_reversed=rng.uniform(0.05, 8.0),
                hhat0=h0,
                comparison_bound=B,
                gamma=rng.uniform(0.1, 2.0),
                s_size=rng.randint(1, 3),
            )
        )
        for n in range(1, min(bd.history_scan_limit, 300) + 1):
            assert (n in bd.history_set) == history_predicate(d, B, h0, n)
        top = max(bd.startup_set, default=0)
        for n in range(1, top + 3):
            assert (n in bd.startup_set) == startup_predicate(d, B, h0, n)
    print("\nACCEPTANCE 8 (explicit bound worked value and pointwise enumerations): PASS")


def test_criterion_9_valuation_stability(family_sequences):
    pair_phi = family_build(PAIR_FAMILY)
    report = valuation_stability_check(pair_phi, S_INF, 6)
    assert report.ok
    assert report.ranks[2] == 1 and report.ranks[13] == 2

    cubic_phi = family_build(CUBIC_FAMILY)
    report2 = valuation_stability_check(cubic_phi, S_INF, 6, digit_budget=RAISED_BUDGET)
    assert report2.ok
    assert report2.ranks[3] == 1 and report2.ranks[5] == 1
    print(
        "\nACCEPTANCE 9 (valuation stability, both family instances, n<=6): PASS "
        f"({len(report.ranks)}+{len(report2.ranks)} primes)"
    )


def test_criterion_10_determinism():
    matrix = [
        ("orbit", dict(poly="z^2+1", alpha="0", n=8)),
        ("zsigmondy", dict(poly="z^2+1", alpha="0", n=8)),
        ("rigid-check", dict(poly="z^2+1", alpha="0", n=7)),
        ("heights", dict(poly="z^2+1", alpha="3/2", places="2,3")),
        ("bound", dict(d=3, B="1", hhat="1", htilde="1", gamma="1", s_size=1)),
        ("powerful-check", dict(poly="(z+2)^2*(z+3)^2")),
        ("family-check", dict(factors="(z+2)^2*(z+3)^2", n=4)),
    ]
    for command, args in matrix:
        config = RunConfig(seed=11)
        first = run_subcommand(command, dict(args), config)
        second = run_subcommand(command, dict(args), config)
        assert first[0] == 0, command
        assert first == second, command
    print("\nACCEPTANCE 10 (byte-identical reports across repeated runs): PASS")
