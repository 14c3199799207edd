import random
from fractions import Fraction
from math import gcd

import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # the differentials below need hypothesis
    st = None

from dynzsig.ratfield import (
    DigitBudgetExceeded,
    IntegerModel,
    Polynomial,
    PreperiodicPoint,
    conjugate,
    is_powerful,
    poly_gcd,
    squarefree_decomposition,
)
from oracles import RationalMap, fraction_compose, fraction_power, fraction_product, reverse_map

Z = Polynomial.identity()


def random_poly(rng, max_deg=4, span=9):
    deg = rng.randint(1, max_deg)
    coeffs = [Fraction(rng.randint(-span, span)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([c for c in range(-span, span + 1) if c != 0])))
    return Polynomial(coeffs)


# --- evaluation ------------------------------------------------------------


def test_poly_eval_square_plus_one():
    f = Polynomial([1, 0, 1])
    assert f(2) == 5


def test_poly_eval_identity():
    assert Z(Fraction(7, 3)) == Fraction(7, 3)


def test_poly_eval_zero_polynomial():
    zero = Polynomial.zero()
    for x in (0, 5, Fraction(-3, 7)):
        assert zero(x) == 0


def test_poly_eval_distributes_over_composition():
    rng = random.Random(101)
    for _ in range(25):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        fg = f.compose(g)
        for _ in range(4):
            x = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            assert fg(x) == f(g(x))


# --- arithmetic basics -----------------------------------------------------


def test_polynomial_normalizes_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
    assert Polynomial([0, 0, 0]).is_zero
    assert Polynomial([0]).degree == -1


def test_divmod_recombines():
    rng = random.Random(7)
    for _ in range(30):
        a = random_poly(rng, 5)
        b = random_poly(rng, 3)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_gcd_divides_both():
    rng = random.Random(8)
    for _ in range(20):
        g = random_poly(rng, 2)
        a = g * random_poly(rng, 2)
        b = g * random_poly(rng, 2)
        d = poly_gcd(a, b)
        assert (a % d).is_zero and (b % d).is_zero
        assert d.lead == 1


# --- conjugate -------------------------------------------------------------


def test_conjugate_square_plus_one_at_one():
    psi = conjugate(Polynomial([1, 0, 1]), 1)
    assert psi == Polynomial([1, 2, 1])  # hand expansion of (z+1)^2 + 1 - 1


def test_conjugate_at_zero_is_identity():
    rng = random.Random(9)
    for _ in range(10):
        f = random_poly(rng)
        assert conjugate(f, 0) == f


def test_conjugate_cube_at_one():
    psi = conjugate(Polynomial([0, 0, 0, 1]), 1)
    assert psi == Polynomial([0, 3, 3, 1])  # z^3 + 3z^2 + 3z


def test_conjugate_round_trip():
    rng = random.Random(10)
    for _ in range(25):
        f = random_poly(rng)
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert conjugate(conjugate(f, alpha), -alpha) == f


def test_conjugate_orbit_identity():
    # centered^n(0) must equal phi^n(alpha) - alpha
    rng = random.Random(11)
    for _ in range(12):
        phi = random_poly(rng, 3, 4)
        if phi.degree < 1:
            continue
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        psi = conjugate(phi, alpha)
        x, y = Fraction(0), alpha
        for _ in range(6):
            x = psi(x)
            y = phi(y)
            assert x == y - alpha


def test_conjugate_rejects_constants():
    with pytest.raises(ValueError):
        conjugate(Polynomial([5]), 1)


# --- derivative ------------------------------------------------------------


def test_derivative_power_rule():
    assert Polynomial([1, 0, 1]).derivative() == Polynomial([0, 2])


def test_derivative_constant():
    assert Polynomial([42]).derivative().is_zero


def test_derivative_at_double_root():
    f = (Z + 2) ** 2 * (Z + 3) ** 2
    assert f(-2) == 0
    assert f.derivative()(-2) == 0


# --- squarefree decomposition and powerful test -----------------------------


def test_squarefree_double_pair():
    f = (Z + 2) ** 2 * (Z + 3) ** 2
    assert squarefree_decomposition(f) == [(Polynomial([6, 5, 1]), 2)]


def test_squarefree_irreducible():
    f = Polynomial([1, 0, 1])
    assert squarefree_decomposition(f) == [(f, 1)]


def test_squarefree_pure_power():
    assert squarefree_decomposition(Z**3) == [(Z, 3)]


def test_squarefree_reconstructs_and_factors_are_coprime():
    rng = random.Random(12)
    for _ in range(20):
        parts = [random_poly(rng, 2, 3).monic() for _ in range(rng.randint(1, 3))]
        mults = [rng.randint(1, 3) for _ in parts]
        f = Polynomial([rng.choice([-3, -2, 2, 5])])
        for q, m in zip(parts, mults):
            f = f * q**m
        if f.degree < 1:
            continue
        decomposition = squarefree_decomposition(f)
        rebuilt = Polynomial([f.lead])
        for q, m in decomposition:
            rebuilt = rebuilt * q**m
            # squarefree: coprime with derivative
            assert poly_gcd(q, q.derivative()).degree == 0
        assert rebuilt == f
        for i in range(len(decomposition)):
            for j in range(i + 1, len(decomposition)):
                assert poly_gcd(decomposition[i][0], decomposition[j][0]).degree == 0


def test_is_powerful_examples():
    def powerful(f):
        return is_powerful(squarefree_decomposition(f))

    assert powerful((Z + 2) ** 2 * (Z + 3) ** 2)
    assert not powerful(Polynomial([1, 0, 1]))
    assert powerful(Z**3)
    assert not powerful(Z)  # degree below 2
    assert not powerful(Polynomial([7]))


def test_squarefree_constant_is_the_empty_product():
    assert squarefree_decomposition(Polynomial([7])) == []
    assert squarefree_decomposition(Polynomial([Fraction(-2, 3)])) == []
    with pytest.raises(ValueError):
        squarefree_decomposition(Polynomial.zero())


def test_squarefree_many_rational_roots():
    # Euclid with non-monic remainders took over a second on this product
    f = Polynomial.one()
    for k in range(1, 31):
        f = f * Polynomial([Fraction(k, k + 1), 1])
    assert squarefree_decomposition(f) == [(f.monic(), 1)]


if st is not None:
    small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

    @st.composite
    def powers(draw):
        """c * prod b_i^e_i with bases of degree 1 or 2; no bases gives a constant."""
        c = draw(small_rationals.filter(bool))
        f = Polynomial([c])
        for _ in range(draw(st.integers(0, 3))):
            lower = draw(st.lists(small_rationals, min_size=1, max_size=2))
            base = Polynomial(lower + [draw(small_rationals.filter(bool))])
            f = f * base ** draw(st.integers(1, 4))
        return f

    @settings(max_examples=150, deadline=None)
    @given(powers())
    def test_squarefree_matches_sympy(f):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
        _, expected = sympy.Poly(coeffs, x, domain=sympy.QQ).sqf_list()
        by_mult = {}
        for q, m in expected:  # the monic product of the factors of each multiplicity
            by_mult[m] = by_mult.get(m, sympy.Poly(1, x, domain=sympy.QQ)) * q.monic()
        decomposition = squarefree_decomposition(f)
        assert {m: Polynomial(reversed(by_mult[m].all_coeffs())) for m in by_mult} == dict(
            (m, q) for q, m in decomposition
        )
        assert is_powerful(decomposition) == (bool(expected) and all(m >= 2 for _, m in expected))


# --- products on integer vectors ---------------------------------------------

if st is not None:
    # small, negative and large coefficients over mixed denominators; the empty
    # list is the zero polynomial and one entry a constant
    coefficients = st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=30),
        st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**15)),
    )
    polys = st.lists(coefficients, max_size=7).map(Polynomial)
    short_polys = st.lists(coefficients, max_size=4).map(Polynomial)
    ZERO = Polynomial.zero()

    @settings(max_examples=300, deadline=None)
    @given(polys, polys)
    @example(ZERO, ZERO)
    @example(ZERO, Polynomial([Fraction(-3, 7), 1]))
    @example(Polynomial([Fraction(5, 6)]), Polynomial([Fraction(-1, 4), 0, 10**30]))
    def test_product_matches_the_fraction_loop(f, g):
        expected = fraction_product(f, g)
        assert f * g == expected and g * f == expected
        assert all(type(c) is Fraction for c in (f * g).coeffs)

    @settings(max_examples=300, deadline=None)
    @given(polys, st.integers(0, 8))
    @example(ZERO, 0)
    @example(ZERO, 3)
    @example(Polynomial([Fraction(-7, 12)]), 8)
    def test_power_matches_repeated_fraction_products(f, n):
        assert f**n == fraction_power(f, n)

    @settings(max_examples=150, deadline=None)
    @given(short_polys, short_polys, st.integers(-9, 9))
    @example(ZERO, Polynomial([1, 1]), 2)
    @example(Polynomial([Fraction(2, 3), 1]), ZERO, 1)
    def test_scalar_products_and_composition_match_the_fraction_loop(f, g, k):
        assert k * f == f * k == fraction_product(f, Polynomial.constant(k))
        assert f.compose(g) == fraction_compose(f, g)

    @settings(max_examples=150, deadline=None)
    @given(short_polys.filter(lambda f: f.degree >= 1), coefficients)
    @example(Polynomial([1, 0, 1]), Fraction(-5, 4))
    def test_conjugate_matches_the_fraction_loop(phi, alpha):
        expected = fraction_compose(phi, Polynomial([alpha, 1])) - Polynomial.constant(alpha)
        assert conjugate(phi, alpha) == expected

    @settings(max_examples=100, deadline=None)
    @given(polys, short_polys, st.integers(0, 8))
    def test_products_match_sympy(f, g, n):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(p):
            coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
            return sympy.Poly(coeffs or [0], x, domain=sympy.QQ)

        def from_sympy(p):
            return Polynomial(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))

        assert f * g == from_sympy(to_sympy(f) * to_sympy(g))
        assert f**n == from_sympy(to_sympy(f) ** n)
        assert f.compose(g) == from_sympy(to_sympy(f).compose(to_sympy(g)))


# --- reverse_map -----------------------------------------------------------


def test_reverse_map_square_plus_c():
    rm = reverse_map(Polynomial([5, 0, 1]))
    assert rm.numerator == Z**2
    assert rm.denominator == Polynomial([1, 0, 5])


def test_reverse_map_power_map():
    rm = reverse_map(Z**2)
    assert rm.numerator == Z**2
    assert rm.denominator == Polynomial.one()


def test_reverse_map_perfect_square():
    rm = reverse_map(Polynomial([1, 2, 1]))
    assert rm.numerator == Z**2
    assert rm.denominator == Polynomial([1, 2, 1])
    assert rm.degree == 2


def test_reverse_map_clears_shared_zero():
    rm = reverse_map(Polynomial([0, 2, 1]))  # z^2 + 2z
    assert rm.numerator == Z**2
    assert rm.denominator == Polynomial([1, 2])


def test_reverse_map_value_identity():
    # the reversed map satisfies rm(x) * psi(1/x) = 1 wherever both sides exist
    rng = random.Random(13)
    for _ in range(30):
        psi = random_poly(rng, 4)
        if psi.degree < 1:
            continue
        rm = reverse_map(psi)
        for _ in range(4):
            x = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            denominator_value = rm.denominator(x)
            inverted = psi(1 / x)
            if denominator_value == 0 or inverted == 0:
                continue
            assert (rm.numerator(x) / denominator_value) * inverted == 1


# --- RationalMap normalization ----------------------------------------------


def test_rational_map_reduces_and_scales():
    num = Polynomial([Fraction(1, 3), 0, Fraction(1, 2)])
    rm = RationalMap(num, Polynomial.one())
    assert rm.integer_coefficients() == ((2, 0, 3), (6,))


def test_rational_map_cancels_common_factor():
    num = (Z + 1) * (Z + 2)
    den = (Z + 1) * (Z + 3)
    rm = RationalMap(num, den)
    assert rm.numerator == Z + Polynomial([2])
    assert rm.denominator == Z + Polynomial([3])


def test_rational_map_rejects_zero_denominator():
    with pytest.raises(ValueError):
        RationalMap(Z, Polynomial.zero())


# --- integer orbit engine --------------------------------------------------


def fraction_orbit(phi, start, steps):
    """The Fraction-Horner orbit the engine replaced, as (numerator, denominator)."""
    x = Fraction(start)
    out = []
    for _ in range(steps):
        x = phi(x)
        out.append((x.numerator, x.denominator))
    return out


HALF_Z = Polynomial([0, Fraction(1, 2)])


@pytest.mark.parametrize(
    "phi, start",
    [
        pytest.param(Polynomial([Fraction(1, 3), 0, -2]), Fraction(1, 5), id="lead<0"),
        pytest.param(Polynomial([Fraction(-2, 7), 1, 0, -1]), Fraction(-3, 2), id="cubic lead<0"),
        pytest.param(Polynomial([Fraction(1, 3), 0, 1]), 0, id="alpha=0"),
        pytest.param(Polynomial([1, 0, 1]), Fraction(1, 2), id="k=1 rational start"),
        pytest.param(Polynomial([-2, 0, 1]), 3, id="k=1 integer"),
        pytest.param(Polynomial([1, 0, 2]), Fraction(1, 2), id="2 | b and 2 | f_d"),
        pytest.param(HALF_Z + Polynomial([Fraction(1, 3), 0, 9]), Fraction(1, 6), id="3 | b and 3 | f_d"),
        pytest.param(HALF_Z + Polynomial([Fraction(1, 3), 0, 4]), Fraction(-1, 8), id="two gcd rounds"),
    ],
)
def test_integer_model_matches_fraction_horner(phi, start):
    pairs = list(IntegerModel(phi).orbit(start, 5))
    assert pairs == fraction_orbit(phi, start, 5)
    for a, b in pairs:
        assert b > 0
        assert gcd(a, b) == 1


def test_integer_model_reduces_in_two_rounds():
    # k = L*|f_d| = 48 covers 2^4 of den = 3 * 8^2 only in two gcd rounds
    model = IntegerModel(HALF_Z + Polynomial([Fraction(1, 3), 0, 4]))
    assert (model.scale, model.k) == (6, 144)
    assert model(-1, 8) == (1, 3)


def test_integer_model_rejects_constants():
    with pytest.raises(ValueError):
        IntegerModel(Polynomial([5]))


@pytest.mark.parametrize(
    "phi, start, message, index",
    [
        (Polynomial([-1, 0, 1]), 0, "orbit returns to the start at step 2", 2),
        (Polynomial([-2, 0, 1]), 2, "orbit returns to the start at step 1", 1),
        (Polynomial([0, 0, 1]), -1, "orbit value repeats at step 2", 2),
        (Polynomial([Fraction(-3, 4), 0, 1]), Fraction(1, 2), "orbit value repeats at step 2", 2),
    ],
)
def test_integer_model_tracks_preperiodic_orbits(phi, start, message, index):
    with pytest.raises(PreperiodicPoint) as err:
        list(IntegerModel(phi).orbit(start, 10, track=True))
    assert str(err.value) == message
    assert err.value.index == index
    # untracked, the same orbit runs to the end
    assert len(list(IntegerModel(phi).orbit(start, 10))) == 10


def test_integer_model_budget_cuts_where_fraction_orbit_outgrows_it():
    phi = Polynomial([Fraction(1, 3), 0, 1])
    bits = int(40 / 0.30102999566398120) + 1
    expected = next(
        n
        for n, (a, b) in enumerate(fraction_orbit(phi, Fraction(2, 7), 10), 1)
        if max(a.bit_length(), b.bit_length()) > bits
    )
    seen = []
    with pytest.raises(DigitBudgetExceeded) as err:
        for pair in IntegerModel(phi).orbit(Fraction(2, 7), 10, 40):
            seen.append(pair)
    assert str(err.value) == f"orbit value at step {expected} exceeds 40 digits"
    assert seen == fraction_orbit(phi, Fraction(2, 7), expected - 1)


# --- printing --------------------------------------------------------------


def test_str_round_trips_simple_forms():
    assert str(Polynomial([1, 0, 1])) == "z^2 + 1"
    assert str(Polynomial([36, 60, 37, 10, 1])) == "z^4 + 10*z^3 + 37*z^2 + 60*z + 36"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial([Fraction(-1, 2), 1])) == "z - 1/2"
