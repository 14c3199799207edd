"""Orbit divisibility sequences, Zsigmondy sets, the explicit size bound with
its exceptional-index enumerations, and the powerful-polynomial machinery.

Sequences are built by exact iteration of the centered map (the input map
conjugated so the starting point sits at 0); primitive parts come from
gcd-stripping, so no factorization is ever needed to decide membership in
the Zsigmondy set.  By the rank of apparition (Rice, Integers 7 (2007);
Ingram-Silverman, Math. Proc. Camb. Phil. Soc. 146 (2009)), A_n is stripped
only against A_(n/q) for the primes q | n, plus bad for the primes of the
denominator lcm L of the centered map, where that argument fails; see
build_sequence.

Every orbit here runs on one engine, ratfield.IntegerModel, with its budget
and preperiodicity checks: phi = F(X, Y) / (L Y^d) on coprime pairs (a, b),
reduced by gcds with the small k = L |f_d| alone since F(a, b) = f_d a^d
(mod b).  Records keep the pair; their Fraction value is built on demand.
"""

from __future__ import annotations

import decimal
import math
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .divisibility import (
    DEFAULT_BUDGET,
    FactorBudget,
    IdealPair,
    PrimitiveSplit,
    factor,
    primitive_split,
    prime_to_s_norm,
    valuation_table,
)
from .heights import (
    HeightEstimate,
    PlaceSet,
    canonical_height,
    height_comparison_bound,
    log_int,
    sum_local_at_zero,
    weil_height,
)
from .ratfield import (
    _EXACT,
    Coefficient,
    DigitBudgetExceeded,
    IntegerModel,
    Polynomial,
    PreperiodicPoint,
    as_rational,
    conjugate,
    is_powerful,
    squarefree_decomposition,
)

if TYPE_CHECKING:
    from .cli import FactorCache


class HypothesisViolated(Exception):
    """Raised when an input fails a stated hypothesis; .reason is machine-readable."""

    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or reason)
        self.reason = reason


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit term.  A record that build_sequence computed on exact
    Decimals holds deep = (a, b, N): the signed value's pair as Decimals and
    the int non-primitive part.  On first access its ideal and split are made
    as ints, by one int step from the previous record's, and kept."""

    n: int
    sign: int  # -1 or 1: the orbit value is sign * ideal.A / ideal.B
    ideal: IdealPair
    split: PrimitiveSplit
    primitive: bool
    deep: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __getattr__(self, name: str):
        # reached for ideal and split only while a record on Decimals lacks them
        if name not in ("ideal", "split") or "_prior" not in self.__dict__:
            raise AttributeError(name)
        model, prior = self._prior
        (a, b), N = model(prior.sign * prior.ideal.A, prior.ideal.B), self.deep[2]
        object.__setattr__(self, "ideal", IdealPair.coprime(abs(a), b))
        object.__setattr__(self, "split", PrimitiveSplit(abs(a) // N, N))
        return self.__dict__[name]

    @property
    def value(self) -> Fraction:
        return Fraction(self.sign * self.ideal.A, self.ideal.B)


@dataclass
class OrbitSequence:
    """Exact orbit data for phi iterated at alpha, recorded per index n >= 1.

    records[n-1].value equals centered^n(0) = phi^n(alpha) - alpha.
    """

    phi: Polynomial
    alpha: Fraction
    centered: Polynomial
    records: list[OrbitRecord] = field(default_factory=list)

    @property
    def degree(self) -> int:
        return self.phi.degree

    def __len__(self) -> int:
        return len(self.records)

    def record(self, n: int) -> OrbitRecord:
        if not 1 <= n <= len(self.records):
            raise IndexError(f"record {n} not computed (have {len(self.records)})")
        return self.records[n - 1]

    def terms(self) -> list[int]:
        """The numerator-ideal sequence A_1, A_2, ..."""
        return [rec.ideal.A for rec in self.records]


def build_sequence(
    phi: Polynomial,
    alpha: Coefficient,
    N: int,
    digit_budget: int = 100_000,
    *,
    decimal_tail: bool = False,
) -> OrbitSequence:
    """Populate records 1..N by exact iteration of the centered map at 0.

    Each term A_n is split against A_(n/q) for the primes q | n and against
    bad, the part of L = IntegerModel(centered).scale whose primes divided an
    earlier term.  That is the split against all earlier terms: a prime
    p not dividing L divides A_m iff its rank of apparition r_p divides m, so
    if it divides A_n and an earlier A_m it divides A_(gcd(m, n)), and
    gcd(m, n) is a proper divisor of n, hence divides some n/q.  Primes of L
    escape that argument (phi = z^2/2 + z/2 + 1 at 0 gives 1, 2, 4, and
    A_3 = 4 is non-primitive only through A_2), and bad catches them.

    With decimal_tail, for a caller that prints every term's digits, the
    terms past n = N/2, which are no later term's history, run on exact
    Decimals from the first step whose input is past _LEAF_BITS
    (IntegerModel.orbit's decimal_from): each is computed once, in the base
    it is printed in, and split by remainders against the int history.
    Their records keep the Decimal pair and make ints only when asked.

    Raises PreperiodicPoint if an orbit value returns to 0 or repeats, and
    DigitBudgetExceeded (carrying the partial sequence) if a value outgrows
    the budget.
    """
    if phi.degree < 2:
        raise ValueError("build_sequence requires degree >= 2")
    if N < 1:
        raise ValueError("build_sequence requires N >= 1")
    alpha = as_rational(alpha)
    centered = conjugate(phi, alpha)
    seq = OrbitSequence(phi=phi, alpha=alpha, centered=centered, records=[])
    model = IntegerModel(centered)
    orbit = model.orbit(0, N, digit_budget, track=True, partial=seq, decimal_from=N // 2 + 1 if decimal_tail else None)
    terms, bad = [], 1
    with decimal.localcontext(_EXACT):  # Decimal terms are split exactly
        for n, (a, b) in enumerate(orbit, 1):
            A, sign = abs(a), -1 if a < 0 else 1
            split = primitive_split(A, [terms[n // q - 1] for q in _prime_divisors(n)] + [bad])
            primitive = split.primitive_part > 1
            if type(a) is int:
                rec = OrbitRecord(n, sign, IdealPair.coprime(A, b), split, primitive)
            else:  # the Decimal steps began past _LEAF_BITS, not at the start 0: a record precedes
                rec, prior = object.__new__(OrbitRecord), (model, seq.records[-1])
                rec.__dict__.update(n=n, sign=sign, primitive=primitive, deep=(a, b, split.nonprimitive_part), _prior=prior)
            seq.records.append(rec)
            terms.append(A)
            bad = math.lcm(bad, math.gcd(int(A % model.scale), model.scale))
    return seq


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def zsigmondy_set(seq: OrbitSequence, N: int) -> set[int]:
    """Indices n <= N whose term has no primitive prime divisor."""
    if len(seq.records) < N:
        raise ValueError(f"sequence has {len(seq.records)} records, need {N}")
    return {n for n in range(1, N + 1) if not seq.records[n - 1].primitive}


def wandering_verdict(
    phi: Polynomial,
    alpha: Coefficient,
    probe: int = 32,
    tol: float = 1e-3,
) -> str:
    """Classify alpha as 'wandering', 'preperiodic', or 'unknown'.

    A repeated value within the probe window is an exact preperiodic verdict.
    Two exact wandering verdicts cut the probe short: an orbit value beyond
    the escape radius (the absolute value then grows strictly forever), or a
    Weil height above the comparison bound (preperiodic orbit values all have
    canonical height 0, hence Weil height at most that bound).  Otherwise a
    positive canonical-height estimate net of its error bound decides, and
    failing that the verdict is unknown.
    """
    if phi.degree < 2:
        raise ValueError("wandering_verdict requires degree >= 2")
    model = IntegerModel(phi)
    height_ceiling = height_comparison_bound(phi) + 1.0

    try:
        for a, b in model.orbit(alpha, max(1, probe), track=True):
            if model.escapes(a, b) or weil_height(a, b) > height_ceiling:
                return "wandering"
    except PreperiodicPoint:
        return "preperiodic"
    est = canonical_height(phi, alpha, tol)
    if est.value - est.error_bound > 0:
        return "wandering"
    return "unknown"


# ---------------------------------------------------------------------------
# Explicit bound on the size of the Zsigmondy set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundInputs:
    """Parameters of the explicit bound.

    comparison_bound plays the role of the height-comparison constant for the
    centered map; gamma is the non-constructive local-distance constant and
    must be supplied by the caller (it depends only on the degree over Q).
    """

    d: int
    h_reversed: float
    hhat0: float
    comparison_bound: float
    gamma: float
    s_size: int

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("bound requires degree >= 3")
        if not (self.hhat0 > 0):
            raise ValueError("bound requires a positive canonical height at 0")
        if self.h_reversed < 0:
            raise ValueError("htilde must be >= 0")
        if self.comparison_bound < 0:
            raise ValueError("comparison bound must be >= 0")
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if self.s_size < 1:
            raise ValueError("s_size must be >= 1")
        for v in (self.h_reversed, self.hhat0, self.comparison_bound, self.gamma):
            if not math.isfinite(v):
                raise ValueError("bound inputs must be finite")
        # the float steps of zsigmondy_bound that can overflow
        if 2 * self.s_size >= sys.float_info.max_exp:
            raise ValueError("s_size too large: 4^s_size overflows a float")
        if not math.isfinite(8.0 * self.comparison_bound / self.hhat0):
            raise ValueError("B / hhat0 too large: the startup threshold overflows")
        try:
            float(3 * self.d - 7)
        except OverflowError:
            raise ValueError("d too large: 3d - 7 overflows a float") from None


@dataclass(frozen=True)
class BoundBreakdown:
    """The four summands of the explicit bound and the two index sets that
    can be enumerated exactly; total is their sum."""

    startup_term: float
    history_term: float
    proximity_gamma_term: float
    proximity_log_term: float
    total: float
    startup_set: frozenset[int]
    history_set: frozenset[int]
    history_scan_limit: int
    startup_zero_predicate: bool
    history_zero_predicate: bool


def startup_threshold(d: int, comparison_bound: float, hhat0: float) -> float:
    """log_d max(1, 8 B / hhat0): indices at or below it form the startup set."""
    if d < 2 or hhat0 <= 0:
        raise ValueError("need d >= 2 and hhat0 > 0")
    ratio = 8.0 * comparison_bound / hhat0
    if ratio <= 1.0:
        return 0.0
    return math.log(ratio) / math.log(d)


def startup_predicate(d: int, comparison_bound: float, hhat0: float, n: int) -> bool:
    return n <= startup_threshold(d, comparison_bound, hhat0)


def startup_indices(d: int, comparison_bound: float, hhat0: float) -> frozenset[int]:
    """All n >= 1 with n <= the startup threshold, enumerated exactly."""
    return frozenset(range(1, math.floor(startup_threshold(d, comparison_bound, hhat0)) + 1))


def history_predicate(d: int, comparison_bound: float, hhat0: float, n: int) -> bool:
    """True when the worst-case size of terms 1..n-1 is not yet dominated by
    3/4 of the canonical growth of term n."""
    if d < 3 or hhat0 <= 0:
        raise ValueError("need d >= 3 and hhat0 > 0")
    decay = float(d) ** (1 - n)  # underflows to 0.0 for large n, harmlessly
    lhs = (n - 1) * comparison_bound * decay / d + hhat0 * (1.0 - decay) / (d - 1)
    return lhs >= 0.75 * hhat0


def history_cardinality_bound(d: int, comparison_bound: float, hhat0: float) -> float:
    """Closed-form cap on how many indices can satisfy the history predicate."""
    if d < 3 or hhat0 <= 0:
        raise ValueError("need d >= 3 and hhat0 > 0")
    return 1.0 + 8.0 * comparison_bound / ((3 * d - 7) * hhat0)


def history_indices(
    d: int, comparison_bound: float, hhat0: float, n_max: int
) -> frozenset[int]:
    """Exact membership scan of the history predicate over 1 <= n <= n_max.

    Warns if the predicate still holds at n_max, i.e. the window truncated
    the set."""
    members = frozenset(
        n for n in range(1, n_max + 1) if history_predicate(d, comparison_bound, hhat0, n)
    )
    if n_max >= 1 and history_predicate(d, comparison_bound, hhat0, n_max):
        warnings.warn(
            f"history predicate still holds at n_max={n_max}; scan window too small",
            stacklevel=2,
        )
    return members


def _history_window(d: int, comparison_bound: float, hhat0: float) -> int:
    """A scan limit provably past the last history-predicate member.

    For n >= 2 the predicate forces (n-1) d^(1-n) >= d*hhat0/(4B), whose left
    side is decreasing in n, so the first n where it fails bounds the set.
    """
    if comparison_bound == 0:
        return 8
    window = 8
    bar = d * hhat0 / (4.0 * comparison_bound)
    while (window - 1) * float(d) ** (1 - window) >= bar and window < (1 << 22):
        window *= 2
    return window


def zsigmondy_bound(inputs: BoundInputs) -> BoundBreakdown:
    """Evaluate the explicit bound on the Zsigmondy-set size.

    total = startup + history + gamma proximity + reversed-height proximity,
    with the startup and history index sets enumerated exactly alongside.
    """
    d = inputs.d
    B = inputs.comparison_bound
    h0 = inputs.hhat0
    startup_term = startup_threshold(d, B, h0)
    history_term = history_cardinality_bound(d, B, h0)
    proximity_gamma_term = (4.0**inputs.s_size) * inputs.gamma
    proximity_log_term = math.log(inputs.h_reversed / h0 + 1.0) / math.log(d)
    total = startup_term + history_term + proximity_gamma_term + proximity_log_term

    window = _history_window(d, B, h0)
    return BoundBreakdown(
        startup_term=startup_term,
        history_term=history_term,
        proximity_gamma_term=proximity_gamma_term,
        proximity_log_term=proximity_log_term,
        total=total,
        startup_set=startup_indices(d, B, h0),
        history_set=history_indices(d, B, h0, window),
        history_scan_limit=window,
        startup_zero_predicate=startup_predicate(d, B, h0, 0),
        history_zero_predicate=history_predicate(d, B, h0, 0),
    )


# ---------------------------------------------------------------------------
# Per-index inequality checks on computed sequences
# ---------------------------------------------------------------------------


def _close_approach_band(seq: OrbitSequence, n: int, places: PlaceSet, hhat0: HeightEstimate):
    """The local log-distance sum at index n, and d^n * hhat0 / 8 at both ends of its error band."""
    rec = seq.record(n)
    lam = sum_local_at_zero(rec.sign * rec.ideal.A, rec.ideal.B, places)
    low = (hhat0.value - hhat0.error_bound) * seq.degree**n / 8.0
    return lam, low, (hhat0.value + hhat0.error_bound) * seq.degree**n / 8.0


def is_close_approach(seq: OrbitSequence, n: int, places: PlaceSet, hhat0: HeightEstimate) -> bool:
    """True when the local log-distance sum to the starting point at the given
    places reaches 1/8 of the canonical growth d^n * hhat0.

    Comparisons near the boundary use the estimate's error bound pessimistically,
    so an ambiguous index is reported as a close approach (see
    close_approach_ambiguous to detect that case)."""
    lam, low, _ = _close_approach_band(seq, n, places, hhat0)
    return lam >= low


def close_approach_ambiguous(seq: OrbitSequence, n: int, places: PlaceSet, hhat0: HeightEstimate) -> bool:
    """True when the close-approach comparison falls inside the error band."""
    lam, low, high = _close_approach_band(seq, n, places, hhat0)
    return low <= lam < high


def check_term_upper_bound(seq: OrbitSequence, n: int, comparison_bound: float, hhat0: HeightEstimate) -> bool:
    """Check log A_n <= d^n * hhat0 + B, with the height estimate's error bound
    applied in the direction that avoids spurious failures."""
    rec = seq.record(n)
    rhs = seq.degree**n * (hhat0.value + hhat0.error_bound) + comparison_bound
    return log_int(rec.ideal.A) <= rhs + 1e-12 * max(1.0, abs(rhs))


def check_term_lower_bound(
    seq: OrbitSequence,
    n: int,
    places: PlaceSet,
    comparison_bound: float,
    hhat0: HeightEstimate,
) -> bool:
    """Check (3/4) * hhat0 * d^n < log of the prime-to-S norm of A_n for
    indices outside the startup set and the empirical close-approach set.

    Close-approach indices are excluded by their exact empirical test, which
    keeps the check independent of the non-constructive gamma constant.
    """
    h_low = max(hhat0.value - hhat0.error_bound, 1e-15)
    if startup_predicate(seq.degree, comparison_bound, h_low, n):
        return True
    if is_close_approach(seq, n, places, hhat0):
        return True
    rec = seq.record(n)
    norm = prime_to_s_norm(rec.ideal.A, places)
    lhs = 0.75 * h_low * seq.degree**n
    return lhs < log_int(norm) + 1e-12 * max(1.0, lhs)


# ---------------------------------------------------------------------------
# Powerful polynomials and the product family
# ---------------------------------------------------------------------------


def denominator_place_set(factors: list[Polynomial]) -> PlaceSet:
    """The archimedean place plus every prime dividing a coefficient
    denominator of any factor; just the archimedean place for integer
    coefficients."""
    if not factors:
        raise ValueError("need at least one factor")
    primes: set[int] = set()
    for f in factors:
        for c in f.coeffs:
            den = c.denominator
            if den > 1:
                fac = factor(den)
                if not fac.complete:
                    raise ValueError(f"cannot fully factor coefficient denominator {den}")
                primes.update(fac.factors)
    return PlaceSet.from_primes(primes)


@dataclass(frozen=True)
class FamilyFactor:
    """One factor (z * inner(z) + offset)^exponent of the product family."""

    inner: Polynomial
    offset: int
    exponent: int

    def base(self) -> Polynomial:
        return Polynomial.identity() * self.inner + Polynomial.constant(self.offset)


@dataclass(frozen=True)
class FamilySpec:
    factors: tuple[FamilyFactor, ...]

    @property
    def m(self) -> int:
        return len(self.factors)

    def offsets(self) -> tuple[int, ...]:
        return tuple(f.offset for f in self.factors)


def _has_integer_root(f: Polynomial) -> bool:
    """Exact integer-root test: candidates are divisors of the constant term."""
    if f.is_zero:
        return True
    if any(c.denominator != 1 for c in f.coeffs):
        return False  # non-integer coefficients are rejected separately
    if f.degree == 0:
        return False
    c0 = f(0)
    if c0 == 0:
        return True
    c0 = abs(int(c0))
    fac = factor(c0)
    if not fac.complete:
        raise ValueError(f"cannot enumerate divisors of constant term {c0}")
    divisors = [1]
    for p, e in fac.factors.items():
        divisors = [dv * p**k for dv in divisors for k in range(e + 1)]
    return any(f(dv) == 0 or f(-dv) == 0 for dv in divisors)


def family_build(spec: FamilySpec) -> Polynomial:
    """Validate the product-family hypotheses and return the expanded map.

    Raises HypothesisViolated naming the failed condition: fewer than two
    factors, an exponent below 2, every offset of absolute value <= 1, a
    factor with non-integer coefficients, or a factor with an integer root.
    """
    if spec.m < 2:
        raise HypothesisViolated("m < 2", "the family needs at least two factors")
    for i, fct in enumerate(spec.factors, 1):
        if fct.exponent < 2:
            raise HypothesisViolated(
                f"exponent e_{i} < 2", f"factor {i} has exponent {fct.exponent}"
            )
        if any(c.denominator != 1 for c in fct.inner.coeffs):
            raise HypothesisViolated(
                f"f_{i} not integral", f"factor {i} has non-integer coefficients"
            )
        if _has_integer_root(fct.inner):
            raise HypothesisViolated(
                f"f_{i} has an integer root", f"factor {i} admits an integer root"
            )
    if all(abs(fct.offset) <= 1 for fct in spec.factors):
        raise HypothesisViolated(
            "all |a_i| <= 1", "some offset must have absolute value >= 2"
        )
    result = Polynomial.one()
    for fct in spec.factors:
        result = result * fct.base() ** fct.exponent
    return result


def fixed_or_wandering(spec: FamilySpec) -> str:
    """'fixed' iff the map of the (validated) spec fixes 0, i.e. some offset
    is zero; 'wandering' otherwise."""
    return "fixed" if any(a == 0 for a in spec.offsets()) else "wandering"


@dataclass
class GrowthReport:
    """Outcome of the doubling-growth and exponent-floor checks on the orbit
    of 0 under a product-family map."""

    passed: bool
    square_growth_ok: bool
    exponent_floor_ok: bool
    first_term: int
    orbit_digits: list[int]
    exponent_floors: list[Fraction]

    def __bool__(self) -> bool:
        return self.passed


def growth_check(spec: FamilySpec, orbit: list[int]) -> GrowthReport:
    """Verify |phi^n(0)| > |phi^(n-1)(0)|^2 for 2 <= n <= N with
    |phi(0)|^2 >= 4, and the exponent floor |phi^n(0)| >= max|a_j|^alpha_n
    with alpha_n = (2^n (m-1) m^(n-1) + 2m) / (2m - 1), all in exact integers.

    orbit holds phi^n(0) for n = 1..N, phi = family_build(spec): the
    numerators of the engine's pairs, as the map has integer coefficients.
    phi(0) is the product of the offsets' powers, so it is 0 iff 0 is fixed.
    """
    N = len(orbit)
    if N < 1:
        raise ValueError("growth_check requires N >= 1")
    if orbit[0] == 0:
        raise HypothesisViolated("0 is fixed", "growth requires 0 to wander")
    m = spec.m
    biggest_offset = max(abs(a) for a in spec.offsets())

    square_ok = orbit[0] ** 2 >= 4 and all(abs(orbit[n - 1]) > orbit[n - 2] ** 2 for n in range(2, N + 1))

    floors: list[Fraction] = []
    floor_ok = True
    for n in range(1, N + 1):
        exp_num = 2**n * (m - 1) * m ** (n - 1) + 2 * m
        floors.append(Fraction(exp_num, 2 * m - 1))
        if abs(orbit[n - 1]) ** (2 * m - 1) < biggest_offset**exp_num:
            floor_ok = False

    digits = [len(str(abs(v))) if v.bit_length() < 10_000 else _approx_digits(v) for v in orbit]
    return GrowthReport(
        passed=square_ok and floor_ok,
        square_growth_ok=square_ok,
        exponent_floor_ok=floor_ok,
        first_term=orbit[0],
        orbit_digits=digits,
        exponent_floors=floors,
    )


def _approx_digits(n: int) -> int:
    return int(abs(n).bit_length() * 0.30102999566398120) + 1


@dataclass(frozen=True)
class StabilityFailure:
    kind: str  # "valuation", "derivative", "denominator"
    prime: int
    index: int
    expected: int
    got: int


@dataclass
class ValuationStabilityReport:
    """Per-prime rank-of-apparition structure of the orbit numerators.

    ranks maps each discovered prime outside S to its first index of
    appearance; failures lists every index where the valuation pattern or
    the derivative-power divisibility breaks; untested_cofactors are
    composite leftovers the factoring budget could not split."""

    terms_checked: int
    ranks: dict[int, int]
    failures: list[StabilityFailure]
    untested_cofactors: list[int]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def valuation_stability_check(
    phi: Polynomial,
    S: PlaceSet,
    values: list[tuple[int, int]],
    budget: FactorBudget = DEFAULT_BUDGET,
    cache: Optional["FactorCache"] = None,
) -> ValuationStabilityReport:
    """For every prime p outside S exposed by budget-limited factorization of
    the orbit numerators: verify the valuation is constant along multiples of
    the rank r, zero off multiples of r, and that the rank term divides the
    E-th power of the derivative at the previous orbit value (E = the largest
    multiplicity in the squarefree decomposition).

    values holds phi^n(0) for n = 1..N as coprime pairs (a, b), b > 0, as
    IntegerModel(phi).orbit(0, N, track=True) yields them.

    Failures are listed, never raised; primes hidden in unfactored cofactors
    are reported as untested.
    """
    if phi.is_zero or not is_powerful(decomposition := squarefree_decomposition(phi)):
        raise HypothesisViolated("map is not powerful")
    E = max(mult for _, mult in decomposition)
    N = len(values)

    failures: list[StabilityFailure] = []
    for n, (_, b) in enumerate(values, 1):
        # denominators must be supported inside S
        den = prime_to_s_norm(b, S)
        if den != 1:
            failures.append(StabilityFailure("denominator", 0, n, 1, den))

    vals, untested = valuation_table([abs(a) for a, _ in values], S, budget, cache)
    ranks: dict[int, int] = {}
    for p, v in vals.items():
        r = next(n for n in range(1, N + 1) if v[n - 1] > 0)
        ranks[p] = r
        for n in range(1, N + 1):
            expected = v[r - 1] if n % r == 0 else 0
            if v[n - 1] != expected:
                failures.append(StabilityFailure("valuation", p, n, expected, v[n - 1]))

    # every term must divide the E-th derivative power at its predecessor in
    # S-integers: away from S, the reduced quotient dphi(x_(r-1))^E / x_r may
    # keep no denominator primes.  Exact and factorization-free, so it covers
    # every index as a potential rank, including primes the budget never
    # exposed.  On integers: with dphi(x_(r-1)) = P/Q and x_r = +-A/B reduced,
    # the quotient is P^E B / (Q^E A); at each prime one of v(P), v(Q) and one
    # of v(A), v(B) is 0, so its reduced denominator is
    # Q^E/gcd(Q^E, B) * A/gcd(A, P^E).  Dropping the primes of S commutes with
    # both factors, hence the prime-to-S parts Qs, As below; the big gcd of As
    # and P^E mod As is paid only when As does not divide P^E.
    dphi = IntegerModel(phi.derivative())
    for r, (prev, (a, b)) in enumerate(zip([(0, 1)] + values, values), 1):
        P, Q = dphi(*prev)
        if P == 0:
            continue  # zero is divisible by everything
        qs_e = prime_to_s_norm(Q, S) ** E
        As = prime_to_s_norm(abs(a), S)
        residue = qs_e // math.gcd(qs_e, b) * (As // math.gcd(As, pow(P, E, As)))
        if residue != 1:
            failures.append(StabilityFailure("derivative", 0, r, 1, residue))

    return ValuationStabilityReport(
        terms_checked=N,
        ranks=ranks,
        failures=failures,
        untested_cofactors=untested,
    )
