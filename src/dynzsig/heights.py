"""Weil heights, local log-distances from the chordal metric, and canonical
heights with certified error bounds, specialized to Q (every local degree 1).

All heights are natural-log based.  Logs of big integers go through one
uniform primitive, log_int, which uses the top 53-bit window of the integer
plus a bit-length shift and is good to better than 12 significant digits for
every size this package produces.

The canonical height is h(phi^N(P)) / d^N on the exact orbit, iterated by the
one orbit engine, ratfield.IntegerModel, on coprime pairs (a, b): since
F(a, b) = f_d a^d (mod b) for phi = F(X, Y) / (L Y^d), gcds with the small
k = L |f_d| alone reduce each step, and h(a/b) = log max(|a|, b).

Every point is such a pair, a signed and b > 0 in lowest terms.  Once an
orbit is centered its starting point is 0, so local log-distances run from
a/b to 0.

The same model gives the map's height: the coprime integer vector
(f_0, ..., f_d, L) is phi's coefficient vector, so h(phi) = log max of its
entries.  Conjugating by z -> 1/z reverses the coefficients and only permutes
that vector, so the reversed map has the same height (Silverman, The
Arithmetic of Dynamical Systems, GTM 241).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .divisibility import is_probable_prime, valuation
from .ratfield import Coefficient, Polynomial, as_rational
from .ratfield import DigitBudgetExceeded, IntegerModel

_LN2 = math.log(2)

# Error bounds carry a small additive pad for float rounding in the log
# primitive, so "value +/- error_bound" stays an honest enclosure.
_FLOAT_SLACK = 4e-16


def log_int(n: int) -> float:
    """Natural log of a positive integer of any size."""
    if n <= 0:
        raise ValueError("log_int requires n > 0")
    bits = n.bit_length()
    if bits <= 53:
        return math.log(n)
    shift = bits - 53
    return shift * _LN2 + math.log(n >> shift)


@dataclass(frozen=True)
class Place:
    """A place of Q: archimedean when prime is None, else the p-adic place."""

    prime: Optional[int] = None

    def __post_init__(self):
        if self.prime is not None:
            if self.prime < 2 or not is_probable_prime(self.prime):
                raise ValueError(f"{self.prime} is not prime")

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


ARCHIMEDEAN = Place()


class PlaceSet:
    """Finite ordered set of places, always containing the archimedean one."""

    __slots__ = ("places",)

    def __init__(self, places: Iterable[Place] = ()):
        finite = {pl.prime: pl for pl in places if pl.prime is not None}
        object.__setattr__(self, "places", (ARCHIMEDEAN, *(finite[p] for p in sorted(finite))))

    def __setattr__(self, name, value):
        raise AttributeError("PlaceSet is immutable")

    @classmethod
    def from_primes(cls, primes: Iterable[int] = ()) -> "PlaceSet":
        return cls(Place(p) for p in dict.fromkeys(primes))

    @property
    def finite_primes(self) -> tuple[int, ...]:
        return tuple(pl.prime for pl in self.places if pl.prime is not None)

    def __iter__(self):
        return iter(self.places)

    def __len__(self) -> int:
        return len(self.places)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaceSet):
            return NotImplemented
        return self.places == other.places

    def __hash__(self) -> int:
        return hash(self.places)

    def __repr__(self) -> str:
        return f"PlaceSet.from_primes({list(self.finite_primes)!r})"


@dataclass(frozen=True)
class HeightEstimate:
    """Canonical-height estimate with a certified error bound.

    truncated marks estimates cut short by the digit budget; their
    error_bound is correspondingly larger than the requested tolerance.
    """

    value: float
    error_bound: float
    truncated: bool = False
    iterations: int = 0

    def __post_init__(self):
        if self.error_bound < 0 or not math.isfinite(self.value):
            raise ValueError("need finite value and error_bound >= 0")


def weil_height(a: int, b: int) -> float:
    """h(a/b) = log max(|a|, b) for a coprime pair with b > 0; always >= 0."""
    return log_int(max(abs(a), b))


def map_height(phi: Polynomial) -> float:
    """Projective coefficient height log max(L, |f_0|, ..., |f_d|), read off
    the integer vector (L, [f_i = L c_i]) of Polynomial.integer_vector.

    The vector (f_0, ..., f_d, L) is already coprime: for p^e exactly
    dividing L, the coefficient whose denominator carries p^e gives an f_i
    prime to p.  A constant map's vector is its value's, and the zero map
    has height 0.
    """
    scale, coeffs = phi.integer_vector()
    return log_int(max([scale, *map(abs, coeffs)]))


def local_log_distance(a: int, b: int, v: Place) -> float:
    """-log of the v-adic chordal distance from a/b to 0, for a coprime pair
    with b > 0: 0.5 log(a^2 + b^2) - log|a| at infinity, v_p(a) log p at p.
    Taken from logs, so huge pairs neither overflow nor underflow; +inf at
    a = 0."""
    if a == 0:
        return math.inf
    if v.is_archimedean:
        return 0.5 * log_int(a * a + b * b) - log_int(abs(a))
    return valuation(abs(a), v.prime) * math.log(v.prime)


def sum_local_at_zero(a: int, b: int, places: PlaceSet) -> float:
    """Sum of local log-distances from a/b to 0 over the places."""
    return sum(local_log_distance(a, b, v) for v in places)


def height_comparison_bound(phi: Polynomial) -> float:
    """A finite B with |canonical height - Weil height| <= B everywhere.

    For phi = +/- z^d plain heights are exactly multiplicative along the
    orbit, so B = 0.  Otherwise B = max(C_up, C_low) / (d - 1), telescoped
    from one-step comparison constants for the integer model F = sum f_i
    X^i Y^{d-i}, G = L Y^d of phi (ratfield.IntegerModel; h = map_height(phi)
    = log max(|f_i|, L)):

        h(phi(x)) - d h(x) <=  h + log(d + 1)                  =: C_up
        d h(x) - h(phi(x)) <=  log(2d) + (2d-1)(log(d+1)/2 + h) =: C_low

    C_up is the triangle inequality on the d+1 terms of F.  C_low combines
    gcd(F(p,q), G(p,q)) | Res(F, G) with the Bezout identities
    u F + v G = Res * X^(2d-1) (and Y^(2d-1)), whose cofactor coefficients
    are Sylvester-matrix minors bounded by Hadamard's inequality.
    Deliberately conservative.
    """
    d = phi.degree
    if d < 2:
        raise ValueError("height_comparison_bound requires degree >= 2")
    if abs(phi.lead) == 1 and not any(phi.coeffs[:-1]):
        return 0.0
    h = map_height(phi)
    c_up = h + math.log(d + 1)
    c_low = math.log(2 * d) + (2 * d - 1) * (0.5 * math.log(d + 1) + h)
    return max(c_up, c_low) / (d - 1)


def canonical_height(
    phi: Polynomial,
    P: Coefficient,
    tol: float,
    *,
    digit_budget: int = 100_000,
) -> HeightEstimate:
    """Estimate the canonical height of P under phi as h(phi^N(P)) / d^N.

    N is the least iterate count with B / d^N <= tol, where B is the
    comparison bound.  If an orbit value would outgrow the digit budget first
    (IntegerModel.orbit states the exact rule), the partial estimate is
    returned with its larger certified error bound and truncated set.  The
    overflowing step is usually predicted from the engine's size lemma, not
    computed.
    """
    d = phi.degree
    if d < 2:
        raise ValueError("canonical_height requires degree >= 2")
    if tol <= 0:
        raise ValueError("tol must be positive")
    B = height_comparison_bound(phi)

    target = 0
    tail = B
    while tail > tol:
        tail /= d
        target += 1

    x = as_rational(P)
    a, b = x.numerator, x.denominator
    steps = 0
    truncated = False
    try:
        for a, b in IntegerModel(phi).orbit(x, target, digit_budget):
            steps += 1
    except DigitBudgetExceeded:
        truncated = True

    value = weil_height(a, b) / d**steps
    error = B / d**steps + _FLOAT_SLACK * (1.0 + abs(value))
    return HeightEstimate(value=value, error_bound=error, truncated=truncated, iterations=steps)
