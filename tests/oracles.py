"""Test-only oracles: direct definitions that the package no longer needs,
kept as references for the tests that compare against them."""

import fcntl
import json
import math
import os
import random
import sys
from array import array
from dataclasses import asdict
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm, prod
from typing import Optional, Union

from dynzsig.divisibility import (
    _CHUNK,
    FactorBudget,
    Factorization,
    IdealPair,
    PrimitiveSplit,
    prime_to_s_norm,
    primitive_split,
    valuation,
)
from dynzsig.heights import Place, PlaceSet, log_int
from dynzsig.ratfield import Coefficient, Polynomial, as_rational, poly_gcd


def ideal_pair(x: Fraction | int | str) -> "IdealPair":
    """Numerator/denominator ideal pair (|num|, den) of x in lowest terms."""
    x = Fraction(x)
    return IdealPair(abs(x.numerator), x.denominator)


def prime_chunks(bound: int) -> tuple[tuple[array, int], ...]:
    """The trial-division table built directly: a sieve over every integer
    below bound, the primes in one array("L"), and a left-to-right product per
    chunk of _CHUNK primes.  Bound 2 gives the chunk (2,), as in the package."""
    if bound < 3:
        return ((array("L", [2]), 2),) if bound == 2 else ()
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound, p)))
    primes = array("L", compress(range(bound), sieve))
    return tuple(
        (group, prod(group))
        for group in (primes[i : i + _CHUNK] for i in range(0, len(primes), _CHUNK))
    )


def primitive_split_by_terms(A_n: int, history) -> PrimitiveSplit:
    """primitive_split with every gcd taken against the history term itself,
    not against the previous gcd."""
    current = A_n
    for prior in history:
        g = gcd(current, prior)
        while g > 1:
            current //= g
            g = gcd(current, prior)
    return PrimitiveSplit(current, A_n // current)


def rational_height(x: Coefficient) -> float:
    """h(x) = log max(|numerator|, denominator) of x in lowest terms."""
    x = as_rational(x)
    return log_int(max(abs(x.numerator), x.denominator))


class RationalMap:
    """Quotient of two coprime polynomials over Q.

    Stored reduced and normalized: the joint coefficient vector of numerator
    and denominator is scaled to coprime integers with the denominator's
    leading coefficient positive, so equality is structural and the
    projective coefficient height can be read off directly.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial = Polynomial((1,))):
        if denominator.is_zero:
            raise ValueError("rational map denominator is zero")
        if not numerator.is_zero:
            g = poly_gcd(numerator, denominator)
            if g.degree >= 1:
                numerator = numerator // g
                denominator = denominator // g
        scale = _primitive_scale(numerator.coeffs + denominator.coeffs)
        if denominator.lead * scale < 0:
            scale = -scale
        object.__setattr__(self, "numerator", Polynomial(tuple(c * scale for c in numerator.coeffs)))
        object.__setattr__(self, "denominator", Polynomial(tuple(c * scale for c in denominator.coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMap is immutable")

    @property
    def degree(self) -> int:
        return max(self.numerator.degree, self.denominator.degree)

    def integer_coefficients(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Jointly primitive integer coefficient vectors (numerator, denominator)."""
        num = tuple(int(c) for c in self.numerator.coeffs)
        den = tuple(int(c) for c in self.denominator.coeffs)
        return num, den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        return f"RationalMap({self.numerator!r}, {self.denominator!r})"

    def __str__(self) -> str:
        return f"({self.numerator}) / ({self.denominator})"


def _primitive_scale(coeffs: tuple[Fraction, ...]) -> Fraction:
    """Rational t > 0 making t*coeffs a coprime integer vector."""
    den_lcm = lcm(*(c.denominator for c in coeffs))
    g = gcd(*(int(c * den_lcm) for c in coeffs))
    return Fraction(den_lcm, g if g else 1)


def reverse_map(psi: Polynomial) -> RationalMap:
    """Conjugate psi by z -> 1/z: returns z^d / rev(psi) with
    rev(psi)(z) = z^d * psi(1/z), reduced to coprime numerator/denominator.
    """
    d = psi.degree
    if d < 1:
        raise ValueError("reverse_map requires degree >= 1")
    reversed_coeffs = tuple(reversed(psi.coeffs))
    return RationalMap(monomial(1, d), Polynomial(reversed_coeffs))


def rational_map_height(phi: Union[RationalMap, Polynomial]) -> float:
    """Projective coefficient height: clear denominators of numerator and
    denominator jointly to a coprime integer vector, return log max |entry|.
    """
    if isinstance(phi, Polynomial):
        phi = RationalMap(phi)
    num, den = phi.integer_coefficients()
    return log_int(max(abs(c) for c in num + den))


def fraction_product(f: Polynomial, g: Polynomial) -> Polynomial:
    """f * g by one normalizing Fraction multiply and add per pair of
    coefficients, as Polynomial multiplied before its products ran on
    integer vectors."""
    if f.is_zero or g.is_zero:
        return Polynomial.zero()
    out = [Fraction(0)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


def fraction_power(f: Polynomial, n: int) -> Polynomial:
    """f ** n as n products by fraction_product."""
    result = Polynomial.one()
    for _ in range(n):
        result = fraction_product(result, f)
    return result


def fraction_compose(f: Polynomial, inner: Polynomial) -> Polynomial:
    """f(inner(z)) by Horner's rule on fraction_product."""
    acc = Polynomial.zero()
    for c in reversed(f.coeffs):
        acc = fraction_product(acc, inner) + Polynomial.constant(c)
    return acc


def monomial(c: Coefficient, k: int) -> Polynomial:
    """The polynomial c * z^k."""
    return Polynomial((0,) * k + (c,))


def nonprimitive_bound_check(n: int, splits: list[PrimitiveSplit], S: PlaceSet) -> bool:
    """Exact check that the prime-to-S norm of the non-primitive part of term n
    is at most that of the product of primitive parts over proper divisors."""
    if n < 2:
        raise ValueError("nonprimitive_bound_check requires n >= 2")
    if len(splits) < n:
        raise ValueError("splits for indices 1..n are required")
    lhs = prime_to_s_norm(splits[n - 1].nonprimitive_part, S)
    product = prod(splits[i - 1].primitive_part for i in range(1, n) if n % i == 0)
    return lhs <= prime_to_s_norm(product, S)


def has_primitive_divisor(A_n: int, history) -> bool:
    """True iff some prime of A_n divides no earlier term."""
    return primitive_split(A_n, history).primitive_part > 1


def valuation_by_division(n: int, p: int) -> Union[int, float]:
    """v_p(n) by dividing by p one step at a time, as the package's
    valuation did; +inf at n = 0."""
    if n == 0:
        return math.inf
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def chordal_log_distance(P: tuple[int, int], Q: tuple[int, int], v: Place) -> float:
    """-log of the v-adic chordal distance between the points a1/b1 and a2/b2
    of P = (a1, b1) and Q = (a2, b2), pairs that need be neither coprime nor
    signed, with (a, 0) the point at infinity:

        |a1 b2 - a2 b1|_v / (||(a1, b1)||_v ||(a2, b2)||_v),

    the Euclidean norm at infinity and the max norm at p.  +inf iff P = Q.
    Logs of the integers themselves, so huge pairs do not underflow.
    """
    (a1, b1), (a2, b2) = P, Q
    cross = a1 * b2 - a2 * b1
    if cross == 0:
        return math.inf
    if v.is_archimedean:
        return 0.5 * math.log(a1 * a1 + b1 * b1) + 0.5 * math.log(a2 * a2 + b2 * b2) - math.log(abs(cross))
    p, vp = v.prime, valuation_by_division
    return (vp(cross, p) - min(vp(a1, p), vp(b1, p)) - min(vp(a2, p), vp(b2, p))) * math.log(p)


def chordal_metric(P: tuple[int, int], Q: tuple[int, int], v: Place) -> float:
    """The v-adic chordal distance itself; symmetric, in [0, 1], zero iff
    P = Q.  It underflows to 0 below about 1e-308."""
    return math.exp(-chordal_log_distance(P, Q, v))


def brent_rho(n: int, rounds: int, seed: int) -> int:
    """Brent-rho as the package ran it with abs() around each difference:
    the same campaign, so the same factor or 1."""
    rng = random.Random(f"{seed}:{n % (1 << 64)}")
    spent = 0
    while spent < rounds:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < rounds:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            spent += r
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += steps
                spent += steps
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return 1


class EagerFactorCache:
    """dynzsig.cli.FactorCache as it loaded before lookups converted lines:
    every composite is converted with int() when the cache opens, and a
    lookup's budget tag is built on every call.  The file format, the
    warnings and the answers are the package's."""

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[tuple[int, Optional[str]], Factorization] = {}
        self.warnings: list[str] = []
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                    text, pairs, complete = raw["composite"], raw["factors"], raw["complete"]
                    if (not complete and "budget" not in raw) or 0 < limit < len(text):
                        continue
                    composite = int(text)
                    fact = Factorization({int(p): int(e) for p, e in pairs})
                    if any(p < 2 or e < 1 for p, e in fact.factors.items()):
                        raise ValueError("a factor below 2 or an exponent below 1")
                    if complete:
                        if fact.reconstruct() != composite:
                            raise ValueError("reconstruction mismatch")
                        tag = None
                    else:
                        fact.cofactor, rest = divmod(composite, fact.reconstruct())
                        if rest or fact.cofactor < 2:
                            raise ValueError("the factors leave no cofactor above 1")
                        tag = json.dumps(raw["budget"], sort_keys=True)
                except (KeyError, ValueError, TypeError) as exc:
                    self.warnings.append(f"cache line {lineno} skipped: {exc}")
                    continue
                self.entries.setdefault((composite, tag), fact)

    def get(self, n: int, budget: FactorBudget) -> Optional[Factorization]:
        hit = self.entries.get((n, None)) or self.entries.get((n, json.dumps(asdict(budget), sort_keys=True)))
        return None if hit is None else Factorization(dict(hit.factors), hit.cofactor)

    def store(self, n: int, fact: Factorization, budget: FactorBudget) -> None:
        budget_fields = None if fact.complete else asdict(budget)
        key = (n, None if budget_fields is None else json.dumps(budget_fields, sort_keys=True))
        if (n, None) in self.entries or key in self.entries:
            return
        self.entries[key] = Factorization(dict(fact.factors), fact.cofactor)
        record = {
            "composite": str(n),
            "factors": [[str(p), e] for p, e in sorted(fact.factors.items())],
            "complete": fact.complete,
        }
        if budget_fields is not None:
            record["budget"] = budget_fields
        with open(self.path, "a", encoding="utf-8") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.write(json.dumps(record, sort_keys=True) + "\n")
