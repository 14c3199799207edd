"""Budgeted integer factorization, valuations, primitive parts, and the
rigid-divisibility verifier.

Factorization never fails: one pass of chunked-gcd trial division, then
Miller-Rabin and Pollard-Brent, and whatever the budget cannot split is
carried as a composite cofactor.  valuation_table turns the factorizations of
a sequence into the prime/valuation table that rigid_check and the valuation
stability check share; both treat the cofactors as untested rather than as
passes.  Primitive/non-primitive part extraction is pure gcd-stripping and
needs no factorization at all, so it works on terms with hundreds of
thousands of digits.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, log10, prod
from operator import mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .ratfield import _LOG10_2

if TYPE_CHECKING:
    from .cli import FactorCache
    from .heights import PlaceSet

# Deterministic Miller-Rabin witness set: proves primality below
# 3,317,044,064,679,887,385,961,981; above that the same witnesses plus the
# primes up to 100 give a fixed, documented probabilistic test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < _MR_DETERMINISTIC_LIMIT else _MR_BASES + _MR_EXTRA_BASES
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_CHUNK = 1024


@lru_cache(maxsize=8)
def _prime_chunks(bound: int) -> tuple[tuple[Sequence[int], int], ...]:
    """Primes below bound (just 2 when bound is 2) grouped into chunks with
    their products, for gcd-based trial division.  The sieve holds the odd
    numbers only, bound/2 bytes.  array("I") holds the primes, 4 bytes each
    where a tuple of ints takes 36: 0.3 MB, not 3 MB, at 10^6; the CLI caps
    bound at 10^7 < 2^32.  Each chunk's product is a balanced product tree,
    whose multiplies pair equal-sized factors; a left-to-right product is
    quadratic in the chunk's bits."""
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound // 2)  # entry i stands for 2i + 1
    sieve[0] = 0
    for i in range(1, (isqrt(bound - 1) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytearray(len(range(p * p // 2, len(sieve), p)))
    primes = array("I", [2])
    primes.extend(compress(range(1, bound, 2), sieve))
    chunks = []
    for i in range(0, len(primes), _CHUNK):
        group = primes[i : i + _CHUNK]
        level = group.tolist()
        while len(level) > 1:  # an odd one out is carried up a level
            level = [*map(mul, level[::2], level[1::2]), *level[len(level) & ~1 :]]
        chunks.append((group, level[0]))
    return tuple(chunks)


@dataclass(frozen=True)
class FactorBudget:
    """Effort limits for factor(); results are deterministic given the seed.

    rho_digit_limit caps the size of composites handed to primality testing
    and Pollard-Brent; larger leftovers stay in the cofactor.
    """

    trial_bound: int = 1_000_000
    rho_rounds: int = 200_000
    rho_digit_limit: int = 300
    seed: int = 1


DEFAULT_BUDGET = FactorBudget()


@dataclass
class Factorization:
    """factors maps primes to exponents; cofactor is the unfactored remainder
    (1 when complete).  prod(p^e) * cofactor always reconstructs the input.
    """

    factors: dict[int, int] = field(default_factory=dict)
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def reconstruct(self) -> int:
        return prod(p**e for p, e in self.factors.items()) * self.cofactor


def decimal_digits(n: int) -> int:
    """Exact count of decimal digits of |n| without building the string.

    With bits = n.bit_length(), s = max(bits - 64, 0) and u = 2^-53, e =
    log10(n >> s) + s * log10(2) in floats is within (bits + 64) * 2^-52 of
    log10 |n| while bits < 2^53, and floor(e) + 1 is the count when e is
    farther than that from an integer.  The error terms: under 0.44u from
    rounding n >> s to a float, 2 ulp = 2^-47 from libm's log10 (taken to be
    that accurate) of a value below 20, 2^-63 from the bits shifted out,
    0.25u * s from the constant log10(2), 0.31u * s from rounding the
    product and (0.31 * bits + 20) * u from the sum: under (0.87 * bits +
    85) * u in all.  Any other n takes the exact loop below: a power of ten,
    and every n past 2^51 bits, where the margin exceeds 1/2.
    """
    n = abs(n)
    if n == 0:
        return 1
    bits = n.bit_length()
    s = bits - 64 if bits > 64 else 0
    estimate, margin = log10(n >> s) + s * _LOG10_2, (bits + 64) / 2**52
    if margin < estimate % 1 < 1 - margin:
        return int(estimate) + 1
    # exact: the estimate is the count or one more; only the first power is built by pow
    digits = int(bits * _LOG10_2) + 1
    power = 10 ** (digits - 1)
    while power > n:
        power //= 10
        digits -= 1
    while power * 10 <= n:
        power *= 10
        digits += 1
    return digits


def _brent_rho(n: int, rounds: int, seed: int) -> int:
    """Deterministic Brent-rho campaign; returns a nontrivial factor of the odd
    composite n, or 1 once the iteration budget is spent.  The differences
    x - y go in with their sign: q then differs only in sign mod n from the
    product of |x - y|, and gcd ignores the sign."""
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
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += steps
                spent += steps
            r *= 2
        if g == n:
            # the batched gcd overshot; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
        # retry with fresh parameters until the budget runs out
    return 1


def factor(
    n: int,
    budget: FactorBudget = DEFAULT_BUDGET,
    cache: Optional["FactorCache"] = None,
) -> Factorization:
    """Factor n >= 1 within the given budget.

    One pass of chunked-gcd trial division strips every prime below
    budget.trial_bound, and a remainder below trial_bound**2, which is prime;
    Miller-Rabin and Pollard-Brent then handle what is left, up to
    rho_digit_limit digits.  Budget exhaustion is expressed through the
    cofactor, never raised.  A cache is asked first and offered the result;
    it decides what it keeps.
    """
    if n < 1:
        raise ValueError("factor requires n >= 1")
    if cache is not None:
        hit = cache.get(n, budget)
        if hit is not None:
            return hit
    result = _factor_uncached(n, budget)
    if cache is not None:
        cache.store(n, result, budget)
    return result


def _trial_by_chunks(m: int, bound: int) -> tuple[dict[int, int], int]:
    """Strip every prime factor below bound from m via chunked gcds.  A
    remainder below bound**2 is then prime, so it is stripped too; the scan
    stops early once the primes scanned so far certify that."""
    found: dict[int, int] = {}
    for group, product in _prime_chunks(bound):
        g = gcd(m, product)
        if g > 1:
            for p in group:
                if g % p == 0:
                    e = 0
                    while m % p == 0:
                        e += 1
                        m //= p
                    found[p] = e
        if group[-1] * group[-1] > m:
            break
    if 1 < m < bound * bound:
        found[m] = 1
        m = 1
    return found, m


def _factor_uncached(n: int, budget: FactorBudget) -> Factorization:
    factors, rest = _trial_by_chunks(n, budget.trial_bound)
    cofactor = 1
    queue = [rest] if rest > 1 else []
    while queue:
        m = queue.pop()
        if decimal_digits(m) > budget.rho_digit_limit:
            cofactor *= m
        elif is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _brent_rho(m, budget.rho_rounds, budget.seed)
            if d == 1:
                cofactor *= m
            else:
                queue.append(d)
                queue.append(m // d)
    return Factorization(dict(sorted(factors.items())), cofactor)


@dataclass(frozen=True)
class IdealPair:
    """Coprime unsigned integer pair: numerator ideal A, denominator ideal B."""

    A: int
    B: int

    def __post_init__(self):
        if self.A < 0 or self.B < 1:
            raise ValueError("require A >= 0 and B >= 1")
        if gcd(self.A, self.B) != 1:
            raise ValueError("A and B must be coprime")

    @classmethod
    def coprime(cls, A: int, B: int) -> "IdealPair":
        """The pair (A, B) without the constructor's checks, for callers that
        already hold a coprime pair with A >= 0 and B >= 1 (such as the orbit
        engine's values); the checks' gcd is as costly as the terms are long."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "A", A)
        object.__setattr__(pair, "B", B)
        return pair


def valuation(n: int, p: int) -> int:
    """Largest e with p^e | n (n >= 1, p >= 2), in O(log e) big divisions.
    n is divided by p^(2^k) for k = 0, 1, ... up to the first K where that
    fails, which takes 2^K - 1 and leaves less than 2^K; the same powers in
    reverse then take what is left, one binary digit each.  One division by
    p per unit of e takes time quadratic in the size of a large prime power."""
    if n < 1:
        raise ValueError("valuation requires n >= 1")
    if p < 2:
        raise ValueError("valuation requires p >= 2")
    powers = []  # p^(2^k) for k = 0, 1, ...
    while True:
        q, r = divmod(n, p)
        if r:
            break
        n = q
        powers.append(p)
        p *= p
    e = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        q, r = divmod(n, powers[k])
        if not r:
            n = q
            e += 1 << k
    return e


def prime_to_s_norm(A: int, S: "PlaceSet") -> int:
    """A with every finite prime of S divided out completely."""
    if A < 1:
        raise ValueError("prime_to_s_norm requires A >= 1")
    for p in S.finite_primes:
        while A % p == 0:
            A //= p
    return A


@dataclass(frozen=True)
class PrimitiveSplit:
    """A_n = primitive_part * nonprimitive_part, where the primitive part is
    coprime to every earlier term and the non-primitive part collects the
    primes already seen."""

    primitive_part: int
    nonprimitive_part: int


def primitive_split(A_n, history: Iterable[int]) -> PrimitiveSplit:
    """Split A_n by gcd-stripping against history; no factorization needed.

    Every prime shared with history is removed at its full multiplicity,
    because repeated gcds keep extracting it until the running value is
    coprime to the sharing term.  Every prime it still shares with the term
    divides the first g, so only that gcd takes the term itself, through
    its remainder mod the history term.  So A_n may also be an integral
    Decimal under an exact context, as build_sequence's deep terms are: the
    g's multiply up to an int non-primitive part, and P keeps A_n's type.
    """
    if A_n < 1:
        raise ValueError("primitive_split requires A_n >= 1")
    current, stripped = A_n, 1
    for prior in history:
        if prior < 1:
            raise ValueError("history terms must be >= 1")
        g = gcd(int(current % prior), prior)
        while g > 1:
            current //= g
            stripped *= g
            g = gcd(int(current % g), g)
    return PrimitiveSplit(current, stripped)


def valuation_table(
    terms: list[int],
    S: "PlaceSet",
    budget: FactorBudget = DEFAULT_BUDGET,
    cache: Optional["FactorCache"] = None,
) -> tuple[dict[int, list[int]], list[int]]:
    """The valuations in every term of each prime outside S that factoring
    some term exposes, keyed in increasing order, and the sorted distinct
    cofactors the budget left unfactored.

    Valuations are read by division, so a prime exposed by one term is also
    counted in a term whose factorization kept it inside a cofactor.
    """
    skip = set(S.finite_primes)
    primes: set[int] = set()
    untested: set[int] = set()
    for term in terms:
        fac = factor(term, budget, cache)
        primes.update(p for p in fac.factors if p not in skip)
        if not fac.complete:
            untested.add(fac.cofactor)
    vals = {p: [valuation(t, p) for t in terms] for p in sorted(primes)}
    return vals, sorted(untested)


@dataclass(frozen=True)
class RigidViolation:
    condition: int  # 1 = gcd condition, 2 = constant valuation along multiples
    prime: int
    indices: tuple[int, ...]
    valuations: tuple[int, ...]


@dataclass
class RigidReport:
    verified: bool
    checked_pairs: int
    untested_primes: list[int]
    violations: list[RigidViolation]


def rigid_check(
    sequence: list[int],
    S: "PlaceSet",
    budget: FactorBudget = DEFAULT_BUDGET,
    cache: Optional["FactorCache"] = None,
) -> RigidReport:
    """Verify the rigid-divisibility conditions for every prime outside S that
    budget-limited factorization of the terms exposes.

    Condition 1: p | gcd(a_m, a_n) implies p | a_{gcd(m, n)}.
    Condition 2: ord_p(a_m) > 0 implies ord_p(a_{km}) = ord_p(a_m) for all km
    in range.  Composite cofactors left by the budget are reported as
    untested, never as passes.
    """
    if any(t < 1 for t in sequence):
        raise ValueError("rigid_check requires all terms >= 1")
    N = len(sequence)
    vals, untested = valuation_table(sequence, S, budget, cache)
    violations: list[RigidViolation] = []
    checked_pairs = 0
    for m in range(1, N + 1):
        for n in range(m + 1, N + 1):
            checked_pairs += 1
            g = gcd(m, n)
            for p, v in vals.items():
                if v[m - 1] > 0 and v[n - 1] > 0 and v[g - 1] == 0:
                    violations.append(
                        RigidViolation(1, p, (m, n, g), (v[m - 1], v[n - 1], v[g - 1]))
                    )
    for p, v in vals.items():
        for m in range(1, N + 1):
            if v[m - 1] == 0:
                continue
            for k in range(2, N // m + 1):
                if v[k * m - 1] != v[m - 1]:
                    violations.append(
                        RigidViolation(2, p, (m, k * m), (v[m - 1], v[k * m - 1]))
                    )
    return RigidReport(
        verified=not violations,
        checked_pairs=checked_pairs,
        untested_primes=untested,
        violations=violations,
    )

