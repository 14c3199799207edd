"""Exact arithmetic over Q: dense polynomials, projective points, and
IntegerModel, the one engine every exact orbit runs on.
Polynomial.integer_vector is the one place a map's coefficients are scaled
to integers.

Integers are plain Python ints (arbitrary precision, canonical zero) and
rationals are fractions.Fraction (always reduced, positive denominator), so
the two base number types need no wrapper classes here.  Polynomial products
and powers run on integer vectors and reduce each result coefficient once,
where a Fraction product would normalize a multiply and an add per pair of
coefficients.  Orbits run on coprime integer pairs instead, where Fraction
would run a big gcd per step; an orbit whose terms will be printed in
decimal may finish on exact decimal.Decimal pairs (IntegerModel.orbit).
"""

from __future__ import annotations

import decimal
import functools
from fractions import Fraction
from math import gcd, lcm, log2
from typing import Iterable, Iterator, Optional, Union

_LOG10_2 = 0.30102999566398120

# Decimal arithmetic on integers is exact at any size under _EXACT, or it
# raises; _LEAD truncates to the leading 19 digits
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
_LEAD = decimal.Context(prec=19, rounding=decimal.ROUND_DOWN, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

# _to_decimal converts ints of at most _LEAF_BITS directly and splits longer
# ones; an orbit printed in decimal switches to Decimal steps past it
_LEAF_BITS = 4096


@functools.cache
def _pow2(k: int) -> decimal.Decimal:
    """2 ** (_LEAF_BITS << k), shared by every conversion in the process;
    the table holds less than twice the largest integer converted."""
    if k == 0:
        return decimal.Decimal(1 << _LEAF_BITS)
    half = _pow2(k - 1)
    return _EXACT.multiply(half, half)


def _to_decimal(m: int) -> decimal.Decimal:
    """m >= 0 as an exact Decimal, in subquadratic time: m is split at the
    width w = _LEAF_BITS << k that leaves a high part below 2**w, and the
    halves are joined as lo + hi * 2**w with libmpdec's fast multiply
    (Brent-Zimmermann, Modern Computer Arithmetic, 1.7)."""
    bits = m.bit_length()
    if bits <= _LEAF_BITS:
        return decimal.Decimal(m)
    k = ((bits - 1) // _LEAF_BITS).bit_length() - 1
    w = _LEAF_BITS << k
    hi = m >> w
    lo = m - (hi << w)
    return _EXACT.add(_to_decimal(lo), _EXACT.multiply(_to_decimal(hi), _pow2(k)))


def _decimal_bit_length(x: decimal.Decimal) -> int:
    """int(x).bit_length() for an integral Decimal x >= 1, without that
    quadratic conversion.  With e = x.adjusted() >= 19 and t the leading 19
    digits, t <= x / 10^(e-18) < t + 1, so log2 x lies within 2^-59 above
    log2(t) + (e - 18) / log10(2).  In floats that estimate is off by at most
    2^-52.5 from rounding t, 2^-47 from log2 (taken to be within 1 ulp) of a
    value below 64, and 3 * (bits + 64) * 2^-53 from the constant, the
    quotient and the sum: under (bits + 64) * 2^-50 in all.  Farther than
    that from an integer, floor + 1 is the count; nearer, x is compared with
    the power of two next to it, built exactly."""
    e = x.adjusted()
    if e < 19:
        return int(x).bit_length()
    estimate = log2(int(x.scaleb(18 - e, _LEAD))) + (e - 18) / _LOG10_2
    margin = (estimate + 64) / 2**50
    if margin < estimate % 1 < 1 - margin:
        return int(estimate) + 1
    k = round(estimate)
    return k + 1 if x >= _EXACT.power(2, k) else k


Coefficient = Union[int, str, Fraction]


def as_rational(x: Coefficient) -> Fraction:
    """Coerce ints, strings like '26/5', and Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Polynomial:
    """Dense univariate polynomial over Q, coefficients from degree 0 upward.

    Immutable: coefficients are stored as a tuple of Fractions with trailing
    zeros stripped, so equality and hashing are structural.  The zero
    polynomial has degree -1.

    * and ** scale each operand once to its integer vector (D, D * coeffs),
    convolve the integers, and divide by the product of the D's (by D^n for
    a power) once per coefficient (von zur Gathen-Gerhard, Modern Computer
    Algebra, 6.2); divmod and the gcds run on Fractions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable[Coefficient] = ()):
        coeffs = [as_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def identity(cls) -> "Polynomial":
        """The polynomial z."""
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Coefficient) -> "Polynomial":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def integer_vector(self) -> tuple[int, list[int]]:
        """(D, [D * c for c in coeffs]) with D the lcm of the coefficient
        denominators: the integer vector every product and IntegerModel run on."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return den, [c.numerator * (den // c.denominator) for c in self.coeffs]

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (da, a), (db, b) = self.integer_vector(), other.integer_vector()
        return _over(_convolve(a, b), da * db)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        den, base = self.integer_vector()
        result = [1]
        for bit in bin(n)[2:]:  # left to right: square, then multiply by the base at a 1 bit
            result = _convolve(result, result)
            if bit == "1":
                result = _convolve(result, base)
        return _over(result, den**n)

    def __call__(self, x: Coefficient) -> Fraction:
        """Evaluate by Horner's rule; exact."""
        x = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Return self(inner(z)) expanded."""
        acc = Polynomial.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.constant(c)
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.lead
        return Polynomial(tuple(c / lead for c in self.coeffs))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        dlead = other.lead
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            c = rem[-1] / dlead
            q[k] = c
            for i, oc in enumerate(other.coeffs):
                rem[k + i] -= c * oc
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                zpow = "z" if k == 1 else f"z^{k}"
                body = zpow if mag == 1 else f"{mag}*{zpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials, each given
    from degree 0 upward; the empty list is the zero polynomial."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _over(numerators: list[int], den: int) -> Polynomial:
    """The polynomial with coefficients numerators[i] / den, each reduced once."""
    return Polynomial([Fraction(c, den) for c in numerators])


def _coerce(x) -> "Polynomial":
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x)
    return NotImplemented


def conjugate(phi: Polynomial, alpha: Coefficient) -> Polynomial:
    """Shift coordinates so alpha moves to the origin: phi(z + alpha) - alpha.

    The result has the same degree and satisfies, for every n,
    result^n(0) = phi^n(alpha) - alpha.
    """
    if phi.degree < 1:
        raise ValueError("conjugate requires degree >= 1")
    alpha = as_rational(alpha)
    shifted = phi.compose(Polynomial((alpha, 1)))
    return shifted - Polynomial.constant(alpha)


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over Q (gcd(f, 0) = monic f; gcd(0, 0) = 0)."""
    a, b = f, g
    while not b.is_zero:  # monic remainders keep the coefficients small (Brown 1971)
        a, b = b, (a % b).monic()
    return a.monic()


def squarefree_decomposition(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition f = c * prod q_i^{m_i} with q_i monic, squarefree,
    pairwise coprime, and multiplicities strictly increasing.

    c is f's leading coefficient; a nonzero constant is the empty product [].
    The zero polynomial raises ValueError.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no squarefree decomposition")
    f = f.monic()
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f // a
    c = df // a
    d = c - b.derivative()
    out: list[tuple[Polynomial, int]] = []
    i = 1
    while b.degree >= 1:
        a = poly_gcd(b, d)
        b = b // a
        c = d // a
        d = c - b.derivative()
        if a.degree >= 1:
            out.append((a, i))
        i += 1
    return out


def is_powerful(decomposition: list[tuple[Polynomial, int]]) -> bool:
    """True iff the squarefree decomposition of a nonconstant polynomial has
    every multiplicity at least 2: every squarefree factor divides it twice."""
    return bool(decomposition) and all(mult >= 2 for _, mult in decomposition)


class PreperiodicPoint(Exception):
    """Raised when an orbit construction finds a finite forward orbit."""

    def __init__(self, message: str, index: int, partial=None):
        super().__init__(message)
        self.index = index
        self.partial = partial


class DigitBudgetExceeded(Exception):
    """Raised when an orbit value outgrows the configured digit budget; the
    partial result built so far rides along."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class IntegerModel:
    """phi of degree d >= 1 over Q as F(X, Y) / (L * Y^d): L is the lcm of the
    coefficient denominators and F = sum f_i X^i Y^(d-i), f_i = L * c_i.
    Calling it on a coprime pair (a, b), b > 0, returns phi(a/b) as one.

    Reduction lemma: F(a, b) = f_d * a^d (mod b), so a prime dividing both
    F(a, b) and L * b^d divides L, or divides b and hence f_d (it cannot
    divide a).  Every common factor lives on the primes of the small integer
    k = L * |f_d|, and repeating t = gcd(den mod k, num mod k, k), which is
    gcd(gcd(den, k), num), until t = 1 reduces the pair without one
    big-by-big gcd.  Reading the reduction from residues mod k lets the same
    step run on ints, on exact decimal.Decimal pairs under a context that
    cannot round, as orbit's printed terms do (Decimal's % keeps the
    dividend's sign, which gcd ignores), and on residues (orbit_mod).

    Size lemma: write bits(x) = x.bit_length() and H = max(|a|, b) for the
    input and H' = max(|a'|, b') for the output (a', b') = model(a, b).  Then

        bits(H') >= d * (bits(H) - 1) - drop,
        drop = max(1 + bits(L) + d * bits(f_d), d * (1 + bits(S))),

    with S = sum_{i<d} |f_i|.  Proof, with g the gcd the loop divides out:

    - g divides gcd(F, L * b^d), which divides gcd(F, L) * gcd(F, b^d), and
      that divides L * f_d^d.  For a prime p | b (so p does not divide a),
      every term of F but f_d a^d has v_p >= v_p(b).  If v_p(b) > v_p(f_d),
      then v_p(F) = v_p(f_d); otherwise v_p(gcd(F, b^d)) <= d * v_p(b)
      <= d * v_p(f_d).  So g <= L * |f_d|^d.
    - max(|F(a, b)|, L * b^d) >= c * H^d with c = min(1/2, L * (|f_d|/2S)^d),
      and c = 1 when S = 0.  If H = b this holds as L * b^d >= H^d.  So let
      b <= |a| = H.  If |f_d| * |a| >= 2S * b, each lower term has
      |f_i a^i b^(d-i)| <= |f_i| * |a|^(d-1) * b, so |F| >= |f_d| * |a|^d
      - S * |a|^(d-1) * b >= |f_d| * |a|^d / 2 >= H^d / 2.  Otherwise S > 0
      and b > |f_d| * |a| / 2S, so L * b^d > L * (|f_d|/2S)^d * H^d.  With
      S = 0, F = f_d a^d and |F| >= H^d.
    - Hence H' >= c * H^d / (L * |f_d|^d) >= H^d / max(2 L |f_d|^d, (2S)^d),
      and log2 of that maximum is below drop, since log2 x < bits(x) for
      x >= 1, while log2 H >= bits(H) - 1.  So log2 H' > d * (bits(H) - 1)
      - drop, and bits(H') > log2 H' gives the lemma.

    orbit uses it to raise the budget stop for a step whose value cannot fit,
    without building that value.

    Evaluation: a sparse Horner scheme (Knuth, TAOCP vol. 2, 4.6.4) folds in
    each nonzero f_i, top down, as num = num * a^gap + f_i * b^(d-i), with a
    last gap down to i = 0 when f_0 = 0.  a^gap is a itself at gap 1 and
    square-and-multiply above (a * a at gap 2), never **, slow on Decimal;
    likewise b^gap, and bpow = b^(d-i) starts as the first b^gap itself.
    int and Decimal square faster than they multiply only when both operands
    are one object, and 1 * b is a copy (Brent-Zimmermann, Modern Computer
    Arithmetic, 1.3.6): a step of z^2 + c is two squarings.
    """

    __slots__ = ("lead", "lower", "scale", "k", "drop", "reach", "steps")

    def __init__(self, phi: Polynomial):
        if phi.degree < 1:
            raise ValueError("IntegerModel requires degree >= 1")
        self.scale, coeffs = phi.integer_vector()
        self.lead, self.lower = coeffs[-1], coeffs[-2::-1]  # lower: f_(d-1), ..., f_0
        self.k = self.scale * abs(self.lead)
        d, tail = len(self.lower), sum(map(abs, self.lower))
        self.drop = max(1 + self.scale.bit_length() + d * self.lead.bit_length(), d * (1 + tail.bit_length()))
        self.reach = max(abs(self.lead), self.scale + tail)
        # (gap, f_i) per nonzero f_i, top down, then (gap, 0) down to i = 0 if f_0 = 0
        folds = [i for i in range(d - 1, -1, -1) if coeffs[i] or i == 0]
        self.steps = [(top - i, coeffs[i]) for top, i in zip([d, *folds], folds)]

    def __call__(self, a: int, b: int) -> tuple[int, int]:
        num, bpow = self.lead, 1
        for gap, c in self.steps:  # sparse Horner: num = num * a^gap + f_i * b^(d-i)
            if gap == 1:
                apow, bgap = a, b
            elif gap == 2:
                apow, bgap = a * a, b * b
            elif gap == 3:
                apow, bgap = a * a * a, b * b * b
            else:
                apow, bgap = a, b
                for bit in bin(gap)[3:]:
                    apow, bgap = apow * apow, bgap * bgap
                    if bit == "1":
                        apow, bgap = apow * a, bgap * b
            num *= apow
            bpow = bgap if bpow == 1 else bpow * bgap
            if c:
                num += c * bpow
        den, k = self.scale * bpow, self.k
        t = gcd(int(den % k), int(num % k), k)
        while t > 1:
            num, den = num // t, den // t
            t = gcd(int(den % k), int(num % k), k)
        return num, den

    def escapes(self, a: int, b: int) -> bool:
        """Whether a/b (b > 0) is past the escape radius max(1, (1 + sum_(i<d)
        |c_i|) / |c_d|), beyond which |phi(x)| > |x| and the absolute value
        grows strictly forever; both sides times |f_d| = L * |c_d|, so the
        test is |a| * |f_d| > max(|f_d|, L + sum_(i<d) |f_i|) * b."""
        return abs(a) * abs(self.lead) > self.reach * b

    def orbit_mod(self, a: int, b: int, steps: int, modulus: int) -> Iterator[tuple[int, int]]:
        """Yield phi^n(a/b), n = 1..steps, for a coprime pair (a, b), b > 0, as
        its pair mod modulus >= 1, without building the values.  The step reads
        its reduction from residues mod k, so it runs mod any multiple m of k:
        each division by t leaves a residue mod m / t, and the divisions of
        one step multiply to g, which divides L * f_d^d and hence k^d (size
        lemma, first point).  So the pair is stepped mod
        modulus * k^(d * steps + 1), divided by k^d after each step."""
        shrink = self.k ** len(self.lower)
        m = modulus * self.k * shrink**steps
        a, b = a % m, b % m
        for _ in range(steps):
            m //= shrink
            a, b = self(a, b)
            a, b = a % m, b % m
            yield a % modulus, b % modulus

    def orbit(
        self, start: Coefficient, steps: int, digit_budget: Optional[int] = None, *, track=False, partial=None,
        decimal_from: Optional[int] = None,
    ) -> Iterator[tuple[int, int]]:
        """Yield phi^n(start) for n = 1..steps as coprime pairs (a, b), b > 0.

        Each value is checked before it is yielded: with track, a return to the
        start or to an earlier value raises PreperiodicPoint, then a numerator
        or denominator of more than int(digit_budget / log10 2) + 1 bits
        raises DigitBudgetExceeded.  That bit budget admits every value of up
        to digit_budget decimal digits and some of digit_budget + 1 (a budget
        of 1 digit admits 15).  Both exceptions carry the partial result the
        caller fills.

        A step is not computed when the current value fits the bit budget and
        the size lemma already puts the next value past it: that value could
        not repeat the start or an earlier value, all of which fit, so the
        step raises DigitBudgetExceeded exactly as computing it would.

        With decimal_from, for a caller that prints the values' digits, the
        first step n >= decimal_from whose input has more than _LEAF_BITS bits
        converts that pair to exact Decimals once, and from it on the steps
        run and yield on Decimals under _EXACT.  _decimal_bit_length keeps
        bit lengths exact, so every check above decides as on ints, and seen
        may hold both kinds, as equal numbers hash equal.
        """
        x = as_rational(start)
        a, b = x.numerator, x.denominator
        bit_budget = None if digit_budget is None else int(digit_budget / _LOG10_2) + 1
        d = len(self.lower)
        h = max(a.bit_length(), b.bit_length())
        seen = {(a, b)}
        for n in range(1, steps + 1):
            if bit_budget is not None and h <= bit_budget < d * (h - 1) - self.drop:
                break  # by the size lemma, step n cannot fit
            if decimal_from is not None and n >= decimal_from and h > _LEAF_BITS:
                size = _to_decimal(abs(a))
                a, b, decimal_from = (size if a >= 0 else size.copy_negate()), _to_decimal(b), None
            if type(a) is int:
                a, b = self(a, b)
            else:
                with decimal.localcontext(_EXACT):
                    a, b = self(a, b)
            if track:
                if a == x.numerator and b == x.denominator:
                    raise PreperiodicPoint(f"orbit returns to the start at step {n}", n, partial)
                if (a, b) in seen:
                    raise PreperiodicPoint(f"orbit value repeats at step {n}", n, partial)
                seen.add((a, b))
            h = max(a.bit_length(), b.bit_length()) if type(a) is int else _decimal_bit_length(max(a.copy_abs(), b))
            if bit_budget is not None and h > bit_budget:
                break
            yield a, b
        else:
            return
        raise DigitBudgetExceeded(f"orbit value at step {n} exceeds {digit_budget} digits", partial)
